"""Digest every benchmark-corpus output of the ehcoop checkout this file is in.

For each seed, every `inf-bcd` and `finite-dwf` entry is solved, and
`ehcoop verify --grid-points 20` is run on every `verify-cli` entry; the
entries come from perfbench/corpus.py, which is only imported.  One line per
op: the SHA-256 of the bytes of every SolveReport field, or of verify's exit
code and standard output.  After each workload, the number of node solves
(calls of waterfill._Node.solve) it made.

Two checkouts give equal outputs exactly when the two digests are equal:

    python3 tools/output_digest.py > new.txt
    python3 <other checkout>/tools/output_digest.py > old.txt
    diff old.txt new.txt

--n-slots, --entries and --model restrict or resize the solver corpora (for
example `--n-slots 32 --entries 20 --model THC`); the verify-cli corpus is
kept at its own size unless --entries is given.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import struct
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpus  # noqa: E402
from ehcoop import cli, harness, waterfill  # noqa: E402

SEEDS = (corpus.DEFAULT_SEED, 13)
SOLVER_WORKLOADS = ("inf-bcd", "finite-dwf")


def _feed(h, value):
    """Hash a report field by its bytes: arrays with dtype and shape, floats
    as IEEE doubles, dataclasses field by field."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, enum.Enum):
        h.update(repr(value).encode())
    elif isinstance(value, (bool, int)):
        h.update(repr(value).encode())
    elif isinstance(value, float):
        h.update(struct.pack("<d", value))
    else:
        raise TypeError(f"no digest for {type(value).__name__}")


def report_digest(report):
    h = hashlib.sha256()
    _feed(h, report)
    return h.hexdigest()


def count_node_solves():
    """Wrap _Node.solve with a counter; returns the one-element count list."""
    count = [0]
    inner = waterfill._Node.solve

    def solve(self, pb):
        count[0] += 1
        return inner(self, pb)

    waterfill._Node.solve = solve
    return count


def run(seed, name, args, count, workdir):
    workload = corpus.WORKLOADS[name]
    n_slots = None if workload.grid_points else args.n_slots
    entries = corpus.make_corpus(name, seed, args.entries, n_slots)
    count[0] = 0
    start = time.perf_counter()
    for e in entries:
        if args.model and e.model != args.model:
            continue
        if workload.grid_points:
            path = Path(workdir) / f"{name}-{seed}-{e.index:04d}.json"
            path.write_text(json.dumps(e.scenario_dict()))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(["verify", "--config", str(path),
                                 "--grid-points", str(workload.grid_points)])
            digest = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
        else:
            sc = harness.scenario_from_dict(e.scenario_dict())
            digest = report_digest(waterfill.solve(sc, cli.MODE_FLAGS[e.mode]))
        print(f"{seed} {name} {e.index} {e.model} {e.mode} {digest}")
    print(f"{seed} {name} node solves {count[0]}")
    print(f"{seed} {name} took {time.perf_counter() - start:.2f} s", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    parser.add_argument("--workloads", nargs="+", default=list(corpus.WORKLOADS),
                        choices=list(corpus.WORKLOADS))
    parser.add_argument("--n-slots", type=int, help="slots per solver-corpus entry")
    parser.add_argument("--entries", type=int, help="entries per corpus")
    parser.add_argument("--model", choices=("TWC", "THC", "MAC"), help="only this model")
    args = parser.parse_args(argv)
    count = count_node_solves()
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            for name in args.workloads:
                run(seed, name, args, count, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
