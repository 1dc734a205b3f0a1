"""ehcoop benchmark: one seeded workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload inf-bcd --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

The workload's inputs are generated from ``--seed`` (see ``corpus.py``) and
handed to the program as ``Scenario`` objects or JSON files.  The timed loop
runs one op at a time on one thread until ``--seconds`` have passed, with a
per-op wall budget enforced from outside by ``SIGALRM``.  Every op's output is
checked.  The human-readable report comes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced re-run with ``--trace 1``).

``failed`` counts ops whose output was wrong or that raised.  Ops that ran
out of budget are counted apart as timeouts: they enter the op time
percentiles at their measured time, count against ``ops_per_s`` and
``ok_frac`` and in ``fail_frac``, but do not make the run incorrect.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:     # before numpy is first imported
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import corpus  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 7           # set-ups timed for setup_s, each in a fresh process
TRACE_BASE_SHARE = 0.4      # share of --seconds for the untraced pass of --trace 1
TRACE_BUDGET_FACTOR = 3.0   # traced ops get this multiple of the budget
LEVEL_RESIDUAL_MAX = 1e-7
OBJECTIVE_RTOL = 1e-9
EXIT_NO_PROGRAM = 2

DONE, TIMEOUT, RAISED = "done", "timeout", "raised"


class OpTimeout(BaseException):
    """Raised in the main thread when an op runs past its wall budget.

    A BaseException, so that no ``except Exception`` in the program swallows it.
    """


class Watchdog:
    """Runs one callable at a time under a SIGALRM wall budget."""

    def __init__(self, budget_s):
        self.budget_s = budget_s
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout

    def call(self, fn):
        """Returns (elapsed seconds, DONE/TIMEOUT/RAISED, result or exception)."""
        start = time.perf_counter()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, self.budget_s)
            try:
                result = fn()
                elapsed = time.perf_counter() - start
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            return time.perf_counter() - start, TIMEOUT, None
        except Exception as exc:    # an op that raises is a failed op, not a crash
            return time.perf_counter() - start, RAISED, exc
        return elapsed, DONE, result


# ---------------------------------------------------------------------------
# set-up: import the program from the checkout and build the inputs


def import_ehcoop():
    """Import ehcoop from ``src/`` of this checkout; exit if it is not there."""
    if not (SRC / "ehcoop" / "__init__.py").is_file():
        print(f"error: no ehcoop sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import ehcoop
    import ehcoop.cli
    if Path(ehcoop.__file__).resolve().parent != SRC / "ehcoop":
        print(f"error: imported ehcoop from {ehcoop.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return ehcoop


def make_scenario(ehcoop, entry):
    return ehcoop.Scenario(
        model_kind=ehcoop.ModelKind(entry.model),
        harvests=np.array(entry.harvests),
        battery_capacity=np.array([float(c) for c in entry.capacity]),
        transfer_efficiency=np.array(entry.alpha),
        channel_gain_db=np.array(entry.gain_db),
        noise_power_w=np.array([corpus.NOISE_W, corpus.NOISE_W]),
        slot_seconds=corpus.SLOT_SECONDS,
    )


def build_inputs(ehcoop, workload, entries, workdir):
    """What the program receives: a Scenario per entry, or a JSON file per entry."""
    if workload.grid_points:
        paths = []
        for e in entries:
            path = workdir / f"entry-{e.index:04d}.json"
            path.write_text(json.dumps(e.scenario_dict()))
            paths.append(str(path))
        return paths
    return [make_scenario(ehcoop, e) for e in entries]


def set_up(workload, seed, entries=None, n_slots=None):
    """Import, generate and build; returns (ehcoop, entries, inputs, workdir)."""
    ehcoop = import_ehcoop()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    generated = corpus.make_corpus(workload.name, seed, entries, n_slots)
    return ehcoop, generated, build_inputs(ehcoop, workload, generated, workdir), workdir


def monotonic_now():
    """CLOCK_MONOTONIC, which every process on the machine reads alike."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_seconds(args):
    """Set-up times of fresh processes, from their start until their ops are ready.

    Each child imports ehcoop, builds the inputs and its ops, and prints the
    clock; the time since this process started it is one sample.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for flag, value in (("--entries", args.entries), ("--n-slots", args.n_slots)):
        if value is not None:
            cmd += [flag, str(value)]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = monotonic_now()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]) - start)
    return times


# ---------------------------------------------------------------------------
# ops and their checks


def make_op(ehcoop, workload, entry, inp):
    if workload.grid_points:
        argv = ["verify", "--config", inp, "--grid-points", str(workload.grid_points)]

        def op():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = ehcoop.cli.main(argv)
            return code, out.getvalue()
        return op
    mode = ehcoop.cli.MODE_FLAGS[entry.mode]
    return lambda: ehcoop.solve(inp, mode)    # looked up per call, so wrappers apply


FORBIDDEN_NODE = {"uni12": (1,), "uni21": (0,), "none": (0, 1), "bi": ()}


def objective_of(workload, result):
    """The objective an op reports, in nats."""
    if workload.grid_points:
        for line in result[1].splitlines():
            if line.startswith("objective "):
                return float(line.split()[1].rstrip(";"))
        raise ValueError("verify printed no objective line")
    return result.objective_nats


def check(ehcoop, workload, entry, inp, result, reference):
    """Problems with one op's output; an empty list means correct."""
    problems = []
    if workload.grid_points:
        code, text = result
        if code != 0:
            return [f"verify exited {code}: {' '.join(text.split()[-12:])}"]
    else:
        report, sc = result, inp
        if not report.converged:
            problems.append("converged=False")
        feas = ehcoop.check_feasible(report.transmit, sc)
        if not feas.feasible:
            problems.append(f"infeasible at {feas.first_violation}")
        if not report.level_residual <= LEVEL_RESIDUAL_MAX:
            problems.append(f"level residual {report.level_residual:.3g}")
        for node in FORBIDDEN_NODE[entry.mode]:
            if report.transmit.delta[node].max() > 1e-12:
                problems.append(f"node {node + 1} transfers in mode {entry.mode}")
        if feas.feasible:
            recomputed = ehcoop.objective(report.transmit, sc)
            if not math.isclose(recomputed, report.objective_nats, rel_tol=OBJECTIVE_RTOL):
                problems.append(f"reported objective {report.objective_nats!r} "
                                f"!= policy objective {recomputed!r}")
    try:
        value = objective_of(workload, result)
    except ValueError as exc:
        return problems + [str(exc)]
    if not math.isfinite(value):
        problems.append(f"objective {value!r}")
    elif reference is not None and value < reference - OBJECTIVE_RTOL * abs(reference):
        problems.append(f"objective {value!r} below reference {reference!r}")
    return problems


def load_reference(workload, seed, n_slots):
    """Committed objectives of the default-seed corpus, keyed by entry index.

    Other seeds and other horizons have none: their ops are checked by the
    certificates alone (convergence, feasibility, residual, verify's exit code).
    """
    if seed != corpus.DEFAULT_SEED or n_slots not in (None, workload.n_slots):
        return {}
    data = json.loads(REFERENCE_PATH.read_text())[workload.name]
    return {int(k): v["objective"] for k, v in data["entries"].items()
            if v["objective"] is not None}


# ---------------------------------------------------------------------------
# the timed loop


def timed_loop(watchdog, ops, seconds, count=None, on_op=None):
    """Run ops in order, wrapping around, for `seconds` and at most `count` ops.

    Returns one (entry, elapsed, status, result) per attempted op, and the
    wall time of the loop.
    """
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while (count is None or i < count) and time.perf_counter() < deadline:
        entry, op = ops[i % len(ops)]
        if on_op is not None:
            on_op(i)
        elapsed, status, result = watchdog.call(op)
        records.append((entry, elapsed, status, result))
        i += 1
    return records, time.perf_counter() - start


def judge(ehcoop, workload, records, inputs, references):
    """Split records into ok / timed out / failed and collect failure messages."""
    ok, timeouts, failures = [], [], []
    for entry, elapsed, status, result in records:
        if status == TIMEOUT:
            timeouts.append(entry.index)
            continue
        if status == RAISED:
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            problems = check(ehcoop, workload, entry, inputs[entry.index], result,
                             references.get(entry.index))
        if problems:
            failures.append(f"entry {entry.index} ({entry.model} {entry.mode}): "
                            + "; ".join(problems))
        else:
            ok.append(entry.index)
    return ok, timeouts, failures


def quantile(values, q):
    """Linear-interpolated quantile within the data (statistics 'inclusive')."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts():
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {np.__version__}, "
            + ", ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS))


# The metrics in BENCHMARK.json "end_to_end"; the others are printed only.
GATED = ("setup_s", "op_s.mean", "ok_frac", "peak_rss_mb")


def end_to_end(records, loop_s, ok, timeouts, failures, setup_times):
    """Every end-to-end metric: name -> (value, unit, note)."""
    times = [r[1] for r in records]
    n = len(times)
    op_s = sum(times)
    return {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} fresh processes, start to ops ready"),
        "op_s.mean": (op_s / n, "s", f"n={n}, {op_s:.2f} s of op time"),
        "ok_frac": (len(ok) / n, "fraction", f"{len(ok)} correct within budget of {n}"),
        "peak_rss_mb": (peak_rss_mb(), "MB", "ru_maxrss of this process"),
        "ops_per_s": (len(ok) / loop_s, "1/s", f"{len(ok)} correct ops / {loop_s:.2f} s loop"),
        "op_s.p50": (statistics.median(times), "s", f"n={n}"),
        "op_s.p90": (quantile(times, 0.9), "s", f"n={n}, {n - math.ceil(0.9 * n)} beyond"),
        "fail_frac": ((len(timeouts) + len(failures)) / n, "fraction",
                      f"{len(timeouts)} timeouts + {len(failures)} incorrect of {n}"),
    }


def print_report(workload, args, n, metrics, failures):
    print(f"workload {workload.name}  seed {args.seed}  N={workload.n_slots}"
          + (f"  grid-points {workload.grid_points}" if workload.grid_points else ""))
    print(f"  closed loop, 1 caller, 1 thread; {n} ops attempted; "
          f"budget {workload.budget_s:g} s/op")
    print(f"  machine: {machine_facts()}")
    for name, (value, unit, note) in metrics.items():
        gate = "gated" if name in GATED else "not gated"
        print(f"  {name:<12} {value:12.6g} {unit:<8} ({note}; {gate})")
    for line in failures[:20]:
        print(f"  FAILED {line}")


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# entry points


def run_workload(args):
    workload = corpus.WORKLOADS[args.workload]
    ehcoop, entries, inputs, workdir = set_up(workload, args.seed, args.entries, args.n_slots)
    try:
        if args.stub:
            install_stub(ehcoop, args.stub)
        references = load_reference(workload, args.seed, args.n_slots)
        ops = [(e, make_op(ehcoop, workload, e, inputs[e.index])) for e in entries]
        watchdog = Watchdog(workload.budget_s)
        if args.trace:
            return run_traced(ehcoop, workload, args, ops, inputs, references, watchdog)
        records, loop_s = timed_loop(watchdog, ops, args.seconds)
        ok, timeouts, failures = judge(ehcoop, workload, records, inputs, references)
        metrics = end_to_end(records, loop_s, ok, timeouts, failures, setup_seconds(args))
        print_report(workload, args, len(records), metrics, failures)
        emit(not failures, len(records), len(failures),
             {name: metrics[name][:2] for name in GATED})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_traced(ehcoop, workload, args, ops, inputs, references, watchdog):
    """Untraced pass, then the same ops again under the tracer.

    Objectives must match bit for bit; the difference in op time between the
    passes is the tracing overhead.  The traced pass stops at the end of
    ``--seconds``, or when it has replayed every op of the untraced pass.
    """
    from tracer import Tracer

    base, _ = timed_loop(watchdog, ops, args.seconds * TRACE_BASE_SHARE)
    tracer = Tracer()
    tracer.install()
    traced_watchdog = Watchdog(workload.budget_s * TRACE_BUDGET_FACTOR)

    def on_op(i):
        tracer.begin_op(i)

    try:
        traced, _ = timed_loop(traced_watchdog, ops, args.seconds * (1 - TRACE_BASE_SHARE),
                               count=len(base), on_op=on_op)
    finally:
        tracer.op_id = -1
        tracer.remove()
    failures = []
    for records in (base, traced):
        failures += judge(ehcoop, workload, records, inputs, references)[2]

    def value(record):
        try:
            return objective_of(workload, record[3])
        except ValueError:      # a failed verify; judged above
            return None

    both = [(a, b) for a, b in zip(base, traced) if a[2] == DONE and b[2] == DONE]
    for a, b in both:
        va, vb = value(a), value(b)
        if va != vb:
            failures.append(f"entry {a[0].index}: traced objective {vb!r} != untraced {va!r}")
    base_s = sum(a[1] for a, _ in both)
    traced_s = sum(b[1] for _, b in both)
    metrics = tracer.layer_metrics(len(traced), sum(r[1] for r in traced))
    metrics["trace.overhead_frac"] = ((traced_s - base_s) / base_s if base_s else 0.0, "fraction")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.npz"
    tracer.write(spans_path)
    print(f"workload {workload.name}  seed {args.seed}  traced re-run of {len(traced)} ops "
          f"({len(both)} completed in both passes, objectives compared bit for bit)")
    print(f"  machine: {machine_facts()}")
    print(f"  spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:12.6g} {unit}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    emit(not failures, len(base) + len(traced), len(failures), metrics)
    return 0


def install_stub(ehcoop, kind):
    """Self-test hooks: replace the solver by a wrong or a slow one."""
    real = ehcoop.solve

    def half(sc, mode):
        report = real(sc, mode)
        return dataclasses.replace(report, objective_nats=report.objective_nats / 2)

    def slow(sc, mode):
        time.sleep(60)
        return real(sc, mode)

    ehcoop.solve = {"half-objective": half, "sleep": slow}[kind]


def run_all(args):
    """Every workload, each in its own process; prints their reports."""
    worst = 0
    for name in corpus.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def setup_only(args):
    """Child of setup_seconds: set up, then print the clock when the ops are ready."""
    workload = corpus.WORKLOADS[args.workload]
    ehcoop, entries, inputs, workdir = set_up(workload, args.seed, args.entries, args.n_slots)
    [make_op(ehcoop, workload, e, inputs[e.index]) for e in entries]
    ready = monotonic_now()
    shutil.rmtree(workdir, ignore_errors=True)
    print(repr(ready))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the benchmark's own tests
    p.add_argument("--entries", type=int, help="corpus size (default: the workload's)")
    p.add_argument("--n-slots", type=int, help="horizon (default: the workload's)")
    p.add_argument("--stub", choices=("half-objective", "sleep"), help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
