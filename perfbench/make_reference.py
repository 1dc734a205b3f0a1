"""Record the committed correctness reference (``reference.json``).

    python3 perfbench/make_reference.py --workload inf-bcd [--cap 60]

Runs every entry of the workload's default-seed corpus once, with no per-op
budget but a generous cap, checks it by its certificates, and stores its
objective and unbudgeted wall time.  An entry that does not finish within the
cap is stored with ``null`` objective and time: runs check it by its
certificates only.  Only the named workload's part of the file is replaced.
"""

import argparse
import json
import platform
import time

import run
import corpus


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    p.add_argument("--cap", type=float, default=60.0)
    args = p.parse_args(argv)
    workload = corpus.WORKLOADS[args.workload]
    ehcoop, entries, inputs, workdir = run.set_up(workload, corpus.DEFAULT_SEED)
    watchdog = run.Watchdog(args.cap)
    out = {}
    try:
        for e in entries:
            op = run.make_op(ehcoop, workload, e, inputs[e.index])
            elapsed, status, result = watchdog.call(op)
            record = {"objective": None, "time_s": None}
            if status == run.DONE:
                problems = run.check(ehcoop, workload, e, inputs[e.index], result, None)
                if problems:
                    raise SystemExit(f"entry {e.index}: {problems}")
                record = {"objective": run.objective_of(workload, result),
                          "time_s": round(elapsed, 4)}
            elif status == run.RAISED:
                raise SystemExit(f"entry {e.index} raised {result!r}")
            out[str(e.index)] = record
            print(e.index, e.model, e.mode, status, f"{elapsed:.3f}", flush=True)
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)
    try:
        data = json.loads(run.REFERENCE_PATH.read_text())
    except FileNotFoundError:
        data = {}
    data[workload.name] = {
        "seed": corpus.DEFAULT_SEED, "n_slots": workload.n_slots,
        "grid_points": workload.grid_points, "cap_s": args.cap,
        "recorded": time.strftime("%Y-%m-%d"),
        "machine": run.machine_facts() + f", {platform.machine()}",
        "entries": out,
    }
    run.REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
