"""One-off, non-gating reproduction of the ROADMAP re-anchor baseline table.

    python3 perfbench/reanchor.py            # about three minutes on the seed code

Six N=6 solves (TWC, THC, MAC x infinite, 8 mJ battery), bidirectional mode:
harvests ``numpy.random.default_rng(0).uniform(0, 10, (2, 6))`` mJ (this draw
reproduces the table's 27 TWC iterations), alpha=(0.6, 0.5), gains
(-100, -99) dB, noise 1e-13 W.
Prints one line per solve and writes ``reanchor.json`` next to this file.
This is not a benchmark workload and is not run by ``run.py``.
"""

import json
import math
import time

import run


def main():
    ehcoop = run.import_ehcoop()
    import numpy as np

    harvests = np.random.default_rng(0).uniform(0.0, 10.0, size=(2, 6))
    rows = []
    for model in ("TWC", "THC", "MAC"):
        for capacity in (math.inf, 8.0):
            sc = ehcoop.Scenario(
                model_kind=ehcoop.ModelKind(model), harvests=harvests,
                battery_capacity=np.array([capacity, capacity]),
                transfer_efficiency=np.array([0.6, 0.5]),
                channel_gain_db=np.array([-100.0, -99.0]),
                noise_power_w=np.array([1e-13, 1e-13]))
            start = time.perf_counter()
            report = ehcoop.solve(sc)
            wall = time.perf_counter() - start
            row = {"model": model, "battery": "inf" if math.isinf(capacity) else "8 mJ",
                   "wall_s": round(wall, 4), "iterations": report.bcd_iterations,
                   "objective_nats": report.objective_nats, "converged": report.converged}
            rows.append(row)
            print(json.dumps(row), flush=True)
    out = {"machine": run.machine_facts(), "harvests_mJ": harvests.tolist(), "solves": rows}
    (run.HERE / "reanchor.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
