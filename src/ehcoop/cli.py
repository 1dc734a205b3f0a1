"""Command-line interface.

Exit codes: 0 success, 1 input error, 2 solver non-convergence or a
solver policy that fails the feasibility check (no valid answer),
3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import baselines, harness, waterfill
from .model import InfeasiblePolicyError, InputError, objective
from .oracle import DpConfig
from .waterfill import CooperationMode

MODE_FLAGS = {
    "bi": CooperationMode.BIDIRECTIONAL,
    "uni12": CooperationMode.UNI_1_TO_2,
    "uni21": CooperationMode.UNI_2_TO_1,
    "none": CooperationMode.NO_COOPERATION,
}

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2
EXIT_VERIFY = 3


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ehcoop",
        description="Offline sum-throughput optimization for energy-harvesting "
                    "two-way, two-hop and multiple-access channels with energy "
                    "cooperation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one scenario")
    p_solve.add_argument("--config", required=True, help="scenario JSON path")
    p_solve.add_argument("--mode", choices=sorted(MODE_FLAGS), default="bi")
    p_solve.add_argument("--out", help="write the full JSON report here")
    p_solve.add_argument("--bits", action="store_true",
                         help="print the objective in bits instead of nats")

    p_sweep = sub.add_parser("sweep", help="run a seeded experiment sweep")
    p_sweep.add_argument("--config", required=True, help="sweep JSON path")
    p_sweep.add_argument("--out", required=True, help="CSV output path")

    p_verify = sub.add_parser("verify", help="DP oracle and invariant checks")
    p_verify.add_argument("--config", required=True, help="scenario JSON path")
    p_verify.add_argument("--grid-points", type=int, default=DpConfig.grid_points)

    p_base = sub.add_parser("baseline", help="evaluate a reference policy")
    p_base.add_argument("--config", required=True, help="scenario JSON path")
    p_base.add_argument("--kind", choices=[b.value for b in baselines.BaselineKind],
                        default=baselines.BaselineKind.CONSTANT_POWER_WITH_COOP.value)
    return parser


def _cmd_solve(args):
    sc = harness.load_scenario(args.config)
    report = waterfill.solve(sc, MODE_FLAGS[args.mode])
    if args.out:
        harness.emit(harness.report_to_dict(report, sc), "json", args.out)
    if args.bits:
        print(f"objective: {report.objective_bits:.9f} bits")
    else:
        print(f"objective: {report.objective_nats:.9f} nats")
    if not report.converged:
        print(f"warning: solver did not converge after {report.bcd_iterations} passes",
              file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_sweep(args):
    spec = harness.load_sweep_spec(args.config)
    rows = harness.run_sweep(spec)
    harness.emit(rows, "csv", args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    if not all(r.converged for r in rows):
        print("warning: some solves did not converge", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_verify(args):
    sc = harness.load_scenario(args.config)
    ok, findings = harness.verify_scenario(sc, grid_points=args.grid_points)
    for line in findings:
        print(line)
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_baseline(args):
    sc = harness.load_scenario(args.config)
    kind = baselines.BaselineKind(args.kind)
    pol = baselines.constant_power(sc, kind)
    val = objective(pol, sc)
    print(f"objective: {val:.9f} nats ({val / math.log(2.0):.9f} bits)")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "baseline": _cmd_baseline,
    }[args.command]
    try:
        return handler(args)
    except (InputError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasiblePolicyError as exc:
        print(f"error: solver produced an infeasible policy: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
