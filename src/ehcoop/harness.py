"""Scenario ingestion, seeded generation, sweeps and report emission.

Scenario JSON schema (energies mJ, gains dB, noise W, capacity
number-or-"inf"):

    {
      "model": "TWC" | "THC" | "MAC",
      "harvests_mJ": [[...node1...], [...node2...]],
      "battery_capacity_mJ": [number | "inf", number | "inf"],
      "transfer_efficiency": [a1, a2],
      "channel_gain_dB": [g1, g2],
      "noise_power_W": [s1, s2],
      "slot_seconds": 1.0            # optional
    }

Random harvests come from the Philox counter-based generator (numpy
implementation), seeded through SeedSequence; the generator name is
recorded in emitted metadata.  Within a sweep, unit uniforms are keyed by
(trial, node) and scaled by the point's peak, so curves across swept
values share harvest draws (paired sampling) and parallel evaluation
cannot change the output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, waterfill
from .model import (
    INFINITE,
    InputError,
    ModelKind,
    Scenario,
    check_feasible,
    check_partially_procrastinating,
    check_procrastinating,
)
from .oracle import DpConfig, dp_solve
from .waterfill import CooperationMode, SolveReport

TOOL_VERSION = "ehcoop 0.1.0"
RNG_NAME = "numpy Philox (counter-based), SeedSequence-keyed"

MODE_NAMES = {m.value: m for m in CooperationMode}
BASELINE_NAMES = {b.value: b for b in baselines.BaselineKind}


def _capacity(x):
    if isinstance(x, str):
        if x.lower() in ("inf", "infinite"):
            return INFINITE
        raise InputError(f"battery capacity must be a number or 'inf', got {x!r}")
    return float(x)


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario from the JSON schema; Scenario validates the values."""
    if not isinstance(d, dict):
        raise InputError("a scenario must be a JSON object")
    try:
        model = ModelKind(d["model"])
    except (KeyError, TypeError, ValueError):
        raise InputError("field 'model' must be one of TWC, THC, MAC")
    for key in ("harvests_mJ", "battery_capacity_mJ", "transfer_efficiency",
                "channel_gain_dB", "noise_power_W"):
        if key not in d:
            raise InputError(f"missing required field '{key}'")
    caps = d["battery_capacity_mJ"]
    if isinstance(caps, list):
        caps = [_capacity(c) for c in caps]
    return Scenario(
        model_kind=model,
        harvests=d["harvests_mJ"],
        battery_capacity=caps,
        transfer_efficiency=d["transfer_efficiency"],
        channel_gain_db=d["channel_gain_dB"],
        noise_power_w=d["noise_power_W"],
        slot_seconds=d.get("slot_seconds", 1.0),
    )


def scenario_to_dict(sc: Scenario) -> dict:
    caps = ["inf" if math.isinf(c) else c for c in sc.battery_capacity]
    return {
        "model": sc.model_kind.value,
        "harvests_mJ": sc.harvests.tolist(),
        "battery_capacity_mJ": caps,
        "transfer_efficiency": sc.transfer_efficiency.tolist(),
        "channel_gain_dB": sc.channel_gain_db.tolist(),
        "noise_power_W": sc.noise_power_w.tolist(),
        "slot_seconds": sc.slot_seconds,
    }


def _load_json(path, what):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise InputError(f"{what} file is not valid JSON: {exc}") from None


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_load_json(path, "scenario"))


def load_sweep_spec(path) -> SweepSpec:
    return sweep_spec_from_dict(_load_json(path, "sweep"))


def generate_harvests(peak_mJ, n, seed) -> np.ndarray:
    """n i.i.d. uniforms on [0, peak] from the documented Philox stream."""
    if peak_mJ < 0:
        raise InputError("peak harvest must be non-negative")
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(seed)))
    return peak_mJ * rng.random(n)


def _trial_uniforms(seed, trial, node, n):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial, node))
    rng = np.random.Generator(np.random.Philox(seed=ss))
    return rng.random(n)


@dataclass(frozen=True)
class SweepSpec:
    base: Scenario
    swept_parameter: str                  # "peak_harvest_node1" or "alpha1"
    values: tuple
    trials_per_point: int = 50
    seed: int = 0
    modes: tuple = ("bidirectional", "uni_1_to_2", "uni_2_to_1", "no_cooperation",
                    "constant_power_with_coop", "constant_power_no_coop")
    peak_harvest_node1: float = 10.0      # used when sweeping alpha1
    peak_harvest_node2: float = 10.0

    def __post_init__(self):
        if self.swept_parameter not in ("peak_harvest_node1", "alpha1"):
            raise InputError("swept_parameter must be peak_harvest_node1 or alpha1")
        if self.trials_per_point < 1:
            raise InputError("trials_per_point must be >= 1")
        if len(self.values) < 1:
            raise InputError("sweep needs at least one value")
        for m in self.modes:
            if m not in MODE_NAMES and m not in BASELINE_NAMES:
                raise InputError(f"unknown mode {m!r}")


def sweep_spec_from_dict(d: dict) -> SweepSpec:
    if not isinstance(d, dict):
        raise InputError("a sweep spec must be a JSON object")
    base = scenario_from_dict(d["base_scenario"])
    try:
        if "values" in d:
            values = tuple(float(v) for v in d["values"])
        else:
            lo, hi, step = float(d["lo"]), float(d["hi"]), float(d["step"])
            if not (lo <= hi and step > 0):
                raise InputError("sweep range requires lo <= hi and step > 0")
            values = tuple(np.arange(lo, hi + 0.5 * step, step))
        kwargs = {}
        for key in ("trials_per_point", "seed", "peak_harvest_node1", "peak_harvest_node2"):
            if key in d:
                kwargs[key] = d[key]
        if "modes" in d:
            kwargs["modes"] = tuple(d["modes"])
        return SweepSpec(base=base, swept_parameter=d["swept_parameter"],
                         values=values, **kwargs)
    except (TypeError, ValueError) as exc:  # InputError too: one prefix for every spec error
        raise InputError(f"malformed sweep spec: {exc}") from None


@dataclass(frozen=True)
class SweepRow:
    swept_value: float
    mode: str
    mean_nats: float
    mean_bits: float
    trials: int
    seed: int
    converged: bool = True


def _evaluate(sc: Scenario, mode_name: str):
    """Objective in nats for a cooperation mode or baseline; (value, converged)."""
    if mode_name in BASELINE_NAMES:
        from .model import objective
        pol = baselines.constant_power(sc, BASELINE_NAMES[mode_name])
        return objective(pol, sc), True
    report = waterfill.solve(sc, MODE_NAMES[mode_name])
    return report.objective_nats, report.converged


def run_sweep(spec: SweepSpec):
    """Evaluate each (swept value, mode) pair averaged over paired trials."""
    n = spec.base.n_slots
    rows = []
    for value in spec.values:
        if spec.swept_parameter == "peak_harvest_node1":
            peak1, alpha1 = value, spec.base.transfer_efficiency[0]
        else:
            peak1, alpha1 = spec.peak_harvest_node1, value
        sums = {m: 0.0 for m in spec.modes}
        conv = {m: True for m in spec.modes}
        for t in range(spec.trials_per_point):
            e1 = peak1 * _trial_uniforms(spec.seed, t, 0, n)
            e2 = spec.peak_harvest_node2 * _trial_uniforms(spec.seed, t, 1, n)
            sc = replace(spec.base, harvests=np.vstack([e1, e2]),
                         transfer_efficiency=(alpha1, spec.base.transfer_efficiency[1]))
            for m in spec.modes:
                val, ok = _evaluate(sc, m)
                sums[m] += val
                conv[m] = conv[m] and ok
        for m in spec.modes:
            mean = sums[m] / spec.trials_per_point
            rows.append(SweepRow(swept_value=float(value), mode=m,
                                 mean_nats=mean, mean_bits=mean / math.log(2.0),
                                 trials=spec.trials_per_point, seed=spec.seed,
                                 converged=conv[m]))
    return rows


# ---------------------------------------------------------------------------
# emission


def report_to_dict(report: SolveReport, sc: Scenario) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "rng": RNG_NAME,
        "scenario": scenario_to_dict(sc),
        "mode": report.mode.value,
        "objective_nats": report.objective_nats,
        "objective_bits": report.objective_bits,
        "consumed_mW": report.policy.consumed.tolist(),
        "immediate_mJ": report.policy.immediate.tolist(),
        "stored_mJ": report.policy.stored.tolist(),
        "transmit_mW": report.transmit.p.tolist(),
        "delta_mJ": report.transmit.delta.tolist(),
        "water_levels": np.where(np.isfinite(report.levels),
                                 report.levels, None).tolist(),
        "bcd_iterations": report.bcd_iterations,
        "level_residual": report.level_residual,
        "converged": report.converged,
    }


def emit(obj, fmt, path):
    """Write a SolveReport (json) or sweep rows (csv/json) to path."""
    if fmt == "json":
        if isinstance(obj, dict):
            payload = obj
        else:
            payload = [r.__dict__ for r in obj]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["swept_value", "mode", "mean_nats", "mean_bits",
                             "trials", "seed"])
            for r in obj:
                writer.writerow([repr(r.swept_value), r.mode, repr(r.mean_nats),
                                 repr(r.mean_bits), r.trials, r.seed])
    else:
        raise InputError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# verification bundle (CLI `verify`)


def verify_scenario(sc: Scenario, grid_points=40):
    """DP oracle + invariant checks; returns (ok, list of findings)."""
    findings = []
    ok = True
    report = waterfill.solve(sc)
    feas = check_feasible(report.transmit, sc)
    if not feas.feasible:
        ok = False
        findings.append(f"solver policy infeasible: {feas.first_violation}")
    infinite = all(math.isinf(c) for c in sc.battery_capacity)
    if infinite:
        if not check_procrastinating(report.transmit, sc):
            ok = False
            findings.append("solver policy is not procrastinating")
    else:
        if not check_partially_procrastinating(report.policy, sc):
            ok = False
            findings.append("solver policy is not partially procrastinating")
    if report.level_residual > 1e-7:
        ok = False
        findings.append(f"water-level residual {report.level_residual:.3g} > 1e-7")
    cfg = DpConfig(grid_points=grid_points)
    quantum = cfg.quantum_for(sc)
    dp_value, _ = dp_solve(sc, cfg)
    # marginal rate is at most 1/(2 n_min) nats per mJ of lost quantization
    n_min = float(np.min(sc.effective_noise_mw)) * sc.slot_seconds
    slack = quantum * (2 * sc.n_slots + 2) / (2 * n_min)
    if report.objective_nats < dp_value - 1e-9:
        ok = False
        findings.append(f"solver {report.objective_nats:.9f} below DP bound {dp_value:.9f}")
    if report.objective_nats > dp_value + slack:
        ok = False
        findings.append(
            f"solver {report.objective_nats:.9f} exceeds DP {dp_value:.9f} "
            f"by more than the grid slack {slack:.3g}")
    findings.append(f"objective {report.objective_nats:.9f} nats; "
                    f"DP lower bound {dp_value:.9f} (quantum {quantum:g} mJ)")
    return ok, findings
