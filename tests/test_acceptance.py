"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines as
they are produced; without -s they appear in captured output on failure.
"""

import math
import time

import numpy as np
import pytest

from conftest import level_rate, make_scenario, random_feasible_policy, random_scenario
from ehcoop import cli, harness
from ehcoop.model import (
    INFINITE,
    ModelKind,
    check_feasible,
    check_partially_procrastinating,
    objective,
    procrastinate_transform,
    recover_transmit_powers,
)
from ehcoop.oracle import DpConfig, dp_solve, grid_transfer_max
from ehcoop.transfer import Regime, slot_transfer, water_level
from ehcoop.waterfill import CooperationMode, bcd_solve, mac_solve, solve, staircase

QUANTUM = 0.02


def verdict(num, label, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {label}")
    assert ok, f"criterion {num} failed: {label}"


def rand_draw(rng, model):
    sc = make_scenario(model=model,
                       alpha=tuple(rng.uniform(0.05, 1.0, size=2)),
                       gain_db=tuple(rng.uniform(-103, -97, size=2)),
                       harvests=((1.0,), (1.0,)))
    return sc, float(rng.uniform(0, 8)), float(rng.uniform(0, 8))


def test_criterion_1_closed_forms_vs_grid_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    for model in ModelKind:
        for _ in range(1000):
            sc, pb1, pb2 = rand_draw(rng, model)
            st = slot_transfer(model, pb1, pb2, sc)
            _, grid_best = grid_transfer_max(model, pb1, pb2, sc, points=100)
            ok &= st.rate_nats >= grid_best - 1e-6
    st = slot_transfer(ModelKind.TWC, 2.0, 0.0, make_scenario())
    ok &= abs(st.delta[0] - 0.5) <= 1e-9 and st.delta[1] == 0.0
    sc_thc = make_scenario(model=ModelKind.THC, alpha=(0.5, 0.0))
    st = slot_transfer(ModelKind.THC, 4.0, 0.0, sc_thc)
    ok &= abs(st.delta[0] - 8.0 / 3.0) <= 1e-9
    ok &= abs((4.0 - st.delta[0]) - 0.5 * st.delta[0]) <= 1e-9  # equalization
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    verdict(1, f"closed forms dominate grid oracle, 3000 draws in {elapsed:.1f}s", ok)


def test_criterion_2_twc_regression():
    sc = make_scenario()  # E1=[2,5,0,0], E2=[0,4,0,7], alpha 0.5, n = 1 mW
    rep = solve(sc)
    d = rep.transmit.delta
    directions = (d[0, 0] > 1e-9 and d[1, 0] == 0.0
                  and np.all(d[:, 1] == 0.0) and np.all(d[:, 2] == 0.0)
                  and d[1, 3] > 1e-9 and d[0, 3] == 0.0)
    ok = directions and rep.level_residual <= 1e-7
    verdict(2, "pinned TWC instance: transfer directions and level residual", ok)


def test_criterion_3_thc_regression():
    sc = make_scenario(model=ModelKind.THC, alpha=(0.5, 0.0),
                       harvests=((4.0, 0.0, 2.0, 6.0), (0.0, 3.0, 0.0, 0.0)))
    rep = solve(sc)
    w1, w2 = sc.effective_noise_mw[1], sc.effective_noise_mw[0]
    pb = rep.policy.consumed
    ok = bool(np.all(w1 * pb[0] >= w2 * pb[1] - 1e-9))
    verdict(3, "pinned THC instance: source term dominates relay term per slot", ok)


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(104)
    models = list(ModelKind)
    for trial in range(150):
        sc = random_scenario(rng, models[trial % 3])
        gap = solve(sc).objective_nats - dp_solve(sc, DpConfig(energy_quantum_mJ=QUANTUM))[0]
        ok &= -1e-9 <= gap <= QUANTUM
    for trial in range(25):
        sc = random_scenario(rng, models[trial % 3], finite=True)
        gap = solve(sc).objective_nats - dp_solve(sc, DpConfig(energy_quantum_mJ=QUANTUM))[0]
        ok &= -1e-9 <= gap <= QUANTUM
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    verdict(4, f"150 infinite + 25 finite instances within DP window in {elapsed:.0f}s", ok)


def test_criterion_5_mac_reduction_agreement():
    ok = bool(np.allclose(staircase([2, 5, 0, 0], INFINITE), 1.75, atol=1e-9))
    rng = np.random.default_rng(105)
    for _ in range(100):
        sc = random_scenario(rng, ModelKind.MAC)
        a = mac_solve(sc).objective_nats
        b = bcd_solve(sc).objective_nats
        ok &= abs(a - b) <= 1e-6 * max(abs(b), 1e-9)
    verdict(5, "mac_solve agrees with direct BCD on 100 instances; staircase pinned", ok)


def test_criterion_6_mode_nesting_sweep():
    spec = harness.SweepSpec(
        base=make_scenario(harvests=np.zeros((2, 6))),
        swept_parameter="peak_harvest_node1",
        values=tuple(np.linspace(1.0, 10.0, 10)),
        trials_per_point=20, seed=106, peak_harvest_node2=10.0)
    rows = harness.run_sweep(spec)
    ok = True
    for value in spec.values:
        by_mode = {r.mode: r.mean_nats for r in rows if r.swept_value == float(value)}
        bi, none = by_mode["bidirectional"], by_mode["no_cooperation"]
        for uni in ("uni_1_to_2", "uni_2_to_1"):
            ok &= bi >= by_mode[uni] - 1e-9
            ok &= by_mode[uni] >= none - 1e-9
        ok &= none >= by_mode["constant_power_no_coop"] - 1e-9
        ok &= bi >= by_mode["constant_power_with_coop"] - 1e-9
    verdict(6, "mode nesting holds pointwise on a 10-point, 20-trial sweep", ok)


def test_criterion_7_concavity_and_water_levels():
    ok = True
    rng = np.random.default_rng(107)
    for model in ModelKind:
        for _ in range(1000 // 3 + 1):
            sc, x1, x2 = rand_draw(rng, model)
            y1, y2 = rng.uniform(0, 8, size=2)
            mid = slot_transfer(model, 0.5 * (x1 + y1), 0.5 * (x2 + y2), sc).rate_nats
            avg = 0.5 * (slot_transfer(model, x1, x2, sc).rate_nats
                         + slot_transfer(model, y1, y2, sc).rate_nats)
            ok &= mid >= avg - 1e-10
    checked = 0
    while checked < 1000:
        model = list(ModelKind)[checked % 3]
        sc, pb1, pb2 = rand_draw(rng, model)
        if checked % 5 == 0 and model is ModelKind.TWC:
            # sit exactly on the no-transfer/interior regime boundary
            a1 = sc.transfer_efficiency[0]
            n1, n2 = sc.effective_noise_mw
            pb2 = a1 * (n1 + pb1) - n2
            if pb2 < 0:
                continue
        step = 1e-6 * max(1.0, pb1)
        if pb1 < 2 * step:
            continue
        if model is ModelKind.THC:
            w1, w2 = sc.effective_noise_mw[1], sc.effective_noise_mw[0]
            if abs(w1 * pb1 - w2 * pb2) < 4 * step * max(w1, w2):
                continue  # set-valued subdifferential at the min kink
        v = water_level(model, 1, pb1, pb2, sc)
        fd = (level_rate(model, pb1 + step, pb2, sc)
              - level_rate(model, pb1 - step, pb2, sc)) / (2 * step)
        if math.isinf(v):
            ok &= abs(fd) <= 1e-9
        else:
            ok &= abs(1.0 / v - fd) <= 1e-5 * max(abs(fd), 1e-12)
        checked += 1
    verdict(7, "midpoint concavity and 1/v finite-difference suites", ok)


def test_criterion_8_procrastinate_transform():
    rng = np.random.default_rng(108)
    ok = True
    for trial in range(200):
        model = list(ModelKind)[trial % 3]
        sc = random_scenario(rng, model, finite=bool(trial % 2))
        pol = random_feasible_policy(rng, sc)
        dp = procrastinate_transform(pol, sc)
        out = recover_transmit_powers(dp, sc)
        ok &= check_feasible(out, sc).feasible
        ok &= check_partially_procrastinating(dp, sc)
        ok &= abs(objective(out, sc) - objective(pol, sc)) <= 1e-12
    verdict(8, "transform output feasible, partially procrastinating, objective-identical", ok)


def test_criterion_9_sweep_determinism(tmp_path):
    import json
    sweep_cfg = {
        "base_scenario": {
            "model": "TWC",
            "harvests_mJ": [[0.0] * 4, [0.0] * 4],
            "battery_capacity_mJ": ["inf", "inf"],
            "transfer_efficiency": [0.5, 0.5],
            "channel_gain_dB": [-100.0, -100.0],
            "noise_power_W": [1e-13, 1e-13],
        },
        "swept_parameter": "peak_harvest_node1",
        "values": [2.0, 5.0, 8.0],
        "trials_per_point": 3,
        "seed": 109,
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_cfg))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes() and len(out1.read_bytes()) > 0
    verdict(9, "sweep is byte-identical across runs with the same seed", ok)
