import math

import numpy as np
import pytest

from conftest import make_scenario, random_scenario
from ehcoop.model import (
    INFINITE,
    InputError,
    ModelKind,
    check_feasible,
    check_partially_procrastinating,
    check_procrastinating,
    objective,
)
from ehcoop.transfer import level_at, level_pieces
from ehcoop.waterfill import (
    CooperationMode,
    bcd_solve,
    dwf_finite,
    dwf_node,
    mac_reduce,
    mac_solve,
    solve,
    staircase,
    thc_solve,
)


def single_node_sc(harvests1, model=ModelKind.TWC):
    zeros = tuple(0.0 for _ in harvests1)
    return make_scenario(model=model, harvests=(tuple(harvests1), zeros), alpha=(0.0, 0.0))


def assert_directional_water_filling(k, other, sc):
    """dwf_node's powers use the whole budget causally, and their levels are
    equal within each pool (run of slots ending with an empty battery) and
    non-decreasing across pools; an idle slot starts at or above its pool's
    level.  A level at a jump is the interval between its limits, so a
    common selection must exist."""
    p = dwf_node(k, other, sc)
    harv = sc.harvests[k - 1]
    cum_p, cum_h = np.cumsum(p), np.cumsum(harv)
    assert np.all(cum_p <= cum_h + 1e-9)
    assert cum_p[-1] == pytest.approx(cum_h[-1], abs=1e-9)
    pieces = [level_pieces(sc.model_kind, k, q, sc) for q in other]
    ends = [i for i in range(sc.n_slots - 1) if cum_h[i] - cum_p[i] <= 1e-9]
    prev = 0.0
    for lo, hi in zip([0] + [e + 1 for e in ends], ends + [sc.n_slots - 1]):
        pool = range(lo, hi + 1)
        busy = [i for i in pool if p[i] > 1e-12]
        if not busy:
            continue
        # the lowest level selection that is common to the pool and not
        # below the previous pool's
        level = max([prev] + [level_at(pieces[i], p[i] * (1 - 1e-9)) for i in busy])
        assert level <= min(level_at(pieces[i], p[i] * (1 + 1e-9)) for i in busy) * (1 + 1e-9)
        for i in set(pool) - set(busy):
            assert level_at(pieces[i], 0.0) >= level * (1 - 1e-9)
        prev = level


class TestDwfNode:
    def test_staircase_profile(self):
        sc = single_node_sc([2.0, 5.0, 0.0, 0.0])
        out = dwf_node(1, np.zeros(4), sc, CooperationMode.NO_COOPERATION)
        assert np.allclose(out, 1.75, atol=1e-9)

    def test_two_slot_split(self):
        sc = single_node_sc([5.0, 0.0])
        out = dwf_node(1, np.zeros(2), sc, CooperationMode.NO_COOPERATION)
        assert np.allclose(out, [2.5, 2.5], atol=1e-9)

    def test_no_backward_flow(self):
        sc = single_node_sc([0.0, 5.0])
        out = dwf_node(1, np.zeros(2), sc, CooperationMode.NO_COOPERATION)
        assert np.allclose(out, [0.0, 5.0], atol=1e-9)

    def test_requires_infinite_battery(self):
        sc = make_scenario(capacity=(5.0, 5.0))
        with pytest.raises(InputError):
            dwf_node(1, np.zeros(4), sc)

    def test_energy_balance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            sc = random_scenario(rng, ModelKind.TWC)
            other = rng.uniform(0, 0.2, size=sc.n_slots)
            out = dwf_node(1, other, sc)
            cum = np.cumsum(out * sc.slot_seconds)
            harv = np.cumsum(sc.harvests[0])
            assert np.all(cum <= harv + 1e-9)
            assert cum[-1] == pytest.approx(harv[-1], abs=1e-8)

    @pytest.mark.parametrize("model, alpha, gain_db, harvests1, other", [
        (ModelKind.TWC, (0.5, 0.5), (-100.0, -100.0), (2.0, 5.0, 0.0, 0.0), (0.0, 1.0, 3.0, 0.5)),
        (ModelKind.TWC, (0.9, 0.3), (-101.0, -98.0), (0.5, 4.0, 1.0, 2.0), (6.0, 0.0, 0.2, 2.0)),
        (ModelKind.MAC, (0.5, 0.5), (-100.0, -110.0), (2.0, 5.0, 0.0, 1.0), (1.0, 0.0, 4.0, 0.5)),
        (ModelKind.THC, (0.5, 0.5), (-100.0, -100.0), (4.0, 0.0, 2.0, 6.0), (0.0, 3.0, 1.0, 0.5)),
        # a_1 = 0: node 1's level is flat past the kink at its relay's power
        (ModelKind.THC, (0.0, 0.5), (-100.0, -100.0), (1.0, 0.5, 4.0, 0.0), (2.0, 1.0, 3.0, 1.0)),
        # every slot's budget equals its capacity, and so does the pool's
        (ModelKind.THC, (0.0, 0.5), (-100.0, -100.0), (2.0, 1.0, 3.0, 0.5), (2.0, 1.0, 3.0, 0.5)),
        # a budget above the capacity by less than the solver's energy tolerance
        (ModelKind.THC, (0.0, 0.5), (-100.0, -100.0), (2.0 + 5e-12, 1.0, 3.0, 0.5),
         (2.0, 1.0, 3.0, 0.5)),
        # capped slots carry their surplus on, past the capped pool [0, 1]
        (ModelKind.THC, (0.0, 0.5), (-100.0, -100.0), (3.0, 0.0, 10.0, 0.0), (2.0, 0.5, 20.0, 1.0)),
    ])
    def test_pool_levels(self, model, alpha, gain_db, harvests1, other):
        sc = make_scenario(model=model, alpha=alpha, gain_db=gain_db,
                           harvests=(harvests1, (1.0,) * len(harvests1)))
        assert_directional_water_filling(1, np.array(other), sc)

    def test_pool_levels_random(self):
        rng = np.random.default_rng(59)
        for model in ModelKind:
            for _ in range(10):
                sc = random_scenario(rng, model)
                other = rng.uniform(0, 0.2, size=sc.n_slots)
                assert_directional_water_filling(int(rng.integers(1, 3)), other, sc)


class TestStaircase:
    def test_infinite(self):
        assert np.allclose(staircase([2, 5, 0, 0], INFINITE), 1.75, atol=1e-12)

    def test_cap_not_binding(self):
        assert np.allclose(staircase([8, 0], 5.0), [4, 4], atol=1e-12)

    def test_cap_forces_drain(self):
        assert np.allclose(staircase([8, 0], 3.0), [5, 3], atol=1e-12)

    def test_nondecreasing_and_balanced(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            agg = rng.uniform(0, 4, size=6)
            out = staircase(agg, INFINITE)
            assert np.all(np.diff(out) >= -1e-10)
            cum = np.cumsum(out)
            assert np.all(cum <= np.cumsum(agg) + 1e-9)
            assert cum[-1] == pytest.approx(np.sum(agg), abs=1e-8)


class TestMacReduce:
    def test_equal_channels(self):
        sc = make_scenario(model=ModelKind.MAC, alpha=(0.1, 0.1))
        red = mac_reduce(sc)
        assert red.alpha_star == pytest.approx((1.0, 1.0))
        assert np.allclose(red.aggregate, sc.harvests[0] + sc.harvests[1])

    def test_gain_gap(self):
        sc = make_scenario(model=ModelKind.MAC, gain_db=(-100.0, -110.0), alpha=(0.5, 0.5))
        red = mac_reduce(sc)
        assert red.alpha_star == pytest.approx((1.0, 5.0))

    def test_silent_node(self):
        sc = make_scenario(model=ModelKind.MAC, harvests=((1.0, 2.0), (0.0, 0.0)))
        red = mac_reduce(sc)
        assert np.allclose(red.aggregate, red.alpha_star[0] * sc.harvests[0])


class TestBcdSolve:
    def test_zero_harvests(self):
        sc = make_scenario(harvests=((0.0, 0.0), (0.0, 0.0)))
        rep = bcd_solve(sc)
        assert rep.objective_nats == 0.0

    def test_report_invariants(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            sc = random_scenario(rng, ModelKind.TWC)
            rep = bcd_solve(sc)
            assert check_feasible(rep.transmit, sc).feasible
            assert check_procrastinating(rep.transmit, sc)
            assert rep.objective_nats == pytest.approx(
                objective(rep.transmit, sc), abs=1e-10)
            assert np.all(np.diff(rep.objective_trace) >= -1e-12)
            assert rep.level_residual <= 1e-7

    def test_mode_nesting(self):
        rng = np.random.default_rng(41)
        for model in (ModelKind.TWC, ModelKind.THC):
            sc = random_scenario(rng, model)
            vals = {m: solve(sc, m).objective_nats for m in CooperationMode}
            bi = vals[CooperationMode.BIDIRECTIONAL]
            none = vals[CooperationMode.NO_COOPERATION]
            for uni in (CooperationMode.UNI_1_TO_2, CooperationMode.UNI_2_TO_1):
                assert bi >= vals[uni] - 1e-9
                assert vals[uni] >= none - 1e-9


class TestThcSolve:
    def test_uni_directional_restriction(self):
        sc = make_scenario(model=ModelKind.THC, alpha=(0.5, 0.0),
                           harvests=((4.0, 0.0, 2.0, 6.0), (0.0, 3.0, 0.0, 0.0)))
        rep = thc_solve(sc)
        w1, w2 = sc.effective_noise_mw[1], sc.effective_noise_mw[0]
        pb = rep.policy.consumed
        assert np.all(w1 * pb[0] >= w2 * pb[1] - 1e-9)
        # the relay's consumption moves later than its harvest profile
        assert pb[1, 2] > 0

    def test_zero_harvests(self):
        sc = make_scenario(model=ModelKind.THC, harvests=((0.0, 0.0), (0.0, 0.0)))
        assert thc_solve(sc).objective_nats == 0.0


class TestMacSolve:
    def test_silent_node_reduces_to_staircase(self):
        sc = make_scenario(model=ModelKind.MAC, alpha=(0.1, 0.1),
                           harvests=((2.0, 5.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)))
        rep = mac_solve(sc)
        assert np.allclose(rep.policy.consumed[0], 1.75, atol=1e-8)
        assert np.allclose(rep.policy.consumed[1], 0.0, atol=1e-12)

    def test_matches_direct_bcd(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            sc = random_scenario(rng, ModelKind.MAC)
            via_reduction = mac_solve(sc).objective_nats
            direct = bcd_solve(sc).objective_nats
            assert via_reduction == pytest.approx(direct, rel=1e-6, abs=1e-9)

    def test_rejects_finite_capacity(self):
        sc = make_scenario(model=ModelKind.MAC, capacity=(5.0, INFINITE))
        with pytest.raises(InputError, match="INFINITE"):
            mac_solve(sc)


class TestDwfFinite:
    def test_loose_caps_match_infinite(self):
        rng = np.random.default_rng(47)
        for model in ModelKind:
            sc = random_scenario(rng, model)
            total = float(np.sum(sc.harvests))
            loose = make_scenario(model=model, harvests=sc.harvests,
                                  capacity=(total + 1, total + 1),
                                  alpha=tuple(sc.transfer_efficiency),
                                  gain_db=tuple(sc.channel_gain_db))
            fin = dwf_finite(loose)
            inf = solve(sc)
            assert fin.objective_nats == pytest.approx(inf.objective_nats, abs=1e-8)

    def test_output_invariants(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            sc = random_scenario(rng, ModelKind.TWC, finite=True)
            rep = dwf_finite(sc)
            assert check_feasible(rep.transmit, sc).feasible
            assert check_partially_procrastinating(rep.policy, sc)

    def test_requires_finite_capacity_path(self):
        sc = make_scenario(capacity=(3.0, 3.0))
        rep = solve(sc)
        assert check_feasible(rep.transmit, sc).feasible


class TestSolveDispatch:
    def test_infinite_twc_uses_bcd(self):
        sc = make_scenario()
        assert solve(sc).objective_nats == pytest.approx(bcd_solve(sc).objective_nats)

    def test_mode_none_disables_transfers(self):
        sc = make_scenario()
        rep = solve(sc, CooperationMode.NO_COOPERATION)
        assert np.all(rep.transmit.delta == 0)
