import math

import numpy as np
import pytest

from conftest import finite_dwf_entry_126, make_scenario, random_scenario
from ehcoop.model import (
    INFINITE,
    InputError,
    ModelKind,
    TransferPolicy,
    check_feasible,
    check_partially_procrastinating,
    check_procrastinating,
    objective,
)
from ehcoop import transfer, waterfill
from ehcoop.transfer import level_at, level_pieces, slot_transfer
from ehcoop.waterfill import (
    CooperationMode,
    _dwf_bounded,
    _dwf_full,
    _dwf_single,
    _joint_polish,
    _relevel,
    _slot_levels,
    _solve_pool,
    effective_scenario,
    bcd_solve,
    dwf_finite,
    mac_solve,
    solve,
    staircase,
)


def inf_bcd_entry_5():
    """Default-seed inf-bcd benchmark entry 5, a THC scenario run in uni12 mode."""
    return make_scenario(
        model=ModelKind.THC, alpha=(0.851707535743012, 0.39750446577192267),
        gain_db=(-101.08019059423032, -101.13770443240817),
        harvests=((8.934024143000807, 2.110462928971449, 8.774747788063266,
                   2.5366749042111914),
                  (2.060685001538436, 7.392458420226436, 0.6774147636666639,
                   8.131790738474313)))


def inf_bcd_entry_23():
    """Default-seed inf-bcd benchmark entry 23, a THC scenario run in none mode."""
    return make_scenario(
        model=ModelKind.THC, alpha=(0.7692666447701804, 0.3630294140245333),
        gain_db=(-98.02896131673185, -100.31856592572268),
        harvests=((0.3572421648657198, 8.439327591470251, 1.9101087446850185,
                   3.2043590759632536),
                  (8.15396026201534, 5.3620025410675245, 4.624785695576998,
                   3.040522032383385)))


def thc_taut_string_policy(sc):
    """The no-transfer THC optimum: both hops carry the same SNR z, and
    cumsum(z) <= min(cumsum(E1)/n1, cumsum(E2)/n2), so z is the taut string
    under that curve, with p_k = n_k*z."""
    n = sc.effective_noise_mw[:, None]
    reach = np.min(np.cumsum(sc.harvests, axis=1) / n, axis=0)
    z = staircase(np.diff(reach, prepend=0.0), INFINITE)
    return TransferPolicy(p=n * z, delta=np.zeros((2, sc.n_slots)))


def dwf_node(k, other, sc):
    """Node k's consumed powers from the infinite-battery water-fill, with
    the other node's held at `other` (unit slots)."""
    return _dwf_single(sc.harvests[k - 1], _slot_levels(sc.model_kind, k, other, sc))


def single_node_sc(harvests1, model=ModelKind.TWC):
    zeros = tuple(0.0 for _ in harvests1)
    return make_scenario(model=model, harvests=(tuple(harvests1), zeros), alpha=(0.0, 0.0))


def assert_directional_water_filling(k, other, sc):
    """Node k's water-filled powers use the whole budget causally, and their
    levels are equal within each pool (run of slots ending with an empty
    battery) and non-decreasing across pools; an idle slot starts at or
    above its pool's level.  A level at a jump is the interval between its
    limits, so a common selection must exist."""
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
        out = dwf_node(1, np.zeros(4), sc)
        assert np.allclose(out, 1.75, atol=1e-9)

    def test_two_slot_split(self):
        sc = single_node_sc([5.0, 0.0])
        out = dwf_node(1, np.zeros(2), sc)
        assert np.allclose(out, [2.5, 2.5], atol=1e-9)

    def test_no_backward_flow(self):
        sc = single_node_sc([0.0, 5.0])
        out = dwf_node(1, np.zeros(2), sc)
        assert np.allclose(out, [0.0, 5.0], atol=1e-9)

    def test_energy_balance(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            sc = random_scenario(rng, ModelKind.TWC)
            other = rng.uniform(0, 0.2, size=sc.n_slots)
            out = dwf_node(1, other, sc)
            cum = np.cumsum(out)
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
        # a finite battery keeps cumulative consumption within [U - c, U]
        for _ in range(50):
            agg = rng.uniform(0, 4, size=6) * (rng.random(6) < 0.7)
            cap = rng.uniform(0.2, 6)
            cum, upper = np.cumsum(staircase(agg, cap)), np.cumsum(agg)
            assert np.all(cum <= upper + 1e-9)
            assert np.all(cum >= upper - cap - 1e-9)
            assert cum[-1] == pytest.approx(upper[-1], abs=1e-8)

    @pytest.mark.parametrize("capacity", [-1.0, 0.0, math.nan])
    def test_rejects_bad_capacity(self, capacity):
        with pytest.raises(InputError, match="capacity"):
            staircase([1.0, 2.0, 0.5], capacity)

    @pytest.mark.parametrize("arrivals, capacity", [([1e-12, 3.0, 0.0], 0.5),
                                                    ([1e-13, 0.0, 0.0], INFINITE)])
    def test_consumes_sub_tolerance_arrivals(self, arrivals, capacity):
        assert staircase(arrivals, capacity).sum() == pytest.approx(sum(arrivals), abs=1e-15)


class TestSolvePool:
    def test_all_flat_pool_returns_budget_as_surplus(self):
        # two-hop node 1 with a1 = 0 and the other node silent: every slot's
        # level is flat from zero, so the pool has no knots
        sc = make_scenario(model=ModelKind.THC, alpha=(0.0, 0.5))
        levels = _slot_levels(ModelKind.THC, 1, [0.0, 0.0], sc)
        assert _solve_pool([0, 1], levels, 5e-12) == ([0.0, 0.0], math.inf, 5e-12)


class TestMacGains:
    def test_equal_channels_pool_plain_energy(self):
        sc = make_scenario(model=ModelKind.MAC, alpha=(0.1, 0.1))
        assert transfer.mac_gains(sc) == pytest.approx((1.0, 1.0))

    def test_weak_user_pools_at_its_transfer_gain(self):
        # user 2's channel is 10 dB weaker, so it sends: g = (c1, a2*c1) =
        # (1, 0.5), and the pooled arrivals [2, 7, 0, 3.5] level out to
        # [2, 3.5, 3.5, 3.5] SNR per slot
        sc = make_scenario(model=ModelKind.MAC, gain_db=(-100.0, -110.0), alpha=(0.5, 0.5))
        assert transfer.mac_sends(sc) == (False, True)
        assert transfer.mac_gains(sc) == pytest.approx((1.0, 0.5))
        expected = 0.5 * (math.log(3.0) + 3 * math.log(4.5))
        assert mac_solve(sc).objective_nats == pytest.approx(expected, rel=1e-12)


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
        rep = bcd_solve(sc)
        w1, w2 = sc.effective_noise_mw[1], sc.effective_noise_mw[0]
        pb = rep.policy.consumed
        assert np.all(w1 * pb[0] >= w2 * pb[1] - 1e-9)
        # the relay's consumption moves later than its harvest profile
        assert pb[1, 2] > 0

    def test_zero_harvests(self):
        sc = make_scenario(model=ModelKind.THC, harvests=((0.0, 0.0), (0.0, 0.0)))
        assert bcd_solve(sc).objective_nats == 0.0

    def test_bcd_solve_refines_two_hop(self):
        # alternating node solves alone stall at 3.10042 nats, below the
        # combined-flow refinement
        sc = inf_bcd_entry_5()
        mode = CooperationMode.UNI_1_TO_2
        rep = bcd_solve(sc, mode)
        assert rep.objective_nats == solve(sc, mode).objective_nats
        assert rep.objective_nats > 3.10042 + 1e-3

    def test_taut_string_reference_is_feasible(self):
        sc = inf_bcd_entry_23()
        policy = thc_taut_string_policy(sc)
        assert check_feasible(policy, sc).feasible
        assert objective(policy, sc) == pytest.approx(3.219976683840179, abs=1e-12)

    @pytest.mark.xfail(strict=True, reason="THC none mode stalls below the taut "
                                           "string (2.647833020708971 nats)")
    def test_none_mode_reaches_taut_string(self):
        sc = inf_bcd_entry_23()
        reference = objective(thc_taut_string_policy(sc), sc)
        assert solve(sc, CooperationMode.NO_COOPERATION).objective_nats >= reference - 1e-9

    @staticmethod
    def assert_probes_rebuild_two_levels(monkeypatch, sc, mode):
        # each line-search probe of a move between slots i and i+1 rebuilds
        # only those two slot levels, after the N built once per (node, slot)
        ssc = effective_scenario(sc, mode)
        pb = np.array(ssc.harvests)
        for ki in (0, 1):
            _dwf_full(ki, pb, ssc)
        calls = {"level_pieces": 0, "probes": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(transfer, "level_pieces",
                            counted("level_pieces", transfer.level_pieces))
        monkeypatch.setattr(waterfill, "_dwf_full", counted("probes", waterfill._dwf_full))
        assert _joint_polish(pb, ssc)
        n = sc.n_slots
        pairs = 2 * (n - 1)
        assert calls["probes"] > pairs
        assert calls["level_pieces"] <= 2 * calls["probes"] + n * pairs

    def test_polish_probe_rebuilds_two_levels(self, monkeypatch):
        self.assert_probes_rebuild_two_levels(monkeypatch, inf_bcd_entry_5(),
                                              CooperationMode.UNI_1_TO_2)

    def test_finite_polish_probe_rebuilds_two_levels(self, monkeypatch):
        # entry 126's polish takes a backward move
        self.assert_probes_rebuild_two_levels(monkeypatch, finite_dwf_entry_126(),
                                              CooperationMode.UNI_2_TO_1)

    @pytest.mark.parametrize("finite", [False, True])
    def test_prebuilt_levels_match_full_rebuild(self, finite):
        rng = np.random.default_rng(29)
        for _ in range(40):
            sc = random_scenario(rng, ModelKind.THC, finite=finite, n_max=6)
            ssc = sc.with_efficiency(*rng.uniform(0, 1, size=2) * (rng.random(2) < 0.7))
            n = ssc.n_slots
            ki = int(rng.integers(0, 2))
            pb = rng.uniform(0, 0.3, size=(2, n))
            i, m = sorted(rng.choice(n, size=2, replace=False).tolist())
            levels = _slot_levels(ModelKind.THC, ki + 1, pb[1 - ki], ssc)
            t = rng.uniform(0, pb[1 - ki, i])
            pb[1 - ki, i] -= t
            pb[1 - ki, m] += t
            moved, full = pb.copy(), pb.copy()
            _dwf_full(ki, moved, ssc, _relevel(levels, ModelKind.THC, ki + 1,
                                               pb[1 - ki], (i, m), ssc))
            _dwf_full(ki, full, ssc)
            assert np.array_equal(moved, full)


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


# finite-dwf benchmark entries (seed 206 entry 116, seed 6 entry 143, seed 37
# entry 107), and the objectives a pairwise slot-to-slot flow stalled at, with
# level residuals of 0.161, 0.164 and 0.048: it could not move energy across a
# slot that consumes nothing
MAC_FINITE_STALLS = [
    (CooperationMode.BIDIRECTIONAL,
     ((5.100884535815556, 1.313240468160869, 2.5522032197791766, 1.4778230668748227),
      (6.775963789064452, 9.76448590103164, 1.6379497168867818, 0.4104619208607152)),
     (5.052466721546681, 4.621718085261576), (0.6327986506795467, 0.7233126417695264),
     (-98.18625224212595, -97.54233222096204), 5.1470529987237015),
    (CooperationMode.NO_COOPERATION,
     ((6.958455413523225, 0.7862448720734161, 0.44462472494048444, 1.7139482905153636),
      (3.892077783722949, 8.576341110283101, 0.02853921039212004, 4.256118516618885)),
     (5.46574039423654, 4.411797584089542), (0.7066071796142515, 0.6038244001565495),
     (-99.60779541013389, -97.38835238017009), 4.853630316013343),
    (CooperationMode.NO_COOPERATION,
     ((5.148551977302175, 9.330159261789149, 1.050421886035534, 9.417383300688101),
      (9.523075567711142, 0.38452662799677295, 0.4791795203210336, 7.766314603488098)),
     (5.098690168539501, 6.7731732553394774), (0.48443947819814637, 0.5387266545701253),
     (-100.1123203117403, -99.4906484771051), 4.91391481743778),
]


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

    @pytest.mark.parametrize("mode, harvests, capacity, alpha, gain_db, stalled",
                             MAC_FINITE_STALLS)
    def test_mac_energy_crosses_idle_slots(self, mode, harvests, capacity, alpha,
                                           gain_db, stalled):
        sc = make_scenario(model=ModelKind.MAC, harvests=harvests, capacity=capacity,
                           alpha=alpha, gain_db=gain_db)
        rep = dwf_finite(sc, mode)
        assert rep.converged
        assert check_feasible(rep.transmit, sc).feasible
        assert rep.level_residual <= 1e-7
        assert rep.objective_nats > stalled

    def test_thc_backward_move(self):
        # a forward-only polish stalls at 2.7192087064177644 nats and still
        # reports convergence with residual 0
        sc = finite_dwf_entry_126()
        rep = solve(sc, CooperationMode.UNI_2_TO_1)
        assert rep.converged
        assert rep.objective_nats >= 2.7195894555621885 - 1e-9

    def test_requires_finite_capacity_path(self):
        sc = make_scenario(capacity=(3.0, 3.0))
        rep = solve(sc)
        assert check_feasible(rep.transmit, sc).feasible


class TestDwfBounded:
    @pytest.mark.parametrize("capacity, expected", [(10.0, (2.0, 0.0, 2.0)),
                                                    (1.5, (2.5, 0.0, 1.5))])
    def test_energy_crosses_an_idle_slot(self, capacity, expected):
        # MAC levels 1 + q + x: the other node's power q = 5 keeps slot 1
        # idle, and slot 0's energy must pass it to reach slot 2
        sc = make_scenario(model=ModelKind.MAC, alpha=(0.0, 0.0),
                           harvests=((1.0,) * 3, (1.0,) * 3))
        levels = _slot_levels(ModelKind.MAC, 1, [0.0, 5.0, 0.0], sc)
        out = _dwf_bounded(np.array([4.0, 0.0, 0.0]), capacity, levels)
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_random_against_scipy(self, model):
        """Consumption stays between the battery bounds and uses every
        arrival; without a flat direction no solver of the concave node
        problem does better."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(67)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            alpha = rng.uniform(0.3, 0.9, size=2)
            if rng.random() < 0.5:
                alpha[rng.integers(0, 2)] = 0.0
            sc = make_scenario(model=model, harvests=np.ones((2, n)), alpha=tuple(alpha),
                               gain_db=tuple(rng.uniform(-102, -97, size=2)))
            k = int(rng.integers(1, 3))
            other = rng.uniform(0, 6, size=n) * (rng.random(n) < 0.7)
            arrivals = rng.uniform(0, 10, size=n) * (rng.random(n) < 0.8)
            capacity = rng.uniform(1, 12)
            levels = _slot_levels(model, k, other, sc)
            p = _dwf_bounded(arrivals, capacity, levels)
            upper = np.cumsum(arrivals)
            cum = np.cumsum(p)
            assert np.all(p >= -1e-9)
            assert np.all(cum <= upper + 1e-9)
            assert np.all(cum >= upper - capacity - 1e-9)
            assert cum[-1] == pytest.approx(upper[-1], abs=1e-9)
            if any(math.isfinite(lev.cap) for lev in levels):
                continue

            def value(x):
                own = np.maximum(x, 0.0)
                pairs = zip(own, other) if k == 1 else zip(other, own)
                return sum(slot_transfer(model, p1, p2, sc).rate_nats for p1, p2 in pairs)

            tril = np.tril(np.ones((n, n)))
            # the last upper bound is the equality, so it is left out
            cons = [{"type": "ineq", "fun": lambda x: (upper - tril @ x)[:-1]},
                    {"type": "ineq", "fun": lambda x: (tril @ x - upper + capacity)[:-1]},
                    {"type": "eq", "fun": lambda x: np.array([x.sum() - upper[-1]])}]
            ref = optimize.minimize(lambda x: -value(x), arrivals, method="SLSQP",
                                    bounds=[(0.0, None)] * n, constraints=cons,
                                    options={"ftol": 1e-13, "maxiter": 500})
            assert ref.success
            assert value(p) >= -ref.fun - 1e-9


class TestSolveDispatch:
    def test_infinite_twc_uses_bcd(self):
        sc = make_scenario()
        assert solve(sc).objective_nats == pytest.approx(bcd_solve(sc).objective_nats)

    def test_mode_none_disables_transfers(self):
        sc = make_scenario()
        rep = solve(sc, CooperationMode.NO_COOPERATION)
        assert np.all(rep.transmit.delta == 0)
