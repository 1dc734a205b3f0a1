import bisect
import dataclasses
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
from ehcoop.transfer import SlotLevel, level_pieces, slot_transfer
from ehcoop.waterfill import (
    CooperationMode,
    _capacity_objective,
    _dwf_bounded,
    _joint_polish,
    _Node,
    _Pool,
    effective_scenario,
    bcd_solve,
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


def inf_bcd_entry_36():
    """Default-seed inf-bcd benchmark entry 36, a THC scenario run in bi mode."""
    return make_scenario(
        model=ModelKind.THC, alpha=(0.8392835258788218, 0.6424294094899926),
        gain_db=(-100.2245840289145, -99.11422083505497),
        harvests=((6.67709585335655, 7.131434629413812, 0.23626768374665263,
                   3.0562069073112594),
                  (3.9372301994895356, 2.735494564962085, 7.250880557084316,
                   8.001262892953129)))


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


def slot_levels(model, k, other, sc):
    """Node k's slot levels against the other node's powers `other`."""
    return [SlotLevel(level_pieces(model, k, q, sc)) for q in np.asarray(other, float).tolist()]


def dwf_node(k, other, sc):
    """Node k's consumed powers from the infinite-battery water-fill, with
    the other node's held at `other` (unit slots)."""
    return _dwf_bounded(sc.harvests[k - 1], INFINITE, slot_levels(sc.model_kind, k, other, sc), [])


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
        level = max([prev] + [SlotLevel(pieces[i]).at(p[i] * (1 - 1e-9)) for i in busy])
        assert level <= min(SlotLevel(pieces[i]).at(p[i] * (1 + 1e-9)) for i in busy) * (1 + 1e-9)
        for i in set(pool) - set(busy):
            assert SlotLevel(pieces[i]).at(0.0) >= level * (1 - 1e-9)
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

    @pytest.mark.parametrize("arrivals", [[1.0, math.nan, 0.5], [1.0, math.inf, 0.5],
                                          [[1.0, 2.0], [0.5, 0.0]], []])
    def test_rejects_bad_arrivals(self, arrivals):
        # NaN and inf arrivals raised ZeroDivisionError; 2-D and empty ones
        # IndexError
        with pytest.raises(InputError, match="aggregate arrivals"):
            staircase(arrivals, INFINITE)

    @pytest.mark.parametrize("arrivals, capacity", [([1e-12, 3.0, 0.0], 0.5),
                                                    ([1e-13, 0.0, 0.0], INFINITE)])
    def test_consumes_sub_tolerance_arrivals(self, arrivals, capacity):
        assert staircase(arrivals, capacity).sum() == pytest.approx(sum(arrivals), abs=1e-15)


def generic_pool(pool, budget):
    """The pool solve before knot fills and shared pools: every call merges
    and sorts its knots from the level rows and re-sums the pool's inverse at
    each knot it probes."""
    if budget <= 0:
        return [0.0] * len(pool), 0.0, 0.0
    caps = [lev.cap for lev in pool]
    cap_total = sum(caps)
    if cap_total < budget - waterfill.ENERGY_TOL or cap_total == 0:
        return caps, math.inf, budget - cap_total

    def fill(level):
        return sum(lev.inv(level) for lev in pool)

    knots = sorted({x for lev in pool for _, slope, icpt, end, low in lev.rows
                    if math.isfinite(icpt) for x in (low, slope * end + icpt)
                    if math.isfinite(x)})
    i = bisect.bisect_left(knots, budget, key=fill)
    if i < len(knots):
        lo, hi = knots[i - 1], knots[i]
        level = lo + (budget - fill(lo)) * (hi - lo) / (fill(hi) - fill(lo))
    else:
        level = knots[-1]
        rise = sum(1.0 / lev.rows[-1][1] for lev in pool if math.isinf(lev.cap))
        if rise > 0:
            level += (budget - fill(level)) / rise
    return [lev.inv(level) for lev in pool], level, 0.0


def generic_segment(levels, budget):
    """Rank and powers of the segment over `levels` holding `budget`, from
    generic_pool: its level, or (inf, surplus per slot) with the surplus
    spread evenly over the slots' caps."""
    powers, level, surplus = generic_pool(levels, budget)
    if surplus > 0:
        spread = surplus / len(powers)
        return (math.inf, spread), [p + spread for p in powers]
    return (level, 0.0), powers


def pool_result(pool, budget):
    """A whole pool's rank and powers, as generic_segment gives them."""
    rank = pool.solve(budget)
    return rank, pool.fill(len(pool.levels), rank)


def generic_dwf_bounded(arrivals, capacity, levels):
    """_dwf_bounded with a separate generic_pool for each segment to U and
    to L."""
    def segment(slots, budget):
        return generic_segment([levels[i] for i in slots], budget)

    upper = np.cumsum(arrivals)
    lower = upper - capacity
    lower[-1] = upper[-1]
    upper, lower = upper.tolist(), lower.tolist()
    n = len(upper)
    out = np.zeros(n)
    i0, b0 = 0, 0.0
    while i0 < n:
        hi = lo = None
        for j in range(i0 + 1, n + 1):
            up = (*segment(range(i0, j), upper[j - 1] - b0), j)
            down = up if j == n else (*segment(range(i0, j), lower[j - 1] - b0), j)
            if hi is not None and down[0] > hi[0]:
                pivot, b0 = hi, upper[hi[2] - 1]
                break
            if lo is not None and lo[0] > up[0]:
                pivot, b0 = lo, lower[lo[2] - 1]
                break
            if hi is None or up[0] < hi[0]:
                hi = up
            if lo is None or down[0] > lo[0]:
                lo = down
        else:
            pivot = up
        _, powers, end = pivot
        out[i0:end] = powers
        i0 = end
    return out


def random_levels(rng, model, n):
    """Slot levels of a random node against random other-node powers, with
    alpha = 0 on either side in some draws (the two-hop flat directions)."""
    sc = random_scenario(rng, model)
    sc = sc.with_efficiency(*(sc.transfer_efficiency * (rng.random(2) < 0.7)))
    other = rng.uniform(0, 0.3, size=n) * (rng.random(n) < 0.8)
    return slot_levels(model, int(rng.integers(1, 3)), other, sc)


class TestSolvePool:
    def test_all_flat_pool_returns_budget_as_surplus(self):
        # two-hop node 1 with a1 = 0 and the other node silent: every slot's
        # level is flat from zero, so the pool has no knots
        sc = make_scenario(model=ModelKind.THC, alpha=(0.0, 0.5))
        levels = slot_levels(ModelKind.THC, 1, [0.0, 0.0], sc)
        assert pool_result(_Pool(levels), 5e-12) == ((math.inf, 2.5e-12), [2.5e-12] * 2)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_knot_fills_are_the_inverse_at_each_knot(self, model):
        rng = np.random.default_rng(211 + list(ModelKind).index(model))
        for lev in random_levels(rng, model, 200):
            assert lev.knots == sorted(set(lev.knots))

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_pools_equal_the_generic_pool_bit_for_bit(self, model):
        # pools share their knot totals across budgets, which may not change
        # a bit
        rng = np.random.default_rng(223 + list(ModelKind).index(model))
        for _ in range(60):
            levels = random_levels(rng, model, int(rng.integers(1, 6)))
            pool = _Pool(levels)
            budgets = rng.uniform(0, 1.5, size=6).tolist() + [0.0, 1e-12]
            budgets += [lev.inv(x) for lev in levels for x in lev.knots]  # on a knot
            for budget in budgets:
                assert pool_result(pool, budget) == generic_segment(levels, budget)

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_grown_pool_equals_a_fresh_pool_bit_for_bit(self, model):
        # solves between additions leave knot totals counted over fewer
        # slots, which later solves must extend in slot order
        rng = np.random.default_rng(233 + list(ModelKind).index(model))
        for _ in range(60):
            levels = random_levels(rng, model, int(rng.integers(2, 8)))
            grown = _Pool()
            for k, lev in enumerate(levels, 1):
                grown.add(lev)
                fresh = _Pool(levels[:k])
                budgets = rng.uniform(0, 0.4 * k, size=3).tolist()
                budgets += [lev.inv(x) for lev in levels[:k] for x in lev.knots][:4]
                for budget in budgets:
                    assert pool_result(grown, budget) == pool_result(fresh, budget)
                assert grown.knots == fresh.knots

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_dwf_bounded_equals_separate_pools_bit_for_bit(self, model):
        rng = np.random.default_rng(227 + list(ModelKind).index(model))
        for _ in range(60):
            n = int(rng.integers(1, 7))
            levels = random_levels(rng, model, n)
            arrivals = rng.uniform(0, 0.4, size=n) * (rng.random(n) < 0.8)
            capacity = rng.uniform(0.05, 1.0) if rng.random() < 0.8 else INFINITE
            assert np.array_equal(_dwf_bounded(arrivals, capacity, levels, []),
                                  generic_dwf_bounded(arrivals, capacity, levels))

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_capacity_objective_is_the_slot_sum(self, model):
        rng = np.random.default_rng(229 + list(ModelKind).index(model))
        for _ in range(40):
            sc = random_scenario(rng, model)
            sc = sc.with_efficiency(*(sc.transfer_efficiency * (rng.random(2) < 0.7)))
            pb = rng.uniform(0, 0.3, size=(2, sc.n_slots)) * (rng.random((2, sc.n_slots)) < 0.8)
            total = 0.0
            for i in range(sc.n_slots):
                total += slot_transfer(model, pb[0, i], pb[1, i], sc).rate_nats
            assert _capacity_objective(model, pb, sc) == total


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

    @pytest.mark.parametrize("finite", [False, True])
    def test_prebuilt_levels_match_full_rebuild(self, finite):
        # a node that keeps its levels across a two-slot move of the other
        # node's power solves as a node built from scratch
        rng = np.random.default_rng(29)
        for _ in range(40):
            sc = random_scenario(rng, ModelKind.THC, finite=finite, n_max=6)
            ssc = sc.with_efficiency(*rng.uniform(0, 1, size=2) * (rng.random(2) < 0.7))
            n = ssc.n_slots
            ki = int(rng.integers(0, 2))
            pb = rng.uniform(0, 0.3, size=(2, n))
            node = _Node(ki, ssc)
            node.solve(pb)
            i, m = sorted(rng.choice(n, size=2, replace=False).tolist())
            t = rng.uniform(0, pb[1 - ki, i])
            pb[1 - ki, i] -= t
            pb[1 - ki, m] += t
            moved, full = pb.copy(), pb.copy()
            node.solve(moved)
            _Node(ki, ssc).solve(full)
            assert np.array_equal(moved, full)

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

    def test_none_mode_reaches_taut_string(self):
        # the pool-merge water-fill stalled here at 2.647833020708971 nats
        sc = inf_bcd_entry_23()
        reference = objective(thc_taut_string_policy(sc), sc)
        assert solve(sc, CooperationMode.NO_COOPERATION).objective_nats >= reference - 1e-9

    def test_random_none_mode_is_the_taut_string_and_modes_nest(self):
        # the pool-merge water-fill ended below the taut string, and broke
        # bi >= uni >= none, on dozens of these draws
        rng = np.random.default_rng(59)
        for _ in range(100):
            sc = random_scenario(rng, ModelKind.THC, n_max=6)
            reference = objective(thc_taut_string_policy(sc), sc)
            vals = {m: solve(sc, m).objective_nats for m in CooperationMode}
            none = vals[CooperationMode.NO_COOPERATION]
            assert none == pytest.approx(reference, rel=1e-9, abs=1e-12)
            for uni in (CooperationMode.UNI_1_TO_2, CooperationMode.UNI_2_TO_1):
                assert vals[uni] >= reference - 1e-9
                assert vals[uni] >= none - 1e-9
                assert vals[CooperationMode.BIDIRECTIONAL] >= vals[uni] - 1e-9

    def test_polish_is_not_retried_where_it_failed(self, monkeypatch):
        # the node solves settle after one round; the polish finds nothing
        # there, and the next round's node solves return within 1e-10 of it
        sc = make_scenario(
            model=ModelKind.THC, alpha=(0.3673537390903534, 0.7992763514812304),
            gain_db=(-97.73122672858605, -98.52362314531442),
            harvests=((9.180475409996028, 8.605109461151896, 9.03713470566495),
                      (7.955237307033812, 1.9420096873733705, 3.0095810994642305)))
        calls = []
        polish = waterfill._joint_polish
        monkeypatch.setattr(waterfill, "_joint_polish",
                            lambda pb, ssc, nodes: calls.append(pb) or polish(pb, ssc, nodes))
        rep = bcd_solve(sc)
        assert rep.converged and rep.bcd_iterations == 2
        assert len(calls) == 1

    @staticmethod
    def count_polishes(monkeypatch):
        calls = []
        polish = waterfill._joint_polish
        monkeypatch.setattr(waterfill, "_joint_polish",
                            lambda pb, ssc, nodes: calls.append(1) or polish(pb, ssc, nodes))
        return calls

    def test_each_pass_polishes_once_but_the_last(self, monkeypatch):
        # every pass runs its node solves and then one polish sweep; the pass
        # that stops the loop runs no polish
        calls = self.count_polishes(monkeypatch)
        rep = bcd_solve(inf_bcd_entry_36())
        assert rep.converged and rep.bcd_iterations == 6
        assert len(calls) == rep.bcd_iterations - 1 == 5

    def test_pass_budget_bounds_the_polish_sweeps(self, monkeypatch):
        # one pass is one polish sweep, however much that sweep improved
        monkeypatch.setattr(waterfill, "MAX_PASSES", 1)
        calls = self.count_polishes(monkeypatch)
        rep = bcd_solve(inf_bcd_entry_36())
        assert not rep.converged and rep.bcd_iterations == 1
        assert len(calls) == 1

    @staticmethod
    def assert_probes_rebuild_two_levels(monkeypatch, sc, mode):
        # each line-search probe of a move between slots i and i+1 rebuilds
        # only those two slot levels, and each (node, slot) pair at most two
        # more, where an accepted move or the other node's re-solve left them
        ssc = effective_scenario(sc, mode)
        pb = np.array(ssc.harvests)
        nodes = (_Node(0, ssc), _Node(1, ssc))
        for node in nodes:
            node.solve(pb)
        calls = {"level_pieces": 0, "probes": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(transfer, "level_pieces",
                            counted("level_pieces", transfer.level_pieces))
        monkeypatch.setattr(_Node, "solve", counted("probes", _Node.solve))
        assert _joint_polish(pb, ssc, nodes)
        pairs = 2 * (sc.n_slots - 1)
        assert calls["probes"] > pairs
        assert calls["level_pieces"] <= 2 * calls["probes"] + 2 * pairs

    def test_polish_probe_rebuilds_two_levels(self, monkeypatch):
        self.assert_probes_rebuild_two_levels(monkeypatch, inf_bcd_entry_5(),
                                              CooperationMode.UNI_1_TO_2)

    def test_finite_polish_probe_rebuilds_two_levels(self, monkeypatch):
        # entry 126's polish takes a backward move
        self.assert_probes_rebuild_two_levels(monkeypatch, finite_dwf_entry_126(),
                                              CooperationMode.UNI_2_TO_1)

    def test_polish_leaves_the_loop_its_pivots(self, monkeypatch):
        # the probes refill from the nodes' pivot lists, but the loop goes on
        # from the ones it had: a probe's string can tie with the loop's and
        # round the powers differently
        changed = []
        polish = waterfill._joint_polish

        def wrapped(pb, ssc, nodes):
            kept = [list(node.pivots) for node in nodes]
            improved = polish(pb, ssc, nodes)
            changed.append([node.pivots for node in nodes] != kept)
            return improved

        monkeypatch.setattr(waterfill, "_joint_polish", wrapped)
        solve(inf_bcd_entry_5(), CooperationMode.UNI_1_TO_2)
        assert changed == [False, False]

    @pytest.mark.parametrize("entry, mode, most", [
        (inf_bcd_entry_5, CooperationMode.UNI_1_TO_2, 130),
        (finite_dwf_entry_126, CooperationMode.UNI_2_TO_1, 125),
    ])
    def test_polish_node_solves_stay_few(self, monkeypatch, entry, mode, most):
        # 110 and 118 node solves; a two-probe screen and 48-probe
        # golden-section searches took 304 and 240, and Brent searches that
        # always bracketed the maximum to 1e-10*tmax 192 and 137
        calls = []
        full = _Node.solve
        monkeypatch.setattr(_Node, "solve", lambda node, pb: calls.append(1) or full(node, pb))
        assert solve(entry(), mode).converged
        assert len(calls) <= most


class TestNode:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_levels_match_a_fresh_build(self, model):
        # a node rebuilds a slot level only where the other node's power
        # moved, and what it keeps is what a fresh build gives
        rng = np.random.default_rng(29 + list(ModelKind).index(model))
        for _ in range(40):
            sc = random_scenario(rng, model, finite=bool(rng.random() < 0.5), n_max=6)
            ssc = sc.with_efficiency(*rng.uniform(0, 1, size=2) * (rng.random(2) < 0.7))
            n, ki = ssc.n_slots, int(rng.integers(0, 2))
            node = _Node(ki, ssc)
            pb = rng.uniform(0, 0.3, size=(2, n)) * (rng.random((2, n)) < 0.8)
            for _ in range(6):
                node.slot_levels(pb)
                before = pb[1 - ki].tolist()
                # a polish move between two slots, one slot redrawn, or a
                # move of the node's own row, which changes none of its levels
                kind = rng.integers(0, 3)
                row = pb[ki] if kind == 2 else pb[1 - ki]
                i, m = rng.choice(n, size=2).tolist()
                t = rng.uniform(0, row[i])
                row[i] -= t
                row[m] += t
                if kind == 1:
                    row[i] = rng.uniform(0, 0.3)
                rebuilt = sum(a != b for a, b in zip(before, pb[1 - ki].tolist()))
                with pytest.MonkeyPatch.context() as mp:
                    calls = []
                    mp.setattr(transfer, "level_pieces",
                               lambda *args: calls.append(1) or level_pieces(*args))
                    levels = node.slot_levels(pb)
                assert len(calls) == rebuilt <= (0 if kind == 2 else 2)
                fresh = slot_levels(model, ki + 1, pb[1 - ki], ssc)
                for lev, ref in zip(levels, fresh, strict=True):
                    assert (lev.rows, lev.cap, lev.knots) == (ref.rows, ref.cap, ref.knots)


class TestSearchMove:
    """The polish line search on closed-form concave moves; apply_fn is the
    identity, so each probe is one objective call at t."""

    TMAX = 2.5

    @classmethod
    def search(cls, f, tmax=TMAX):
        probes = []

        def objective(t):
            probes.append(t)
            return f(t)

        trial, val = waterfill._search_move(f(0.0), tmax, lambda t: t, objective)
        assert all(0.0 <= t <= tmax for t in probes)
        assert len(probes) <= waterfill.SEARCH_PROBES
        return trial, val, probes

    @pytest.mark.parametrize("f, argmax", [
        (lambda t: min(t, (2.5 - t) / 2), 2.5 / 3),         # kink at tmax/3
        (lambda t: math.log1p(t), 2.5),                     # maximum at tmax
        (lambda t: t - 0.01 * t * t, 2.5),                  # a parabola peaking past tmax
        (lambda t: min(t, 0.0375 - t / 2), 0.025),          # kink at 0.01*tmax
    ])
    def test_kink_or_end_maximum(self, f, argmax):
        trial, val, _ = self.search(f)
        assert abs(trial - argmax) <= 2e-10 * self.TMAX
        assert val == f(trial)

    def test_smooth_interior_maximum(self):
        def f(t):
            return math.log1p(t) - 0.4 * t
        trial, val, _ = self.search(f)
        assert val == f(trial)
        assert val >= f(1.5) - 1e-13

    def test_decreasing_move_is_screened_out(self):
        trial, val, probes = self.search(lambda t: -t)
        assert trial is None and val == 0.0
        assert len(probes) == 1

    def test_flat_top_stops_on_the_plateau(self):
        # every size in [0.3, 1.7] is optimal; bracketing one of them to
        # 1e-10*tmax took 49 probes
        trial, val, probes = self.search(lambda t: min(t, 0.3, 0.5 * (2.0 - t)))
        assert val == 0.3 and 0.3 <= trial <= 1.7
        assert len(probes) == 5

    @staticmethod
    def concave_move(rise, knots, slopes, start, tmax):
        """The min of affine pieces on [0, tmax]: slope `rise` up to
        knots[0], where the move is worth `start`, then slopes[i] from
        knots[i] on.  Each piece is written from its knot nearest the top,
        so with the top near 0 rounding stays far below the 1e-15 a search
        is held to.  Returns the move and its exact maximum."""
        starts = [start]
        for s, t0, t1 in zip(slopes, knots, knots[1:]):
            starts.append(starts[-1] + s * (t1 - t0))
        pieces = [(knots[0], start, rise), *zip(knots, starts, slopes)]

        def f(t):
            return min(v + s * (t - t0) for t0, v, s in pieces)
        return f, max(f(t) for t in knots + [tmax])

    @classmethod
    def random_concave_move(cls, rng, tmax):
        """2-4 pieces: a steep rise from 0, so the screen passes, then a
        flat piece or pieces of slope 1e-16 to 1e-14 either way, and maybe
        a steep fall.  The top is flat or nearly so, and wide enough that
        stopping short of it shows in the value."""
        slopes = [rng.choice((-1, 1)) * 10 ** rng.uniform(-16, -14)
                  for _ in range(rng.integers(1, 3))]
        if rng.random() < 0.5:
            slopes[0] = 0.0
        if len(slopes) < 3 and rng.random() < 0.5:
            slopes.append(-10 ** rng.uniform(-2, 1))
        slopes.sort(reverse=True)
        knots = sorted(rng.uniform(0.004 * tmax, tmax, len(slopes)).tolist())
        return cls.concave_move(10 ** rng.uniform(-2, 1), knots, slopes,
                                rng.uniform(-1e-3, 1e-3), tmax)

    def test_random_concave_moves_reach_the_maximum(self):
        rng = np.random.default_rng(2015)
        moves = []
        for _ in range(300):
            tmax = 10 ** rng.uniform(-1, 2)
            moves.append((*self.random_concave_move(rng, tmax), tmax))
        for _ in range(100):
            c = rng.uniform(0.3, 0.95)     # maximum at 1/c - 1, inside (0, tmax)
            moves.append((lambda t, c=c: math.log1p(t) - c * t,
                          math.log1p(1.0 / c - 1.0) - c * (1.0 / c - 1.0), self.TMAX))
        for f, top, tmax in moves:
            trial, val, _ = self.search(f, tmax)
            assert trial is not None and val == f(trial)
            assert val >= top - 1e-15 * max(1.0, abs(top))

    def test_close_probes_that_round_to_a_tie_keep_the_bound(self):
        # two probes 1.5e-9 apart on the -4e-15 slope past the top at t = 32
        # round to the same value; with exact secants that tie read as a
        # flat top and the search stopped 9.5e-15 short of the maximum
        f, top = self.concave_move(1.0, [4.0, 32.0, 35.0], [5e-15, -4e-15, -0.25], 3e-4, 45.0)
        _, val, _ = self.search(f, 45.0)
        assert val >= top - 1e-15


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
            fin = solve(loose)
            inf = solve(sc)
            assert fin.objective_nats == pytest.approx(inf.objective_nats, abs=1e-8)

    def test_output_invariants(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            sc = random_scenario(rng, ModelKind.TWC, finite=True)
            rep = solve(sc)
            assert check_feasible(rep.transmit, sc).feasible
            assert check_partially_procrastinating(rep.policy, sc)

    @pytest.mark.parametrize("mode, harvests, capacity, alpha, gain_db, stalled",
                             MAC_FINITE_STALLS)
    def test_mac_energy_crosses_idle_slots(self, mode, harvests, capacity, alpha,
                                           gain_db, stalled):
        sc = make_scenario(model=ModelKind.MAC, harvests=harvests, capacity=capacity,
                           alpha=alpha, gain_db=gain_db)
        rep = solve(sc, mode)
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
        levels = slot_levels(ModelKind.MAC, 1, [0.0, 5.0, 0.0], sc)
        out = _dwf_bounded(np.array([4.0, 0.0, 0.0]), capacity, levels, [])
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
            levels = slot_levels(model, k, other, sc)
            p = _dwf_bounded(arrivals, capacity, levels, [])
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


def scan_dwf_bounded(arrivals, capacity, levels):
    """_dwf_bounded before the warm start: the scan from every pivot, and
    the (start, end, ends_on_upper) pivots it picked."""
    upper = np.cumsum(arrivals)
    lower = upper - capacity
    lower[-1] = upper[-1]
    upper, lower = upper.tolist(), lower.tolist()
    n = len(upper)
    out = np.zeros(n)
    pivots = []
    i0, b0 = 0, 0.0
    while i0 < n:
        hi = lo = None
        pool = _Pool()
        for j in range(i0 + 1, n + 1):
            pool.add(levels[j - 1])
            up = (pool.solve(upper[j - 1] - b0), j)
            down = up if j == n else (pool.solve(lower[j - 1] - b0), j)
            if hi is not None and down[0] > hi[0]:
                pivot, on_upper, b0 = hi, True, upper[hi[1] - 1]
                break
            if lo is not None and lo[0] > up[0]:
                pivot, on_upper, b0 = lo, False, lower[lo[1] - 1]
                break
            if hi is None or up[0] < hi[0]:
                hi = up
            if lo is None or down[0] > lo[0]:
                lo = down
        else:
            pivot, on_upper = up, True
        rank, end = pivot
        out[i0:end] = pool.fill(end - i0, rank)
        pivots.append((i0, end, on_upper))
        i0 = end
    return out, pivots


def refill(arrivals, capacity, levels, pivots):
    """waterfill._refill on the bounds _dwf_bounded gives it."""
    upper = np.cumsum(arrivals)
    lower = upper - capacity
    lower[-1] = upper[-1]
    return waterfill._refill(upper.tolist(), lower.tolist(), levels, pivots)


def shifted(value):
    """Slot levels value[i] + x: the staircase level, raised per slot."""
    return [SlotLevel(((0.0, 1.0, float(c)),)) for c in value]


class TestRefill:
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("finite", [False, True])
    def test_warm_start_matches_the_scan(self, model, finite):
        # the refill is kept only as the scan's optimum: bit for bit when
        # the pivots are the scan's, within rounding at a tie between two
        # pivot lists
        rng = np.random.default_rng(503 + 2 * list(ModelKind).index(model) + finite)
        kept = flat = kept_flat = 0
        for _ in range(150):
            n = int(rng.integers(1, 9))
            sc = random_scenario(rng, model)
            sc = sc.with_efficiency(*(sc.transfer_efficiency * (rng.random(2) < 0.7)))
            k = int(rng.integers(1, 3))
            other = rng.uniform(0, 0.3, size=n) * (rng.random(n) < 0.8)
            arrivals = rng.uniform(0, 0.4, size=n) * (rng.random(n) < 0.8)
            capacity = rng.uniform(0.05, 1.0) if finite else INFINITE
            pivots = []
            out = _dwf_bounded(arrivals, capacity, slot_levels(model, k, other, sc), pivots)
            ref, ref_pivots = scan_dwf_bounded(arrivals, capacity,
                                               slot_levels(model, k, other, sc))
            assert np.array_equal(out, ref) and pivots == ref_pivots
            # the other node's powers move: a little everywhere, by one
            # polish move between adjacent slots, or redrawn
            kind = rng.integers(0, 3)
            if kind == 0:
                other = other * (1 + 1e-3 * rng.standard_normal(n))
            elif kind == 1 and n > 1:
                i = int(rng.integers(0, n - 1))
                t = rng.uniform(-other[i + 1], other[i])
                other[i] -= t
                other[i + 1] += t
            else:
                other = rng.uniform(0, 0.3, size=n) * (rng.random(n) < 0.8)
            levels = slot_levels(model, k, other, sc)
            flat += any(math.isfinite(lev.cap) for lev in levels)
            refilled = refill(arrivals, capacity, levels, pivots)
            kept += refilled is not None
            # a flat-capped pool fills its slots past their caps
            kept_flat += refilled is not None and any(
                p > lev.cap for p, lev in zip(refilled, levels))
            out = _dwf_bounded(arrivals, capacity, levels, pivots)
            ref, ref_pivots = scan_dwf_bounded(arrivals, capacity, levels)
            if pivots == ref_pivots:
                assert np.array_equal(out, ref)
            else:
                assert np.allclose(out, ref, rtol=0.0, atol=1e-12)
        assert kept >= 50
        assert flat > 0 if model is ModelKind.THC else flat == 0
        # a string with a flat-capped pool is refilled too
        assert kept_flat > 0 if model is ModelKind.THC else kept_flat == 0

    def test_falls_back_when_a_level_change_moves_a_pivot(self):
        arrivals = np.array([1.0, 1.0, 1.0])
        pivots = []
        _dwf_bounded(arrivals, INFINITE, shifted((0, 0, 0)), pivots)
        assert pivots == [(0, 3, True)]
        # raising slot 1's level pushes its share into slots 0 and 2, past
        # the one arrival by slot 0: the battery now empties there
        levels = shifted((0, 5, 0))
        assert refill(arrivals, INFINITE, levels, pivots) is None
        ref, ref_pivots = scan_dwf_bounded(arrivals, INFINITE, levels)
        assert np.array_equal(_dwf_bounded(arrivals, INFINITE, levels, pivots), ref)
        assert pivots == ref_pivots == [(0, 1, True), (1, 3, True)]
        assert ref.tolist() == [1.0, 0.0, 2.0]

    @pytest.mark.parametrize("arrivals, capacity, pivots", [
        # running consumption 4/3 above the one arrival by slot 0
        ((1.0, 0.0, 3.0), INFINITE, [(0, 3, True)]),
        # the level falls from 3 to 1/2 after the battery empties
        ((3.0, 0.0, 1.0), INFINITE, [(0, 1, True), (1, 3, True)]),
        # the level rises from 1 to 3/2 after the battery fills
        ((4.0, 0.0, 0.0), 3.0, [(0, 1, False), (1, 3, True)]),
    ])
    def test_rejects_pivots_that_break_the_certificate(self, arrivals, capacity, pivots):
        levels = shifted((0, 0, 0))
        assert refill(np.array(arrivals), capacity, levels, pivots) is None
        given = list(pivots)
        ref, ref_pivots = scan_dwf_bounded(np.array(arrivals), capacity, levels)
        assert np.array_equal(_dwf_bounded(np.array(arrivals), capacity, levels, given), ref)
        assert given == ref_pivots

    def test_keeps_pivots_that_pass_the_certificate(self):
        arrivals = np.array([1.0, 0.0, 3.0])
        levels = shifted((0, 0, 0))
        assert refill(arrivals, INFINITE, levels, [(0, 2, True), (2, 3, True)]) == [0.5, 0.5, 3.0]

    def test_a_flat_capped_pool_refills(self):
        # level x up to power 1, flat past it: the budget of 3 overflows the
        # cap, and the pool's rank is (inf, surplus)
        levels = [SlotLevel(((0.0, 1.0, 0.0), (1.0, 0.0, math.inf)))]
        pivots = [(0, 1, True)]
        assert refill(np.array([3.0]), INFINITE, levels, pivots) == [3.0]
        assert _dwf_bounded(np.array([3.0]), INFINITE, levels, pivots).tolist() == [3.0]
        assert pivots == [(0, 1, True)]

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("finite", [False, True])
    def test_solves_agree_without_the_warm_start(self, monkeypatch, model, finite):
        rng = np.random.default_rng(521 + 2 * list(ModelKind).index(model) + finite)
        scenarios = [random_scenario(rng, model, finite, n_max=6) for _ in range(6)]
        warm = [solve(sc, mode) for sc in scenarios for mode in CooperationMode]
        monkeypatch.setattr(waterfill, "_refill", lambda *args: None)
        cold = [solve(sc, mode) for sc in scenarios for mode in CooperationMode]
        for a, b in zip(warm, cold):
            assert math.isclose(a.objective_nats, b.objective_nats, rel_tol=1e-12)
            assert (a.converged, a.bcd_iterations) == (b.converged, b.bcd_iterations)


class TestSolveDispatch:
    def test_infinite_twc_uses_bcd(self):
        sc = make_scenario()
        assert solve(sc).objective_nats == pytest.approx(bcd_solve(sc).objective_nats)

    def test_mode_none_disables_transfers(self):
        sc = make_scenario()
        rep = solve(sc, CooperationMode.NO_COOPERATION)
        assert np.all(rep.transmit.delta == 0)


class TestLabelSwap:
    MIRRORED = {CooperationMode.BIDIRECTIONAL: CooperationMode.BIDIRECTIONAL,
                CooperationMode.UNI_1_TO_2: CooperationMode.UNI_2_TO_1,
                CooperationMode.UNI_2_TO_1: CooperationMode.UNI_1_TO_2,
                CooperationMode.NO_COOPERATION: CooperationMode.NO_COOPERATION}

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("finite", [False, True])
    def test_swapping_the_node_labels_keeps_the_objective(self, model, finite):
        rng = np.random.default_rng(401 + 2 * list(ModelKind).index(model) + finite)
        for _ in range(6):
            sc = random_scenario(rng, model, finite)
            swapped = dataclasses.replace(
                sc, harvests=sc.harvests[::-1], battery_capacity=sc.battery_capacity[::-1],
                transfer_efficiency=sc.transfer_efficiency[::-1],
                channel_gain_db=sc.channel_gain_db[::-1], noise_power_w=sc.noise_power_w[::-1])
            assert np.array_equal(swapped.effective_noise_mw, sc.effective_noise_mw[::-1])
            for mode, mirrored in self.MIRRORED.items():
                assert math.isclose(solve(swapped, mirrored).objective_nats,
                                    solve(sc, mode).objective_nats, rel_tol=1e-9)
