import functools
import math

import numpy as np
import pytest

from conftest import make_scenario, random_scenario
from ehcoop import transfer
from ehcoop.model import INFINITE, InputError, ModelKind, Scenario, check_feasible, objective
from ehcoop.oracle import MAX_STATES, DpConfig, dp_solve, grid_transfer_max
from ehcoop.transfer import slot_transfer


def reference_dp_value(sc, q, stores=True):
    """The quantized DP by plain memoized recursion over (slot, s1, s2).

    Written from the `dp_solve` docstring alone: every action (b1, b2, e1, e2)
    is enumerated, with at most one of e1, e2 nonzero, and stored transfers
    only with a finite battery and `stores`.  The next state is s + h - b - e
    plus the floor(alpha * e) received, clipped at floor(c / q).
    """
    ssc = sc.unit_slot()
    h = np.floor(ssc.harvests / q + 1e-12).astype(int)
    cap = [c if math.isinf(c) else math.floor(c / q + 1e-12) for c in ssc.battery_capacity]
    stores = stores and not all(math.isinf(c) for c in cap)
    a1, a2 = ssc.transfer_efficiency

    @functools.lru_cache(maxsize=None)
    def rate(b1, b2):
        return slot_transfer(ssc.model_kind, b1 * q, b2 * q, ssc).rate_nats

    @functools.lru_cache(maxsize=None)
    def value(i, s1, s2):
        if i == ssc.n_slots:
            return 0.0
        have1, have2 = s1 + int(h[0, i]), s2 + int(h[1, i])
        best = -math.inf
        for b1 in range(have1 + 1):
            for b2 in range(have2 + 1):
                sends = [(0, 0)]
                if stores:
                    sends += [(e, 0) for e in range(1, have1 - b1 + 1)]
                    sends += [(0, e) for e in range(1, have2 - b2 + 1)]
                for e1, e2 in sends:
                    n1 = min(have1 - b1 - e1 + int(a2 * e2 + 1e-9), cap[0])
                    n2 = min(have2 - b2 - e2 + int(a1 * e1 + 1e-9), cap[1])
                    best = max(best, rate(b1, b2) + value(i + 1, n1, n2))
        return best

    return value(0, 0, 0) * sc.slot_seconds


def tagged_dp_value(sc, cfg):
    """The DP value by the earlier tag-based backward pass: per slot, loops
    over the stored transfers e1 and e2 and over the consumptions b1, each
    keeping a candidate only where it beats the best so far by more than
    1e-15.  Same sizing and rate table as `dp_solve`."""
    ssc = sc.unit_slot()
    q = cfg.quantum_for(sc)
    n = ssc.n_slots
    h = np.floor(ssc.harvests / q + 1e-12).astype(int)
    alpha = ssc.transfer_efficiency
    use_eps = not np.isinf(ssc.battery_capacity).all() and (alpha[0] > 0 or alpha[1] > 0)
    total = int(np.sum(h))
    s1max, s2max = (min(int(math.floor(c / q + 1e-12)), total) if math.isfinite(c)
                    else total if use_eps else int(np.sum(h[k]))
                    for k, c in enumerate(ssc.battery_capacity))

    def received(k, e):
        return int(alpha[k] * e + 1e-9)

    def keep_better(best, cand):
        mask = cand > best + 1e-15
        best[mask] = cand[mask]

    reach, have = [(0, 0)], []
    for i in range(n):
        m1, m2 = reach[i][0] + int(h[0, i]), reach[i][1] + int(h[1, i])
        got1, got2 = (received(1, m2), received(0, m1)) if use_eps else (0, 0)
        have.append((m1, m2))
        reach.append((min(m1 + got1, s1max), min(m2 + got2, s2max)))
    bmax1, bmax2 = map(max, zip(*have))
    rate_tab = transfer.rate_grid(ssc.model_kind, np.arange(bmax1 + 1) * q,
                                  np.arange(bmax2 + 1) * q, ssc)
    V = np.zeros((reach[n][0] + 1, reach[n][1] + 1))
    for i in range(n - 1, -1, -1):
        h1i, h2i = int(h[0, i]), int(h[1, i])
        s1_axis, s2_axis = np.arange(reach[i][0] + 1), np.arange(reach[i][1] + 1)
        m1_axis, m2_axis = np.arange(have[i][0] + 1), np.arange(have[i][1] + 1)
        M1, M2 = len(m1_axis), len(m2_axis)
        U = V[np.ix_(np.minimum(m1_axis, s1max), np.minimum(m2_axis, s2max))]
        if use_eps:
            for e1 in range(1, M1):
                keep_better(U[e1:], V[np.ix_(np.minimum(m1_axis[e1:] - e1, s1max),
                                             np.minimum(m2_axis + received(0, e1), s2max))])
            for e2 in range(1, M2):
                keep_better(U[:, e2:], V[np.ix_(np.minimum(m1_axis + received(1, e2), s1max),
                                                np.minimum(m2_axis[e2:] - e2, s2max))])
        U = np.concatenate([U, np.full((M1, 1), -math.inf)], axis=1)
        col = s2_axis[:, None] + h2i - m2_axis[None, :]
        col[col < 0] = M2
        best = np.full((len(s1_axis), len(s2_axis)), -math.inf)
        for b1 in range(M1):
            lo1 = max(0, b1 - h1i)
            cand = rate_tab[b1, :M2] + U[s1_axis[lo1:] + h1i - b1][:, col]
            keep_better(best[lo1:], cand.max(axis=2))
        V = best
    return float(V[0, 0]) * sc.slot_seconds


def assert_policy_attains(sc, cfg):
    """dp_solve's policy is feasible and worth at least its value."""
    value, policy = dp_solve(sc, cfg)
    assert check_feasible(policy, sc).feasible
    assert objective(policy, sc) >= value - 1e-9
    return value


class TestDpSolve:
    def test_single_slot_closed_form_value(self):
        sc = make_scenario(harvests=((2.0,), (0.0,)))
        value, _ = dp_solve(sc, DpConfig(energy_quantum_mJ=1e-3))
        assert value == pytest.approx(0.5697171415941824, abs=1e-3)

    def test_zero_harvests(self):
        sc = make_scenario(harvests=((0.0, 0.0), (0.0, 0.0)))
        value, policy = dp_solve(sc, DpConfig(energy_quantum_mJ=0.1))
        assert value == 0.0
        assert np.all(policy.p == 0)

    def test_single_node_staircase_value(self):
        sc = make_scenario(harvests=((2.0, 5.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
                           alpha=(0.0, 0.0))
        value, _ = dp_solve(sc, DpConfig(energy_quantum_mJ=0.25))
        expected = 4 * 0.5 * math.log1p(1.75)
        assert value == pytest.approx(expected, abs=1e-9)

    def test_policy_is_feasible_under_exact_dynamics(self):
        sc = make_scenario(harvests=((0.55, 0.3), (0.1, 0.72)), capacity=(0.5, 0.4))
        value, policy = dp_solve(sc, DpConfig(energy_quantum_mJ=0.05))
        assert check_feasible(policy, sc).feasible
        assert objective(policy, sc) >= value - 1e-9

    @pytest.mark.parametrize("finite", [False, True])
    def test_value_only_skips_the_forward_pass(self, monkeypatch, finite):
        rng = np.random.default_rng(17 + finite)
        scenarios = [random_scenario(rng, model, finite=finite)
                     for model in ModelKind for _ in range(3)]
        cfg = DpConfig(grid_points=12)
        values = [dp_solve(sc, cfg)[0] for sc in scenarios]
        # only the forward pass builds a SlotTransfer
        monkeypatch.setattr(transfer, "slot_transfer", None)
        assert [dp_solve(sc, cfg, policy=False) for sc in scenarios] == [
            (value, None) for value in values]

    @pytest.mark.parametrize("harvests", [((1e-12, 0.0), (0.0, 0.0)), ((0.4, 1.0), (0.2, 0.6))])
    def test_huge_finite_capacity_equals_infinite(self, harvests):
        # a capacity no harvest can fill holds as much as an infinite one
        huge = make_scenario(harvests=harvests, capacity=(1e300, 1e300))
        infinite = make_scenario(harvests=harvests)
        assert dp_solve(huge, policy=False)[0] == dp_solve(infinite, policy=False)[0]

    def test_refinement_never_decreases(self):
        sc = make_scenario(harvests=((1.0, 0.5), (0.25, 0.75)), capacity=(1.0, 1.0))
        coarse, _ = dp_solve(sc, DpConfig(energy_quantum_mJ=0.25))
        fine, _ = dp_solve(sc, DpConfig(energy_quantum_mJ=0.125))
        assert fine >= coarse - 1e-12

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("finite", [False, True])
    def test_matches_reference_recursion(self, model, finite):
        q = 0.5
        rng = np.random.default_rng(311 + 2 * list(ModelKind).index(model) + finite)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            alpha = rng.uniform(0.3, 1.0, size=2) * (rng.random(2) > 0.3)
            caps = q * rng.integers(1, 5, size=2) if finite else (INFINITE, INFINITE)
            sc = Scenario(model_kind=model,
                          harvests=q * rng.integers(0, 4, size=(2, n)).astype(float),
                          battery_capacity=np.array(caps, dtype=float),
                          transfer_efficiency=alpha,
                          channel_gain_db=rng.uniform(-102, -97, size=2),
                          noise_power_w=np.array([1e-13, 1e-13]), slot_seconds=1.0)
            value, policy = dp_solve(sc, DpConfig(energy_quantum_mJ=q))
            assert value == pytest.approx(reference_dp_value(sc, q), abs=1e-12)
            assert check_feasible(policy, sc).feasible
            assert objective(policy, sc) >= value - 1e-9

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("sender", [0, 1])
    def test_stored_transfer_matches_reference(self, model, sender):
        # the sender's burst overflows its battery unless the other node stores
        # some; 3 mJ holds the whole harvest, so an infinite receiver is worth the same
        q = 0.5
        values = []
        for receiver_capacity in (3.0, INFINITE):
            harvests, capacity = [(3.0, 0.0, 0.0), (0.0, 0.0, 0.0)], [0.5, receiver_capacity]
            if sender:
                harvests.reverse()
                capacity.reverse()
            sc = make_scenario(model=model, harvests=harvests, capacity=capacity,
                               alpha=(0.9, 0.9), gain_db=(-90.0, -90.0))
            value, policy = dp_solve(sc, DpConfig(energy_quantum_mJ=q))
            assert value == pytest.approx(reference_dp_value(sc, q), abs=1e-12)
            assert value > reference_dp_value(sc, q, stores=False) + 0.1
            assert check_feasible(policy, sc).feasible
            assert objective(policy, sc) >= value - 1e-9
            values.append(value)
        assert values[0] == values[1]

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("finite", [False, True])
    def test_scalar_transfers_only_rebuild_the_policy(self, model, finite, monkeypatch):
        calls = []
        scalar = transfer.slot_transfer
        monkeypatch.setattr(transfer, "slot_transfer",
                            lambda *args: calls.append(args) or scalar(*args))
        sc = make_scenario(model=model, capacity=(3.0, 4.0) if finite else (INFINITE, INFINITE))
        dp_solve(sc, DpConfig(grid_points=20))
        assert len(calls) <= sc.n_slots

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("case", ["last-slot", "burst"])
    def test_reachable_states_match_reference(self, model, case, monkeypatch):
        # the rate table spans only reachable consumptions: with every harvest
        # in the last slot, each node's own harvest; in the burst, node 1's
        # 6 quanta and the 5 that node 2 can receive from them
        q = 0.5
        if case == "last-slot":
            harvests, capacity, shape = [(0.0, 0.0, 2.0), (0.0, 0.0, 1.5)], (1.0, INFINITE), (5, 4)
        else:
            harvests, capacity, shape = [(3.0, 0.0, 0.0), (0.0, 0.0, 0.0)], (0.5, 3.0), (7, 6)
        sc = make_scenario(model=model, harvests=harvests, capacity=capacity,
                           alpha=(0.9, 0.9), gain_db=(-90.0, -90.0))
        shapes = []
        grid = transfer.rate_grid
        monkeypatch.setattr(transfer, "rate_grid",
                            lambda *args: shapes.append((len(args[1]), len(args[2])))
                            or grid(*args))
        value, policy = dp_solve(sc, DpConfig(energy_quantum_mJ=q))
        assert shapes == [shape]
        assert value == pytest.approx(reference_dp_value(sc, q), abs=1e-12)
        assert check_feasible(policy, sc).feasible
        assert objective(policy, sc) >= value - 1e-9

    @pytest.mark.parametrize("kwargs", [
        dict(grid_points=0), dict(grid_points=-5),
        dict(energy_quantum_mJ=0.0), dict(energy_quantum_mJ=-1.0),
        dict(energy_quantum_mJ=math.nan), dict(energy_quantum_mJ=math.inf),
    ])
    def test_config_rejected(self, kwargs):
        with pytest.raises(InputError):
            DpConfig(**kwargs)

    def test_unreachable_capacity_does_not_count(self):
        # no battery can hold more than the total harvest of 1 mJ; sized by
        # the capacities, the grid would hold 1.6e13 states, past MAX_STATES
        sc = make_scenario(harvests=((0.5, 0.25), (0.25, 0.0)), capacity=(1e6, 1e6))
        value, _ = dp_solve(sc, DpConfig(energy_quantum_mJ=0.25))
        tight = make_scenario(harvests=((0.5, 0.25), (0.25, 0.0)), capacity=(1.0, 1.0))
        assert value == dp_solve(tight, DpConfig(energy_quantum_mJ=0.25))[0]

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("grid_points", [20, 40])
    def test_matches_tagged_backward_pass(self, model, finite, grid_points):
        # a true max replaces the 1e-15 sequential tie rule, so the value may
        # only rise, and by rounding alone
        rng = np.random.default_rng(317 + 4 * list(ModelKind).index(model) + 2 * finite
                                    + (grid_points == 40))
        cfg = DpConfig(grid_points=grid_points)
        for _ in range(8):
            sc = random_scenario(rng, model, finite=finite)
            value = assert_policy_attains(sc, cfg)
            tagged = tagged_dp_value(sc, cfg)
            assert tagged <= value <= tagged + 1e-12

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("case", ["symmetric", "one-sided", "zero-slot"])
    def test_exact_ties_give_an_attaining_policy(self, model, finite, case):
        # equal nodes tie every action with its mirror; alpha = 0 ties every
        # transfer from node 2 with none, while node 1's burst overflows its
        # battery unless node 2 stores some; an all-zero slot ties consuming
        # nothing then with keeping everything
        harvests, alpha, capacity = [(1.0, 0.5, 1.5), (1.0, 0.5, 1.5)], (0.6, 0.6), (1.0, 1.0)
        if case == "one-sided":
            harvests, alpha, capacity = [(3.0, 0.0, 0.0), (0.0, 0.0, 0.0)], (0.6, 0.0), (0.5, 1.5)
        elif case == "zero-slot":
            harvests = [(1.0, 0.0, 1.5), (0.5, 0.0, 1.0)]
        sc = make_scenario(model=model, harvests=harvests, alpha=alpha,
                           capacity=capacity if finite else (INFINITE, INFINITE))
        value = assert_policy_attains(sc, DpConfig(energy_quantum_mJ=0.25))
        assert value == pytest.approx(reference_dp_value(sc, 0.25), abs=1e-12)

    def test_oversize_arrays_refused_before_allocating(self, monkeypatch):
        # 401^2 states pass MAX_STATES, but consuming from 401 x 401 leftovers
        # needs a 401^3-cell array per slot
        sc = make_scenario(harvests=((100.0, 100.0), (100.0, 100.0)))
        cfg = DpConfig(energy_quantum_mJ=0.5)
        assert 401 ** 2 <= MAX_STATES < 401 ** 3
        monkeypatch.setattr(transfer, "rate_grid", lambda *args: pytest.fail("allocated"))
        with pytest.raises(InputError, match="max_states"):
            dp_solve(sc, cfg)

    def test_state_explosion_refused(self):
        sc = make_scenario(harvests=((100.0, 100.0), (100.0, 100.0)))
        with pytest.raises(InputError, match="max_states"):
            dp_solve(sc, DpConfig(energy_quantum_mJ=1e-4))


class TestGridTransferMax:
    def test_twc_interior(self):
        sc = make_scenario()
        (d1, d2), _ = grid_transfer_max(ModelKind.TWC, 2.0, 0.0, sc, points=400)
        assert d1 == pytest.approx(0.5, abs=2.0 / 400)
        assert d2 == 0.0

    def test_thc_equalization(self):
        sc = make_scenario(model=ModelKind.THC, alpha=(0.5, 0.0))
        (d1, d2), _ = grid_transfer_max(ModelKind.THC, 4.0, 0.0, sc, points=400)
        assert d1 == pytest.approx(8.0 / 3.0, abs=4.0 / 400)

    def test_mac_corner(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            sc = make_scenario(model=ModelKind.MAC,
                               gain_db=tuple(rng.uniform(-110, -95, size=2)),
                               alpha=tuple(rng.uniform(0, 1, size=2)))
            pb1, pb2 = rng.uniform(0.1, 5, size=2)
            (d1, d2), _ = grid_transfer_max(ModelKind.MAC, pb1, pb2, sc, points=100)
            assert d1 in (0.0, pb1) or d1 == pytest.approx(0.0) or d1 == pytest.approx(pb1)
            assert d2 in (0.0, pb2) or d2 == pytest.approx(0.0) or d2 == pytest.approx(pb2)

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError):
            grid_transfer_max(ModelKind.TWC, 1.0, 1.0, make_scenario(), points=50)
