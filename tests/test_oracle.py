import functools
import math

import numpy as np
import pytest

from conftest import make_scenario
from ehcoop.model import INFINITE, InputError, ModelKind, Scenario, check_feasible, objective
from ehcoop.oracle import DpConfig, dp_solve, grid_transfer_max
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

    @pytest.mark.parametrize("kwargs", [
        dict(grid_points=0), dict(grid_points=-5),
        dict(energy_quantum_mJ=0.0), dict(energy_quantum_mJ=-1.0),
        dict(energy_quantum_mJ=math.nan), dict(energy_quantum_mJ=math.inf),
    ])
    def test_config_rejected(self, kwargs):
        with pytest.raises(InputError):
            DpConfig(**kwargs)

    def test_unreachable_capacity_does_not_count(self):
        # no battery can hold more than the total harvest of 1 mJ
        sc = make_scenario(harvests=((0.5, 0.25), (0.25, 0.0)), capacity=(1e6, 1e6))
        value, _ = dp_solve(sc, DpConfig(energy_quantum_mJ=0.25, max_states=100))
        tight = make_scenario(harvests=((0.5, 0.25), (0.25, 0.0)), capacity=(1.0, 1.0))
        assert value == dp_solve(tight, DpConfig(energy_quantum_mJ=0.25))[0]

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
