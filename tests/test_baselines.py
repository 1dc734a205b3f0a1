import numpy as np
import pytest

from conftest import make_scenario, random_scenario
from ehcoop.baselines import BaselineKind, constant_power
from ehcoop.model import ModelKind, check_feasible, objective
from ehcoop.waterfill import CooperationMode, solve


class TestConstantPower:
    def test_constant_harvests_no_outage(self):
        sc = make_scenario(harvests=((3.0, 3.0, 3.0), (2.0, 2.0, 2.0)))
        pol = constant_power(sc, BaselineKind.CONSTANT_POWER_NO_COOP)
        assert np.allclose(pol.p[0], 3.0)
        assert np.allclose(pol.p[1], 2.0)

    def test_outage_when_battery_empties(self):
        sc = make_scenario(harvests=((2.0, 0.0), (0.0, 0.0)))
        pol = constant_power(sc, BaselineKind.CONSTANT_POWER_NO_COOP)
        assert np.allclose(pol.p[0], [1.0, 1.0])

    def test_zero_harvests(self):
        sc = make_scenario(harvests=((0.0, 0.0), (0.0, 0.0)))
        pol = constant_power(sc, BaselineKind.CONSTANT_POWER_WITH_COOP)
        assert np.all(pol.p == 0) and np.all(pol.delta == 0)

    def test_always_feasible(self):
        rng = np.random.default_rng(61)
        for kind in BaselineKind:
            for finite in (False, True):
                for model in ModelKind:
                    sc = random_scenario(rng, model, finite=finite)
                    pol = constant_power(sc, kind)
                    assert check_feasible(pol, sc).feasible

    def test_solver_dominates_baseline(self):
        rng = np.random.default_rng(67)
        pairs = [
            (BaselineKind.CONSTANT_POWER_NO_COOP, CooperationMode.NO_COOPERATION),
            (BaselineKind.CONSTANT_POWER_WITH_COOP, CooperationMode.BIDIRECTIONAL),
        ]
        for model in ModelKind:
            for _ in range(5):
                sc = random_scenario(rng, model)
                for kind, mode in pairs:
                    base = objective(constant_power(sc, kind), sc)
                    assert solve(sc, mode).objective_nats >= base - 1e-9

    @pytest.mark.parametrize("slot_seconds, nats", [
        (2.0, 3.9630725134251756),
        (0.5, 2.419925923439291),
        (1.0, 3.187083409125664),
    ])
    def test_cooperative_transfers_use_slot_noise(self, slot_seconds, nats):
        # the transfers are per-slot energies, optimal against the noise
        # scaled by the slot length (at 2 s the unscaled noise gave 3.9257)
        sc = make_scenario(alpha=(0.9, 0.9), gain_db=(-100.0, -103.0),
                           slot_seconds=slot_seconds)
        pol = constant_power(sc, BaselineKind.CONSTANT_POWER_WITH_COOP)
        assert objective(pol, sc) == pytest.approx(nats, rel=1e-12)
