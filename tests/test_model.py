import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import make_scenario, random_feasible_policy, random_scenario
from ehcoop.model import (
    INFINITE,
    InfeasiblePolicyError,
    InputError,
    ModelKind,
    TransferPolicy,
    battery_trace,
    check_feasible,
    check_partially_procrastinating,
    check_procrastinating,
    decompose,
    objective,
    procrastinate_transform,
    rate,
    recover_transmit_powers,
)

RATE_15_025 = 0.5 * math.log(2.5) + 0.5 * math.log(1.25)  # 0.56972 nats


def policy(p, delta):
    return TransferPolicy(p=np.asarray(p, dtype=float), delta=np.asarray(delta, dtype=float))


class TestScenarioValidation:
    def test_effective_noise_is_one_mw(self):
        sc = make_scenario()
        assert np.allclose(sc.effective_noise_mw, [1.0, 1.0], rtol=1e-12)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(InputError, match=r"transfer_efficiency must lie in \[0,1\]"):
            make_scenario(alpha=(1.2, 0.5))

    def test_negative_harvest_rejected(self):
        with pytest.raises(InputError):
            make_scenario(harvests=((-1.0,), (0.0,)))

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(InputError):
            make_scenario(noise_w=(0.0, 1e-13))

    @pytest.mark.parametrize("field, value", [
        ("harvests", ((math.nan, 1.0), (0.0, 1.0))),
        ("harvests", ((math.inf, 1.0), (0.0, 1.0))),
        ("alpha", (math.nan, 0.5)),
        ("gain_db", (math.inf, -100.0)),
        ("gain_db", (-math.inf, -100.0)),
        ("noise_w", (math.nan, 1e-13)),
        ("noise_w", (math.inf, 1e-13)),
        ("slot_seconds", math.inf),
        ("slot_seconds", math.nan),
        ("capacity", (math.nan, INFINITE)),
        ("capacity", (-math.inf, INFINITE)),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(InputError):
            make_scenario(**{field: value})

    @pytest.mark.parametrize("gain_db", [(4000.0, -100.0), (-100.0, -4000.0)])
    def test_extreme_gain_rejected_without_warning(self, gain_db):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InputError, match="finite effective noise"):
                make_scenario(gain_db=gain_db)

    @pytest.mark.parametrize("noise_w, harvests, accepted", [
        ((1e-103, 1e-103), ((1.0,), (1.0,)), True),      # 1e-100 mW: the lower limit
        ((1e-103, 0.99e-103), ((1.0,), (1.0,)), False),
        ((1e97, 1e97), ((1.0,), (1.0,)), True),          # 1e100 mW: the upper limit
        ((1e97, 1.01e97), ((1.0,), (1.0,)), False),
        ((1e-13, 1e-13), ((0.5e100,), (0.5e100,)), True),
        ((1e-13, 1e-13), ((0.5e100,), (0.51e100,)), False),
        ((1e-13, 1e-13), ((1e308,), (1e308,)), False),  # the total overflows
    ])
    def test_effective_noise_and_total_harvest_bounds(self, noise_w, harvests, accepted):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if accepted:
                make_scenario(noise_w=noise_w, gain_db=(0.0, 0.0), harvests=harvests)
            else:
                with pytest.raises(InputError, match="effective noise|total harvest"):
                    make_scenario(noise_w=noise_w, gain_db=(0.0, 0.0), harvests=harvests)

    @pytest.mark.parametrize("slot_seconds", [1e308, 1e-300])
    def test_slot_seconds_outside_the_noise_range_rejected(self, slot_seconds):
        # the 1 mW effective noise is in range, its unit-slot copy is not
        with pytest.raises(InputError, match="slot_seconds must keep the effective noise"):
            make_scenario(slot_seconds=slot_seconds)

    def test_non_numeric_rejected(self):
        with pytest.raises(InputError, match="harvests must be numeric"):
            dataclasses.replace(make_scenario(), harvests="abc")

    def test_infinite_capacity_accepted(self):
        sc = make_scenario(capacity=(INFINITE, 3.0))
        assert math.isinf(sc.battery_capacity[0])


class TestBatteryTrace:
    def test_zero_policy_cumulative_sums(self):
        sc = make_scenario()
        tr = battery_trace(TransferPolicy.zeros(4), sc)
        assert np.allclose(tr.state[0], [2, 7, 7, 7])
        assert np.allclose(tr.state[1], [0, 4, 4, 11])
        assert np.all(tr.overflow_loss == 0)

    def test_capacity_clipping_records_overflow(self):
        sc = make_scenario(capacity=(10.0, 10.0))
        tr = battery_trace(TransferPolicy.zeros(4), sc)
        assert np.allclose(tr.state[1], [0, 4, 4, 10])
        assert tr.overflow_loss[1, 3] == pytest.approx(1.0)

    def test_single_slot_recursion(self):
        sc = make_scenario(harvests=((2.0,), (0.0,)))
        tr = battery_trace(policy([[1.0], [0.0]], [[0.5], [0.0]]), sc)
        assert tr.state[0, 0] == pytest.approx(0.5)

    def test_infinite_recursion_matches_sum_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sc = random_scenario(rng, ModelKind.TWC)
            pol = random_feasible_policy(rng, sc)
            tr = battery_trace(pol, sc)
            alpha = sc.transfer_efficiency
            for k in range(2):
                j = 1 - k
                sums = np.cumsum(sc.harvests[k] - pol.p[k] * sc.slot_seconds
                                 - pol.delta[k] + alpha[j] * pol.delta[j])
                assert np.allclose(tr.state[k], sums, rtol=1e-12, atol=1e-12)


class TestCheckFeasible:
    def test_zero_policy_feasible(self):
        assert check_feasible(TransferPolicy.zeros(4), make_scenario()).feasible

    def test_causality_violation_located(self):
        sc = make_scenario(harvests=((1.0,), (0.0,)))
        rep = check_feasible(policy([[2.0], [0.0]], [[0.0], [0.0]]), sc)
        assert not rep.feasible
        assert rep.first_violation == (1, 1, "causality")

    def test_received_energy_covers_transmit(self):
        sc = make_scenario(harvests=((0.0,), (2.0,)))
        rep = check_feasible(policy([[1.0], [0.0]], [[0.0], [2.0]]), sc)
        assert rep.feasible


class TestRate:
    def test_twc_value(self):
        sc = make_scenario()
        assert rate(ModelKind.TWC, 1.5, 0.25, sc) == pytest.approx(RATE_15_025, abs=1e-12)

    def test_thc_silent_relay_zero(self):
        assert rate(ModelKind.THC, 4.0, 0.0, make_scenario()) == 0.0

    def test_mac_zero(self):
        assert rate(ModelKind.MAC, 0.0, 0.0, make_scenario()) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(InputError):
            rate(ModelKind.TWC, -1.0, 0.0, make_scenario())


class TestObjective:
    def test_zero_policy(self):
        assert objective(TransferPolicy.zeros(4), make_scenario()) == 0.0

    def test_single_slot_value(self):
        sc = make_scenario(harvests=((2.0,), (0.0,)))
        pol = policy([[1.5], [0.25]], [[0.5], [0.0]])
        assert objective(pol, sc) == pytest.approx(RATE_15_025, abs=1e-12)

    def test_additivity(self):
        sc = make_scenario(harvests=((2.0, 2.0), (1.0, 1.0)))
        pol = policy([[2.0, 2.0], [1.0, 1.0]], np.zeros((2, 2)))
        one = rate(ModelKind.TWC, 2.0, 1.0, sc)
        assert objective(pol, sc) == pytest.approx(2 * one, rel=1e-12)

    def test_infeasible_refused(self):
        sc = make_scenario(harvests=((1.0,), (0.0,)))
        with pytest.raises(InfeasiblePolicyError):
            objective(policy([[2.0], [0.0]], [[0.0], [0.0]]), sc)


class TestRecoverAndDecompose:
    def test_identity_without_transfers(self):
        sc = make_scenario(harvests=((2.0, 1.0), (1.0, 1.0)))
        pol = policy([[1.0, 1.0], [0.5, 0.5]], np.zeros((2, 2)))
        dp = decompose(pol, sc)
        assert np.allclose(dp.consumed, pol.p)

    def test_interior_transfer(self):
        from ehcoop.model import DecomposedPolicy
        sc = make_scenario(harvests=((2.0,), (0.0,)))
        dp = DecomposedPolicy(consumed=np.array([[2.0], [0.0]]),
                              immediate=np.array([[0.5], [0.0]]),
                              stored=np.zeros((2, 1)))
        pol = recover_transmit_powers(dp, sc)
        assert np.allclose(pol.p[:, 0], [1.5, 0.25])

    def test_full_transfer_boundary(self):
        from ehcoop.model import DecomposedPolicy
        sc = make_scenario(harvests=((1.0,), (0.0,)))
        dp = DecomposedPolicy(consumed=np.array([[1.0], [0.0]]),
                              immediate=np.array([[1.0], [0.0]]),
                              stored=np.zeros((2, 1)))
        pol = recover_transmit_powers(dp, sc)
        assert np.allclose(pol.p[:, 0], [0.0, 0.5])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            sc = random_scenario(rng, ModelKind.TWC)
            pol = random_feasible_policy(rng, sc)
            back = recover_transmit_powers(decompose(pol, sc), sc)
            assert np.allclose(back.p, pol.p, rtol=1e-12, atol=1e-12)
            assert np.allclose(back.delta, pol.delta, rtol=1e-12, atol=1e-12)


class TestProcrastinationChecks:
    def test_zero_policy_procrastinating(self):
        assert check_procrastinating(TransferPolicy.zeros(4), make_scenario())

    def test_unspent_transfer_detected(self):
        sc = make_scenario(harvests=((0.0,), (6.0,)))
        assert not check_procrastinating(policy([[1.0], [0.0]], [[0.0], [3.0]]), sc)

    def test_boundary_passes(self):
        sc = make_scenario(harvests=((0.0,), (6.0,)))
        assert check_procrastinating(policy([[1.5], [0.0]], [[0.0], [3.0]]), sc)

    def test_partial_reduces_to_definition_one(self):
        sc = make_scenario(harvests=((2.0,), (0.0,)))
        pol = policy([[1.5], [0.25]], [[0.5], [0.0]])
        assert check_partially_procrastinating(decompose(pol, sc), sc)

    def test_stored_without_full_battery_fails(self):
        from ehcoop.model import DecomposedPolicy
        sc = make_scenario(harvests=((2.0,), (0.0,)), capacity=(10.0, 10.0))
        dp = DecomposedPolicy(consumed=np.array([[1.0], [0.0]]),
                              immediate=np.zeros((2, 1)),
                              stored=np.array([[0.5], [0.0]]))
        assert not check_partially_procrastinating(dp, sc)

    def test_bidirectional_immediate_fails(self):
        from ehcoop.model import DecomposedPolicy
        sc = make_scenario(harvests=((2.0,), (2.0,)))
        dp = DecomposedPolicy(consumed=np.array([[1.0], [1.0]]),
                              immediate=np.array([[0.5], [0.5]]),
                              stored=np.zeros((2, 1)))
        assert not check_partially_procrastinating(dp, sc)


class TestProcrastinateTransform:
    def test_fixed_point_on_procrastinating_input(self):
        sc = make_scenario(harvests=((2.0,), (0.0,)))
        pol = policy([[1.5], [0.25]], [[0.5], [0.0]])
        dp = procrastinate_transform(pol, sc)
        assert np.allclose(dp.immediate, pol.delta)
        assert np.all(dp.stored == 0)

    def test_postpones_unneeded_transfer(self):
        sc = make_scenario(harvests=((2.0, 0.0), (0.0, 0.0)))
        pol = policy([[0.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 0.0]])
        dp = procrastinate_transform(pol, sc)
        assert dp.immediate[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert dp.immediate[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_cancels_bidirectional_overlap(self):
        sc = make_scenario(harvests=((2.0,), (2.0,)))
        pol = policy([[0.5], [0.5]], [[1.0], [1.0]])
        dp = procrastinate_transform(pol, sc)
        assert np.all(np.minimum(dp.immediate[0], dp.immediate[1]) == 0)

    def test_infeasible_input_refused(self):
        sc = make_scenario(harvests=((1.0,), (0.0,)))
        with pytest.raises(InfeasiblePolicyError):
            procrastinate_transform(policy([[2.0], [0.0]], [[0.0], [0.0]]), sc)
