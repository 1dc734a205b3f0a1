import math

import numpy as np
import pytest

from conftest import level_rate, make_scenario
from ehcoop.model import ModelKind
from ehcoop.transfer import (
    Regime,
    applied_rate,
    mac_transfer,
    slot_transfer,
    thc_transfer,
    twc_case_rate,
    twc_transfer,
    water_level,
)


def rand_draw(rng, model):
    sc = make_scenario(model=model,
                       alpha=tuple(rng.uniform(0.05, 1.0, size=2)),
                       gain_db=tuple(rng.uniform(-103, -97, size=2)),
                       harvests=((1.0,), (1.0,)))
    return sc, float(rng.uniform(0, 8)), float(rng.uniform(0, 8))


class TestTwcTransfer:
    def test_symmetric_no_transfer(self):
        st = twc_transfer(1.0, 1.0, make_scenario())
        assert st.delta == (0.0, 0.0)
        assert st.regime is Regime.NO_TRANSFER

    def test_interior_candidate(self):
        st = twc_transfer(2.0, 0.0, make_scenario())
        assert st.delta[0] == pytest.approx(0.5, abs=1e-9)
        assert st.delta[1] == 0.0
        assert st.regime is Regime.INTERIOR_1
        assert st.rate_nats == pytest.approx(0.5697171415941824, abs=1e-10)

    def test_reverse_direction(self):
        st = twc_transfer(0.0, 7.0, make_scenario())
        assert st.delta == pytest.approx((0.0, 3.0), abs=1e-9)

    def test_negative_power_rejected(self):
        from ehcoop.model import InputError
        with pytest.raises(InputError):
            twc_transfer(-1.0, 0.0, make_scenario())

    def test_unidirectional_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            sc, pb1, pb2 = rand_draw(rng, ModelKind.TWC)
            st = twc_transfer(pb1, pb2, sc)
            assert st.delta[0] * st.delta[1] == 0.0
            assert 0.0 <= st.delta[0] <= pb1 + 1e-12
            assert 0.0 <= st.delta[1] <= pb2 + 1e-12

    def test_case_rate_matches_direct_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            sc, pb1, pb2 = rand_draw(rng, ModelKind.TWC)
            st = twc_transfer(pb1, pb2, sc)
            direct = applied_rate(ModelKind.TWC, pb1, pb2, st.delta, sc)
            assert st.rate_nats == pytest.approx(direct, abs=1e-12)
            assert twc_case_rate(pb1, pb2, st.regime, sc) == pytest.approx(direct, abs=1e-12)


class TestThcTransfer:
    def test_equalization(self):
        sc = make_scenario(model=ModelKind.THC, alpha=(0.5, 0.0))
        st = thc_transfer(4.0, 0.0, sc)
        assert st.delta[0] == pytest.approx(8.0 / 3.0, abs=1e-9)
        # post-transfer source power equals relay received power
        source = 4.0 - st.delta[0]
        relay = 0.5 * st.delta[0]
        assert source == pytest.approx(relay, abs=1e-9)

    def test_balanced_no_transfer(self):
        st = thc_transfer(3.0, 3.0, make_scenario(model=ModelKind.THC))
        assert st.delta == (0.0, 0.0)

    def test_reverse_direction(self):
        sc = make_scenario(model=ModelKind.THC, alpha=(0.0, 0.5))
        st = thc_transfer(0.0, 3.0, sc)
        assert st.delta[1] == pytest.approx(2.0, abs=1e-9)

    def test_unidirectional(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            sc, pb1, pb2 = rand_draw(rng, ModelKind.THC)
            st = thc_transfer(pb1, pb2, sc)
            assert st.delta[0] * st.delta[1] == 0.0
            assert st.delta[0] <= pb1 + 1e-12 and st.delta[1] <= pb2 + 1e-12


class TestMacTransfer:
    def test_weak_user_sends_everything(self):
        sc = make_scenario(model=ModelKind.MAC, gain_db=(-100.0, -110.0), alpha=(0.5, 0.5))
        st = mac_transfer(1.0, 3.0, sc)
        assert st.delta == (0.0, 3.0)
        assert st.regime is Regime.FULL_2

    def test_equal_channels_low_alpha_keeps_power(self):
        sc = make_scenario(model=ModelKind.MAC, alpha=(0.1, 0.1))
        st = mac_transfer(2.0, 2.0, sc)
        assert st.delta == (0.0, 0.0)

    def test_tie_breaks_to_no_transfer(self):
        sc = make_scenario(model=ModelKind.MAC, alpha=(0.5, 1.0))
        st = mac_transfer(2.0, 2.0, sc)
        assert st.delta[1] == 0.0

    def test_direction_is_slot_independent(self):
        sc = make_scenario(model=ModelKind.MAC, gain_db=(-100.0, -110.0), alpha=(0.5, 0.5))
        for pb in (0.1, 1.0, 10.0):
            assert mac_transfer(1.0, pb, sc).delta[0] == 0.0
            assert mac_transfer(1.0, pb, sc).delta[1] == pb


class TestWaterLevel:
    def test_twc_no_transfer_level(self):
        sc = make_scenario()
        assert water_level(ModelKind.TWC, 1, 2.0, 2.0, sc) == pytest.approx(6.0)

    def test_twc_interior_level(self):
        sc = make_scenario()
        assert water_level(ModelKind.TWC, 1, 2.0, 0.0, sc) == pytest.approx(5.0)

    def test_thc_receiving_level(self):
        sc = make_scenario(model=ModelKind.THC)
        # regime w1*pb1 < w2*pb2 with alpha_j = 0.5, n = 1 both
        assert water_level(ModelKind.THC, 1, 1.0, 4.0, sc) == pytest.approx(1 + 2.0 + 1.5)

    def test_monotone_in_own_power(self):
        rng = np.random.default_rng(19)
        for model in ModelKind:
            for _ in range(100):
                sc, pb1, pb2 = rand_draw(rng, model)
                grid = np.linspace(0.05, 8.0, 12)
                v1 = [water_level(model, 1, g, pb2, sc) for g in grid]
                finite = [x for x in v1 if math.isfinite(x)]
                assert all(b > a for a, b in zip(finite, finite[1:]))

    def test_inverse_marginal_matches_finite_difference(self):
        rng = np.random.default_rng(23)
        for model in ModelKind:
            checked = 0
            while checked < 100:
                sc, pb1, pb2 = rand_draw(rng, model)
                step = 1e-6 * max(1.0, pb1)
                if pb1 < 2 * step:
                    continue
                v = water_level(model, 1, pb1, pb2, sc)
                fd = (level_rate(model, pb1 + step, pb2, sc)
                      - level_rate(model, pb1 - step, pb2, sc)) / (2 * step)
                if not math.isfinite(v):
                    assert fd == pytest.approx(0.0, abs=1e-9)
                elif abs(1.0 / v - fd) > 1e-5 * max(abs(fd), 1e-12):
                    # a finite-difference stencil straddling a regime kink is
                    # meaningless; require the level to bracket it instead
                    v_lo = water_level(model, 1, pb1 - step, pb2, sc)
                    v_hi = water_level(model, 1, pb1 + step, pb2, sc)
                    assert min(v_lo, v_hi) <= 1.0 / fd <= max(v_hi, v_lo) + 1e-6
                checked += 1


class TestSlotTransferDispatch:
    def test_dispatch(self):
        sc_twc = make_scenario()
        assert slot_transfer(ModelKind.TWC, 2.0, 0.0, sc_twc).delta[0] == pytest.approx(0.5)
        sc_thc = make_scenario(model=ModelKind.THC, alpha=(0.5, 0.0))
        assert slot_transfer(ModelKind.THC, 4.0, 0.0, sc_thc).delta[0] == pytest.approx(8 / 3)
