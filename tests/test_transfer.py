import decimal
import math

import numpy as np
import pytest

from conftest import level_rate, make_scenario, random_scenario
from ehcoop.model import InputError, ModelKind, rate
from ehcoop import transfer
from ehcoop.transfer import (
    Regime,
    SlotLevel,
    SlotTransfer,
    applied_rate,
    level_pieces,
    rate_grid,
    slot_rate,
    slot_transfer,
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
        st = slot_transfer(ModelKind.TWC, 1.0, 1.0, make_scenario())
        assert st.delta == (0.0, 0.0)
        assert st.regime is Regime.NO_TRANSFER

    def test_interior_candidate(self):
        st = slot_transfer(ModelKind.TWC, 2.0, 0.0, make_scenario())
        assert st.delta[0] == pytest.approx(0.5, abs=1e-9)
        assert st.delta[1] == 0.0
        assert st.regime is Regime.INTERIOR_1
        assert st.rate_nats == pytest.approx(0.5697171415941824, abs=1e-10)

    def test_reverse_direction(self):
        st = slot_transfer(ModelKind.TWC, 0.0, 7.0, make_scenario())
        assert st.delta == pytest.approx((0.0, 3.0), abs=1e-9)

    def test_negative_power_rejected(self):
        from ehcoop.model import InputError
        with pytest.raises(InputError):
            slot_transfer(ModelKind.TWC, -1.0, 0.0, make_scenario())

    def test_unidirectional_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            sc, pb1, pb2 = rand_draw(rng, ModelKind.TWC)
            st = slot_transfer(ModelKind.TWC, pb1, pb2, sc)
            assert st.delta[0] * st.delta[1] == 0.0
            assert 0.0 <= st.delta[0] <= pb1 + 1e-12
            assert 0.0 <= st.delta[1] <= pb2 + 1e-12

    def test_case_rate_matches_direct_evaluation(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            sc, pb1, pb2 = rand_draw(rng, ModelKind.TWC)
            st = slot_transfer(ModelKind.TWC, pb1, pb2, sc)
            direct = applied_rate(ModelKind.TWC, pb1, pb2, st.delta, sc)
            assert st.rate_nats == pytest.approx(direct, abs=1e-12)
            assert slot_rate(ModelKind.TWC, sc)(pb1, pb2) == st.rate_nats


class TestThcTransfer:
    def test_equalization(self):
        sc = make_scenario(model=ModelKind.THC, alpha=(0.5, 0.0))
        st = slot_transfer(ModelKind.THC, 4.0, 0.0, sc)
        assert st.delta[0] == pytest.approx(8.0 / 3.0, abs=1e-9)
        # post-transfer source power equals relay received power
        source = 4.0 - st.delta[0]
        relay = 0.5 * st.delta[0]
        assert source == pytest.approx(relay, abs=1e-9)

    def test_balanced_no_transfer(self):
        st = slot_transfer(ModelKind.THC, 3.0, 3.0, make_scenario(model=ModelKind.THC))
        assert st.delta == (0.0, 0.0)

    def test_reverse_direction(self):
        sc = make_scenario(model=ModelKind.THC, alpha=(0.0, 0.5))
        st = slot_transfer(ModelKind.THC, 0.0, 3.0, sc)
        assert st.delta[1] == pytest.approx(2.0, abs=1e-9)

    def test_unidirectional(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            sc, pb1, pb2 = rand_draw(rng, ModelKind.THC)
            st = slot_transfer(ModelKind.THC, pb1, pb2, sc)
            assert st.delta[0] * st.delta[1] == 0.0
            assert st.delta[0] <= pb1 + 1e-12 and st.delta[1] <= pb2 + 1e-12


class TestMacTransfer:
    def test_weak_user_sends_everything(self):
        sc = make_scenario(model=ModelKind.MAC, gain_db=(-100.0, -110.0), alpha=(0.5, 0.5))
        st = slot_transfer(ModelKind.MAC, 1.0, 3.0, sc)
        assert st.delta == (0.0, 3.0)
        assert st.regime is Regime.FULL_2

    def test_equal_channels_low_alpha_keeps_power(self):
        sc = make_scenario(model=ModelKind.MAC, alpha=(0.1, 0.1))
        st = slot_transfer(ModelKind.MAC, 2.0, 2.0, sc)
        assert st.delta == (0.0, 0.0)

    def test_tie_breaks_to_no_transfer(self):
        sc = make_scenario(model=ModelKind.MAC, alpha=(0.5, 1.0))
        st = slot_transfer(ModelKind.MAC, 2.0, 2.0, sc)
        assert st.delta[1] == 0.0

    def test_direction_is_slot_independent(self):
        sc = make_scenario(model=ModelKind.MAC, gain_db=(-100.0, -110.0), alpha=(0.5, 0.5))
        for pb in (0.1, 1.0, 10.0):
            assert slot_transfer(ModelKind.MAC, 1.0, pb, sc).delta[0] == 0.0
            assert slot_transfer(ModelKind.MAC, 1.0, pb, sc).delta[1] == pb


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


class TestFloatKernels:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_python_floats_stay_python_floats(self, model):
        # the kernels read the channel constants as Python floats; a numpy
        # scalar leaking into a delta or a piece slows every later step
        rng = np.random.default_rng(83)
        for trial in range(20):
            sc, pb1, pb2 = rand_draw(rng, model)
            if trial % 3 == 1:
                sc = sc.with_efficiency(0.0, sc.transfer_efficiency[1])
            st = slot_transfer(model, pb1, pb2, sc)
            assert all(type(d) is float for d in st.delta)
            assert type(st.rate_nats) is float
            assert type(rate(model, pb1, pb2, sc)) is float
            for k, q in ((1, pb2), (2, pb1)):
                pieces = level_pieces(model, k, q, sc)
                assert all(type(x) is float for piece in pieces for x in piece)


def rate_before_kernel(model, pb1, pb2, sc):
    """The slot rate as slot_transfer computed it before slot_rate: the TWC
    five-case closed form of its regime, and the THC and MAC rates of its
    transfer applied to the consumed powers."""
    st = slot_transfer(model, pb1, pb2, sc)
    if model is not ModelKind.TWC:
        return applied_rate(model, pb1, pb2, st.delta, sc)
    n1, n2 = sc.effective_noise_mw.tolist()
    a1, a2 = sc.transfer_efficiency.tolist()
    if st.regime is Regime.NO_TRANSFER:
        return 0.5 * math.log1p(pb1 / n1) + 0.5 * math.log1p(pb2 / n2)
    if st.regime is Regime.INTERIOR_1:
        s = (n1 + pb1) + (n2 + pb2) / a1
        return math.log(0.5 * s * math.sqrt(a1 / (n1 * n2)))
    if st.regime is Regime.INTERIOR_2:
        s = (n2 + pb2) + (n1 + pb1) / a2
        return math.log(0.5 * s * math.sqrt(a2 / (n1 * n2)))
    if st.regime is Regime.FULL_1:
        return 0.5 * math.log1p((pb2 + a1 * pb1) / n2)
    return 0.5 * math.log1p((pb1 + a2 * pb2) / n1)


def exact_rate(model, pb1, pb2, delta, sc):
    """The channel rate of the transfers delta applied to (pb1, pb2), in
    40-digit decimal arithmetic from the same float inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        n1, n2 = map(decimal.Decimal, sc.effective_noise_mw.tolist())
        a1, a2 = map(decimal.Decimal, sc.transfer_efficiency.tolist())
        pb1, pb2, d1, d2 = map(decimal.Decimal, (pb1, pb2, *delta))
        p1, p2 = max(pb1 - d1 + a2 * d2, 0), max(pb2 - d2 + a1 * d1, 0)
        half = decimal.Decimal("0.5")
        if model is ModelKind.TWC:
            value = half * (1 + p1 / n1).ln() + half * (1 + p2 / n2).ln()
        elif model is ModelKind.THC:
            value = min(half * (1 + p1 / n1).ln(), half * (1 + p2 / n2).ln())
        else:
            value = half * (1 + p1 / n1 + p2 / n2).ln()
        return float(value)


class TestSlotRate:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_equals_slot_transfer_bit_for_bit(self, model):
        # the TWC's closed forms were replaced by the rate of its transfer
        # applied, so they agree with it only to rounding
        rng = np.random.default_rng(101 + list(ModelKind).index(model))
        regimes = set()
        for draw in range(40):
            sc = random_scenario(rng, model)
            # alpha = 0 on either side, then both
            pattern = ((1, 1), (0, 1), (1, 0), (0, 0))[draw % 4]
            sc = sc.with_efficiency(*(sc.transfer_efficiency * pattern))
            rate_of = slot_rate(model, sc)
            pbs = rng.uniform(0, 0.3, size=(30, 2)) * (rng.random((30, 2)) < 0.8)
            for pb1, pb2 in pbs.tolist():
                st = slot_transfer(model, pb1, pb2, sc)
                regimes.add(st.regime)
                before = rate_before_kernel(model, pb1, pb2, sc)
                assert rate_of(pb1, pb2) == st.rate_nats
                if model is ModelKind.TWC:
                    assert abs(st.rate_nats - before) <= 1e-14 * abs(before)
                else:
                    assert st.rate_nats == before
        assert len(regimes) >= (5 if model is ModelKind.TWC else 3)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("pattern", [(1, 1), (0, 1), (1, 0), (0, 0)])
    def test_is_the_channel_rate_of_the_transfer(self, model, pattern):
        # slot_rate and rate_grid within 4e-16 relative of the channel rate
        # of slot_transfer's transfers, evaluated exactly
        rng = np.random.default_rng(607 + 4 * list(ModelKind).index(model)
                                    + 2 * pattern[0] + pattern[1])
        for _ in range(8):
            sc, _, _ = rand_draw(rng, model)
            sc = sc.with_efficiency(*(sc.transfer_efficiency * pattern))
            rate_of = slot_rate(model, sc)
            pb1 = [0.0] + rng.uniform(0, 8, size=7).tolist()
            pb2 = [0.0] + rng.uniform(0, 8, size=6).tolist()
            grid = rate_grid(model, pb1, pb2, sc).tolist()
            for x, row in zip(pb1, grid):
                for y, from_grid in zip(pb2, row):
                    exact = exact_rate(model, x, y, slot_transfer(model, x, y, sc).delta, sc)
                    assert abs(rate_of(x, y) - exact) <= 4e-16 * exact
                    assert abs(from_grid - exact) <= 4e-16 * exact

    def test_negative_power_rejected(self):
        with pytest.raises(InputError):
            slot_rate(ModelKind.THC, make_scenario())(-1.0, 0.0)


class TestRateGrid:
    @staticmethod
    def assert_matches_scalar(model, pb1, pb2, sc):
        grid = rate_grid(model, pb1, pb2, sc)
        assert grid.shape == (len(pb1), len(pb2))
        for x, row in zip(pb1, grid.tolist()):
            for y, value in zip(pb2, row):
                ref = slot_transfer(model, x, y, sc).rate_nats
                assert abs(value - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("pattern", [(1, 1), (1, 0), (0, 1), (0, 0)])
    def test_matches_slot_transfer(self, model, pattern):
        rng = np.random.default_rng(97 + 4 * list(ModelKind).index(model) + 2 * pattern[0]
                                    + pattern[1])
        for _ in range(5):
            sc, _, _ = rand_draw(rng, model)
            sc = sc.with_efficiency(*(sc.transfer_efficiency * pattern))
            pb1 = [0.0] + sorted(rng.uniform(0, 8, size=12).tolist())
            pb2 = [0.0] + sorted(rng.uniform(0, 8, size=9).tolist())
            self.assert_matches_scalar(model, pb1, pb2, sc)

    @pytest.mark.parametrize("k", [0, 1])
    def test_twc_regime_boundaries(self, k):
        # node k has the larger noise, so both of its regime boundaries lie at
        # non-negative powers: raw_k = 0 where pb_j = a_k (n_k + pb_k) - n_j,
        # and raw_k = pb_k where pb_j = a_k (n_k - pb_k) - n_j
        gain_db, alpha = [-100.0, -100.0], [0.8, 0.8]
        gain_db[k], alpha[k] = -105.0, 0.9
        sc = make_scenario(alpha=alpha, gain_db=gain_db)
        n, a = sc.effective_noise_mw.tolist(), sc.transfer_efficiency.tolist()
        own = np.linspace(0.0, 1.5, 7).tolist()
        other = ([a[k] * (n[k] + p) - n[1 - k] for p in own]
                 + [a[k] * (n[k] - p) - n[1 - k] for p in own])
        assert min(other) >= 0
        self.assert_matches_scalar(ModelKind.TWC, *((own, other) if k == 0 else (other, own)), sc)


def level_at_before(pieces, x):
    """A level evaluated from its pieces as it was before SlotLevel.at."""
    _, slope, icpt = pieces[0]
    for start, s, c in pieces[1:]:
        if x < start:
            break
        slope, icpt = s, c
    return slope * x + icpt


def level_interval_before(model_kind, ki, pb1, pb2, sc):
    """A node's admissible level interval as it was before SlotLevel.limits."""
    pb = (pb1, pb2)
    x = pb[ki]
    pieces = level_pieces(model_kind, ki + 1, pb[1 - ki], sc)
    for (_, s_left, c_left), (start, s_right, c_right) in zip(pieces, pieces[1:]):
        if abs(x - start) <= 1e-9 * max(1.0, x):
            left, right = s_left * x + c_left, s_right * x + c_right
            return min(left, right), max(left, right)
    v = level_at_before(pieces, x)
    return v, v


class TestSlotLevel:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_at_and_limits_equal_the_piece_scans_bit_for_bit(self, model):
        # random powers, every piece start, and starts moved by 1e-10 (inside
        # the 1e-9 window of limits) and by 1e-8 (outside it)
        rng = np.random.default_rng(307 + list(ModelKind).index(model))
        split = 0
        for draw in range(240):
            sc, q, _ = rand_draw(rng, model)
            pattern = ((1, 1), (0, 1), (1, 0), (0, 0))[draw % 4]
            sc = sc.with_efficiency(*(sc.transfer_efficiency * pattern))
            q = 0.0 if draw % 5 == 0 else q
            k = 1 + (draw // 4) % 2
            pieces = level_pieces(model, k, q, sc)
            lev = SlotLevel(pieces)
            starts = [piece[0] for piece in pieces]
            xs = rng.uniform(0, 8, size=8).tolist() + starts
            xs += [x * f for x in starts for f in (1 - 1e-8, 1 - 1e-10, 1 + 1e-10, 1 + 1e-8)]
            for x in xs:
                assert lev.at(x) == level_at_before(pieces, x)
                limits = level_interval_before(model, k - 1, *((x, q) if k == 1 else (q, x)), sc)
                assert lev.limits(x) == limits
                split += limits[0] != limits[1]
        # the window branch runs wherever there is more than one piece
        assert (split > 0) == (model is not ModelKind.MAC)


def twc_transfer_before(pb1, pb2, sc):
    transfer._check_powers(pb1, pb2)
    d1, d2, regime = transfer._twc_split(pb1, pb2, *transfer._constants(sc))
    return SlotTransfer((d1, d2), regime, slot_rate(ModelKind.TWC, sc)(pb1, pb2))


def thc_transfer_before(pb1, pb2, sc):
    transfer._check_powers(pb1, pb2)
    d1, d2, regime = transfer._thc_split(pb1, pb2, *transfer._constants(sc))
    return SlotTransfer((d1, d2), regime, slot_rate(ModelKind.THC, sc)(pb1, pb2))


def mac_transfer_before(pb1, pb2, sc):
    transfer._check_powers(pb1, pb2)
    send1, send2 = transfer.mac_sends(sc)
    d1 = pb1 if send1 else 0.0
    d2 = pb2 if send2 else 0.0
    regime = Regime.FULL_1 if d1 > 0 else Regime.FULL_2 if d2 > 0 else Regime.NO_TRANSFER
    return SlotTransfer((d1, d2), regime, slot_rate(ModelKind.MAC, sc)(pb1, pb2))


class TestSlotTransfer:
    @pytest.mark.parametrize("model, before", [
        (ModelKind.TWC, twc_transfer_before), (ModelKind.THC, thc_transfer_before),
        (ModelKind.MAC, mac_transfer_before)])
    def test_equals_the_per_model_transfers_bit_for_bit(self, model, before):
        # the one entry point against the per-model functions it replaced
        rng = np.random.default_rng(311 + list(ModelKind).index(model))
        regimes = set()
        for draw in range(1200):
            sc, pb1, pb2 = rand_draw(rng, model)
            pattern = ((1, 1), (0, 1), (1, 0), (0, 0))[draw % 4]
            sc = sc.with_efficiency(*(sc.transfer_efficiency * pattern))
            pb1 = 0.0 if draw % 7 == 0 else pb1
            pb2 = 0.0 if draw % 11 == 0 else pb2
            st = slot_transfer(model, pb1, pb2, sc)
            assert st == before(pb1, pb2, sc)
            regimes.add(st.regime)
        assert len(regimes) == {ModelKind.TWC: 5, ModelKind.THC: 3, ModelKind.MAC: 3}[model]
