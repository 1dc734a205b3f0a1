"""Per-slot optimal energy transfers and generalized water levels.

The inner problem of the decomposition: for fixed consumed powers
(pb1, pb2) in a single slot, find the transfer that maximizes the slot
rate (slot_transfer), and the marginal water levels: exact, piecewise
affine in a node's own consumed power (level_pieces), read through SlotLevel.

All functions take consumed powers in mW (equivalently mJ for unit slots)
and read effective noises and efficiencies from the Scenario, as Python
floats (through .tolist()): numpy scalars give the same values at about
twice the cost per operation.  Each model has one split, (pb1, pb2,
n1, n2, a1, a2) -> (d1, d2, regime), and its slot rate is the channel
rate of that split applied.  slot_rate is the slot rate alone, with the
constants read once, for sums over many slots (the solvers' objective);
slot_transfer takes its rate from it.  rate_grid is the array form of the
slot rate, for tables over many consumed powers at once (the DP oracle).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import InputError, ModelKind, Scenario, rate

BOUNDARY_TOL = 1e-12


class Regime(enum.Enum):
    NO_TRANSFER = "no-transfer"
    INTERIOR_1 = "interior-1"   # node 1 transfers part of its power
    INTERIOR_2 = "interior-2"
    FULL_1 = "full-1"           # node 1 transfers all of its power
    FULL_2 = "full-2"


@dataclass(frozen=True)
class SlotTransfer:
    delta: tuple
    regime: Regime
    rate_nats: float


def _check_powers(pb1, pb2):
    if pb1 < 0 or pb2 < 0:
        raise InputError("consumed powers must be non-negative")


def applied_rate(model_kind, pb1, pb2, delta, sc) -> float:
    """Slot capacity after applying transfers delta=(d1,d2) to (pb1,pb2)."""
    a1, a2 = sc.transfer_efficiency.tolist()
    p1 = pb1 - delta[0] + a2 * delta[1]
    p2 = pb2 - delta[1] + a1 * delta[0]
    return rate(model_kind, max(p1, 0.0), max(p2, 0.0), sc)


def _twc_split(pb1, pb2, n1, n2, a1, a2):
    """TWC transfer (d1, d2) and regime: the positive candidate of
    d_k = min(pb_k, [ (n_k+pb_k) - (n_j+pb_j)/a_k ]+ / 2) wins."""
    raw1 = 0.5 * ((n1 + pb1) - (n2 + pb2) / a1) if a1 > 0 else -math.inf
    raw2 = 0.5 * ((n2 + pb2) - (n1 + pb1) / a2) if a2 > 0 else -math.inf
    if raw1 >= -BOUNDARY_TOL and raw1 > raw2:
        return (min(pb1, max(0.0, raw1)), 0.0,
                Regime.FULL_1 if raw1 > pb1 + BOUNDARY_TOL else Regime.INTERIOR_1)
    if raw2 >= -BOUNDARY_TOL:
        return (0.0, min(pb2, max(0.0, raw2)),
                Regime.FULL_2 if raw2 > pb2 + BOUNDARY_TOL else Regime.INTERIOR_2)
    return 0.0, 0.0, Regime.NO_TRANSFER


def _thc_split(pb1, pb2, n1, n2, a1, a2):
    """THC transfer (d1, d2) and regime: it equalizes the two received
    powers.  With w_k = sigma_k^2 * h_k, w1:w2 == n2:n1, so the transfer
    starts where w1*pb1 - w2*pb2 leaves zero."""
    num = n2 * pb1 - n1 * pb2
    if num > BOUNDARY_TOL and a1 > 0:
        return num / (a1 * n1 + n2), 0.0, Regime.INTERIOR_1
    if num < -BOUNDARY_TOL and a2 > 0:
        return 0.0, -num / (a2 * n2 + n1), Regime.INTERIOR_2
    return 0.0, 0.0, Regime.NO_TRANSFER


def _mac_split(pb1, pb2, n1, n2, a1, a2):
    """MAC transfer (d1, d2) and regime: with c_k = 1/n_k the per-user SNR
    coefficient of the sum-capacity, user k transfers all its power iff
    a_k*c_j > c_k strictly; ties resolve to no transfer."""
    d1 = pb1 if a1 * (1.0 / n2) > 1.0 / n1 else 0.0
    d2 = pb2 if a2 * (1.0 / n1) > 1.0 / n2 else 0.0
    return d1, d2, (Regime.FULL_1 if d1 > 0 else Regime.FULL_2 if d2 > 0
                    else Regime.NO_TRANSFER)


def _constants(sc):
    return (*sc.effective_noise_mw.tolist(), *sc.transfer_efficiency.tolist())


def mac_sends(sc: Scenario) -> tuple:
    """Whether each user transfers its whole power (_mac_split); a channel
    constant."""
    d1, d2, _ = _mac_split(1.0, 1.0, *_constants(sc))
    return d1 > 0, d2 > 0


def mac_gains(sc: Scenario) -> tuple:
    """SNR per unit of consumed power of each MAC user, (g1, g2): with
    c_k = 1/n_k, g_k = a_k*c_j when user k sends (mac_sends), else c_k; so
    g_k is the larger of the two.

    The slot rate is 0.5*log1p(g1*pb1 + g2*pb2), so the MAC is a single
    node with arrivals g1*E1 + g2*E2.
    """
    n1, n2, a1, a2 = _constants(sc)
    c1, c2 = 1.0 / n1, 1.0 / n2
    return max(a1 * c2, c1), max(a2 * c1, c2)


def slot_transfer(model_kind, pb1, pb2, sc: Scenario) -> SlotTransfer:
    """The optimal transfer within one slot: the TWC's five regimes
    (_twc_split), the THC's equalized received powers (_thc_split) or the
    MAC's corner of a linear program (_mac_split), with slot_rate's rate."""
    _check_powers(pb1, pb2)
    split = (_twc_split if model_kind is ModelKind.TWC
             else _thc_split if model_kind is ModelKind.THC else _mac_split)
    d1, d2, regime = split(pb1, pb2, *_constants(sc))
    return SlotTransfer((d1, d2), regime, slot_rate(model_kind, sc)(pb1, pb2))


def slot_rate(model_kind, sc: Scenario):
    """The slot rate under the optimal transfer as a function rate(pb1, pb2)
    in nats, with the channel constants read once: slot_transfer's
    rate_nats, without its SlotTransfer.  Each model's rate is its split,
    applied to the consumed powers, then its channel rate (model.rate)."""
    n1, n2, a1, a2 = _constants(sc)
    if model_kind is ModelKind.TWC:
        def rate(pb1, pb2):
            _check_powers(pb1, pb2)
            d1, d2, _ = _twc_split(pb1, pb2, n1, n2, a1, a2)
            return (0.5 * math.log1p(max(pb1 - d1 + a2 * d2, 0.0) / n1)
                    + 0.5 * math.log1p(max(pb2 - d2 + a1 * d1, 0.0) / n2))
        return rate
    if model_kind is ModelKind.THC:
        def rate(pb1, pb2):
            _check_powers(pb1, pb2)
            d1, d2, _ = _thc_split(pb1, pb2, n1, n2, a1, a2)
            return min(0.5 * math.log1p(max(pb1 - d1 + a2 * d2, 0.0) / n1),
                       0.5 * math.log1p(max(pb2 - d2 + a1 * d1, 0.0) / n2))
        return rate

    def rate(pb1, pb2):
        _check_powers(pb1, pb2)
        d1, d2, _ = _mac_split(pb1, pb2, n1, n2, a1, a2)
        return 0.5 * math.log1p(max(pb1 - d1 + a2 * d2, 0.0) / n1
                                + max(pb2 - d2 + a1 * d1, 0.0) / n2)
    return rate


def rate_grid(model_kind, pb1, pb2, sc: Scenario) -> np.ndarray:
    """slot_transfer(model_kind, x, y, sc).rate_nats for every x in pb1 and
    y in pb2, as an array of shape (len(pb1), len(pb2)).

    The transfers of each model's split as arrays, with its regime tests
    and BOUNDARY_TOL, applied, then the channel rate, as in slot_rate; the
    values agree with it to within the last bits of the logarithms.
    """
    x = np.asarray(pb1, dtype=float)[:, None]
    y = np.asarray(pb2, dtype=float)[None, :]
    _check_powers(x.min(), y.min())
    n1, n2, a1, a2 = _constants(sc)
    if model_kind is ModelKind.TWC:
        raw1 = 0.5 * ((n1 + x) - (n2 + y) / a1) if a1 > 0 else np.full_like(x, -math.inf)
        raw2 = 0.5 * ((n2 + y) - (n1 + x) / a2) if a2 > 0 else np.full_like(y, -math.inf)
        one = (raw1 >= -BOUNDARY_TOL) & (raw1 > raw2)
        two = ~one & (raw2 >= -BOUNDARY_TOL)
        d1 = np.where(one, np.minimum(x, np.maximum(0.0, raw1)), 0.0)
        d2 = np.where(two, np.minimum(y, np.maximum(0.0, raw2)), 0.0)
    elif model_kind is ModelKind.THC:
        num = n2 * x - n1 * y        # w1 * pb1 - w2 * pb2, as in _thc_split
        d1 = np.where(num > BOUNDARY_TOL, num / (a1 * n1 + n2), 0.0) if a1 > 0 else 0.0
        d2 = np.where(num < -BOUNDARY_TOL, -num / (a2 * n2 + n1), 0.0) if a2 > 0 else 0.0
    else:
        send1, send2 = mac_sends(sc)
        d1, d2 = (x if send1 else 0.0), (y if send2 else 0.0)
    p1 = np.maximum(x - d1 + a2 * d2, 0.0)
    p2 = np.maximum(y - d2 + a1 * d1, 0.0)
    if model_kind is ModelKind.TWC:
        return 0.5 * np.log1p(p1 / n1) + 0.5 * np.log1p(p2 / n2)
    if model_kind is ModelKind.THC:
        return np.minimum(0.5 * np.log1p(p1 / n1), 0.5 * np.log1p(p2 / n2))
    return 0.5 * np.log1p(p1 / n1 + p2 / n2)


def _pieces(regions):
    """Sorted pieces on [0, inf) from (upper end, slope, intercept) regions in
    order of increasing power; regions ending at or before 0 drop out."""
    pieces, lo = [], 0.0
    for upper, slope, icpt in regions:
        if upper > lo:
            pieces.append((lo, slope, icpt))
            lo = upper
    return tuple(pieces)


def level_pieces(model_kind, k, q, sc: Scenario) -> tuple:
    """Node k's water level in one slot as a function of its own consumed
    power x, with the other node's consumed power fixed at q.

    Returns sorted affine pieces (start, slope, intercept): on
    [start, next start) the level is slope*x + intercept.  The first piece
    starts at 0.  A piece with intercept +inf is the two-hop flat direction
    (a_k = 0 on the sending side): the marginal rate is zero past its start.
    """
    if k not in (1, 2):
        raise InputError("node index k must be 1 or 2")
    ki = k - 1
    nn, aa = sc.effective_noise_mw.tolist(), sc.transfer_efficiency.tolist()
    n, m = nn[ki], nn[1 - ki]
    a, b = aa[ki], aa[1 - ki]
    if model_kind is ModelKind.TWC:
        # regimes by own power: the other node sends all, part, nobody sends,
        # node k sends all, node k sends part
        regions = []
        if b > 0:
            regions += [(b * (m - q) - n, 2.0, 2.0 * (n + b * q)),
                        (b * (m + q) - n, 1.0, n + b * (m + q))]
        if a > 0:
            base = (m + q) / a
            regions += [(base - n, 2.0, 2.0 * n), (n - base, 2.0, 2.0 * base),
                        (math.inf, 1.0, n + base)]
        else:
            regions.append((math.inf, 2.0, 2.0 * n))
        return _pieces(regions)
    if model_kind is ModelKind.THC:
        # w_k is proportional to the other node's noise: the kink is at m*x == n*q
        send = (0.0, math.inf) if a == 0 else (1.0, n + (m + q) / a)
        return _pieces([(n * q / m, 1.0, n + b * (m + q)), (math.inf, *send)])
    g = mac_gains(sc)
    return ((0.0, 1.0, (1.0 + g[1 - ki] * q) / g[ki]),)


class SlotLevel:
    """One node's water level in one slot against own consumed power, from
    level_pieces: strictly increasing with jumps, flat past the start of an
    intercept-inf piece.  Rows are (start, slope, intercept, end, level at
    start); `cap` is the most power the slot can use; `knots` are the sorted
    distinct levels where inv changes slope: each finite piece's value at
    its start and its left limit at its end."""

    __slots__ = ("rows", "cap", "knots")

    def __init__(self, pieces):
        self.rows, knots = [], set()
        for n, (start, slope, icpt) in enumerate(pieces, 1):
            end = pieces[n][0] if n < len(pieces) else math.inf
            low = slope * start + icpt
            self.rows.append((start, slope, icpt, end, low))
            if math.isfinite(icpt):
                knots.update((low, slope * end + icpt))
        self.cap = start if math.isinf(icpt) else math.inf  # from the last piece
        self.knots = sorted([x for x in knots if math.isfinite(x)])

    def at(self, x):
        """The level at own consumed power x, on the last piece that starts at
        or before x."""
        _, slope, icpt, _, _ = next((r for r in reversed(self.rows) if r[0] <= x), self.rows[0])
        return slope * x + icpt

    def limits(self, x):
        """Admissible level interval (lower, upper) at x: the left and right
        limits at a jump (the two-hop kink), where x within 1e-9 relative of a
        piece start counts as on it; elsewhere the level twice."""
        for (_, s_left, c_left, _, _), (start, s_right, c_right, _, _) in zip(
                self.rows, self.rows[1:]):
            if abs(x - start) <= 1e-9 * max(1.0, x):
                left, right = s_left * x + c_left, s_right * x + c_right
                return min(left, right), max(left, right)
        v = self.at(x)
        return v, v

    def inv(self, target):
        """Largest p with level(p) <= target: solve the piece that contains
        the target, or return the piece start when the target falls in a
        jump."""
        for start, slope, icpt, end, low in self.rows:
            if target <= low:
                return start
            p = max((target - icpt) / slope, start)  # monotone despite rounding
            if p < end:
                return p


def water_level(model_kind, k, pb1, pb2, sc: Scenario) -> float:
    """Generalized water level of node k in {1,2}, with R the slot rate in
    nats (slot_rate): v_k = 1/(dR/dpb_k) for the TWC, but 1/(2*dR/dpb_k)
    for the THC and MAC, whose level formulas drop the 1/2 of their rate
    (the inverse marginal of 2R, which has the same maximizers).

    Strictly increasing in own consumed power; +inf where the marginal rate
    is zero (flat directions of the THC min).
    """
    _check_powers(pb1, pb2)
    own, other = (pb1, pb2) if k == 1 else (pb2, pb1)
    return SlotLevel(level_pieces(model_kind, k, other, sc)).at(own)
