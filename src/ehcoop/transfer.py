"""Per-slot optimal energy transfers and generalized water levels.

The inner problem of the decomposition: for fixed consumed powers
(pb1, pb2) in a single slot, find the transfer that maximizes the slot
rate, the resulting rate, and the marginal water levels.  The levels are
exact: piecewise affine in a node's own consumed power (level_pieces).

All functions take consumed powers in mW (equivalently mJ for unit slots)
and read effective noises and efficiencies from the Scenario, as Python
floats (through .tolist()): numpy scalars give the same values at about
twice the cost per operation.  rate_grid is the array form of the slot
rate, for tables over many consumed powers at once (the DP oracle).
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


def twc_transfer(pb1, pb2, sc: Scenario) -> SlotTransfer:
    """Two-way channel: the positive candidate of
    d_k = min(pb_k, [ (n_k+pb_k) - (n_j+pb_j)/a_k ]+ / 2) wins."""
    _check_powers(pb1, pb2)
    n1, n2 = sc.effective_noise_mw.tolist()
    a1, a2 = sc.transfer_efficiency.tolist()
    pb = (pb1, pb2)
    nn = (n1, n2)
    aa = (a1, a2)
    raw = [-math.inf, -math.inf]
    for k in range(2):
        j = 1 - k
        if aa[k] > 0:
            raw[k] = 0.5 * ((nn[k] + pb[k]) - (nn[j] + pb[j]) / aa[k])
    cand = [min(pb[k], max(0.0, raw[k])) for k in range(2)]
    if raw[0] >= -BOUNDARY_TOL and raw[0] > raw[1]:
        delta = (cand[0], 0.0)
        regime = Regime.FULL_1 if raw[0] > pb1 + BOUNDARY_TOL else Regime.INTERIOR_1
    elif raw[1] >= -BOUNDARY_TOL:
        delta = (0.0, cand[1])
        regime = Regime.FULL_2 if raw[1] > pb2 + BOUNDARY_TOL else Regime.INTERIOR_2
    else:
        delta = (0.0, 0.0)
        regime = Regime.NO_TRANSFER
    return SlotTransfer(delta, regime, twc_case_rate(pb1, pb2, regime, sc))


def twc_case_rate(pb1, pb2, regime: Regime, sc: Scenario) -> float:
    """The five-case closed form for the optimal-transfer slot rate."""
    n1, n2 = sc.effective_noise_mw.tolist()
    a1, a2 = sc.transfer_efficiency.tolist()
    if regime is Regime.NO_TRANSFER:
        return 0.5 * math.log1p(pb1 / n1) + 0.5 * math.log1p(pb2 / n2)
    if regime is Regime.INTERIOR_1:
        s = (n1 + pb1) + (n2 + pb2) / a1
        return math.log(0.5 * s * math.sqrt(a1 / (n1 * n2)))
    if regime is Regime.INTERIOR_2:
        s = (n2 + pb2) + (n1 + pb1) / a2
        return math.log(0.5 * s * math.sqrt(a2 / (n1 * n2)))
    if regime is Regime.FULL_1:
        return 0.5 * math.log1p((pb2 + a1 * pb1) / n2)
    return 0.5 * math.log1p((pb1 + a2 * pb2) / n1)


def _thc_weights(sc):
    # w_k = sigma_k^2 * h_k, up to a common factor: w1:w2 == n2:n1
    n1, n2 = sc.effective_noise_mw.tolist()
    return n2, n1


def thc_transfer(pb1, pb2, sc: Scenario) -> SlotTransfer:
    """Two-hop channel: transfer equalizes the two received powers."""
    _check_powers(pb1, pb2)
    a1, a2 = sc.transfer_efficiency.tolist()
    w1, w2 = _thc_weights(sc)
    d1 = d2 = 0.0
    regime = Regime.NO_TRANSFER
    num = w1 * pb1 - w2 * pb2
    if num > BOUNDARY_TOL and a1 > 0:
        d1 = num / (a1 * w2 + w1)
        regime = Regime.INTERIOR_1
    elif num < -BOUNDARY_TOL and a2 > 0:
        d2 = -num / (a2 * w1 + w2)
        regime = Regime.INTERIOR_2
    return SlotTransfer((d1, d2), regime,
                        applied_rate(ModelKind.THC, pb1, pb2, (d1, d2), sc))


def mac_sends(sc: Scenario) -> tuple:
    """Whether each user transfers its whole power; a channel constant.

    With c_k = 1/n_k the per-user SNR coefficient of the sum-capacity, user
    k sends iff a_k*c_j > c_k strictly; ties resolve to no transfer.
    """
    n1, n2 = sc.effective_noise_mw.tolist()
    a1, a2 = sc.transfer_efficiency.tolist()
    return a1 * (1.0 / n2) > 1.0 / n1, a2 * (1.0 / n1) > 1.0 / n2


def mac_gains(sc: Scenario) -> tuple:
    """SNR per unit of consumed power of each MAC user, (g1, g2): with
    c_k = 1/n_k, g_k = a_k*c_j when user k sends (mac_sends), else c_k; so
    g_k is the larger of the two.

    The slot rate is 0.5*log1p(g1*pb1 + g2*pb2), so the MAC is a single
    node with arrivals g1*E1 + g2*E2.
    """
    n1, n2 = sc.effective_noise_mw.tolist()
    a1, a2 = sc.transfer_efficiency.tolist()
    c1, c2 = 1.0 / n1, 1.0 / n2
    return max(a1 * c2, c1), max(a2 * c1, c2)


def mac_transfer(pb1, pb2, sc: Scenario) -> SlotTransfer:
    """Multiple access channel: a linear program solved at a corner."""
    _check_powers(pb1, pb2)
    send1, send2 = mac_sends(sc)
    d1 = pb1 if send1 else 0.0
    d2 = pb2 if send2 else 0.0
    if send1 and d1 > 0:
        regime = Regime.FULL_1
    elif send2 and d2 > 0:
        regime = Regime.FULL_2
    else:
        regime = Regime.NO_TRANSFER
    return SlotTransfer((d1, d2), regime,
                        applied_rate(ModelKind.MAC, pb1, pb2, (d1, d2), sc))


def slot_transfer(model_kind, pb1, pb2, sc: Scenario) -> SlotTransfer:
    if model_kind is ModelKind.TWC:
        return twc_transfer(pb1, pb2, sc)
    if model_kind is ModelKind.THC:
        return thc_transfer(pb1, pb2, sc)
    return mac_transfer(pb1, pb2, sc)


def rate_grid(model_kind, pb1, pb2, sc: Scenario) -> np.ndarray:
    """slot_transfer(model_kind, x, y, sc).rate_nats for every x in pb1 and
    y in pb2, as an array of shape (len(pb1), len(pb2)).

    One array expression per model, with the regime tests, BOUNDARY_TOL and
    closed forms of the scalar functions above; the values agree with them
    to within the last bits of the logarithms.
    """
    x = np.asarray(pb1, dtype=float)[:, None]
    y = np.asarray(pb2, dtype=float)[None, :]
    _check_powers(x.min(), y.min())
    n1, n2 = sc.effective_noise_mw.tolist()
    a1, a2 = sc.transfer_efficiency.tolist()
    if model_kind is ModelKind.TWC:
        # the alpha = 0 branches divide by zero; the regime tests never pick them
        with np.errstate(divide="ignore", invalid="ignore"):
            raw1 = 0.5 * ((n1 + x) - (n2 + y) / a1) if a1 > 0 else np.full_like(x, -math.inf)
            raw2 = 0.5 * ((n2 + y) - (n1 + x) / a2) if a2 > 0 else np.full_like(y, -math.inf)
            one = (raw1 >= -BOUNDARY_TOL) & (raw1 > raw2)
            two = ~one & (raw2 >= -BOUNDARY_TOL)
            return np.select(
                [one & (raw1 > x + BOUNDARY_TOL), one,
                 two & (raw2 > y + BOUNDARY_TOL), two],
                [0.5 * np.log1p((y + a1 * x) / n2),
                 np.log(0.5 * ((n1 + x) + (n2 + y) / a1) * math.sqrt(a1 / (n1 * n2))),
                 0.5 * np.log1p((x + a2 * y) / n1),
                 np.log(0.5 * ((n2 + y) + (n1 + x) / a2) * math.sqrt(a2 / (n1 * n2)))],
                0.5 * np.log1p(x / n1) + 0.5 * np.log1p(y / n2))
    if model_kind is ModelKind.THC:
        num = n2 * x - n1 * y        # w1 * pb1 - w2 * pb2, as in thc_transfer
        d1 = np.where(num > BOUNDARY_TOL, num / (a1 * n1 + n2), 0.0) if a1 > 0 else 0.0
        d2 = np.where(num < -BOUNDARY_TOL, -num / (a2 * n2 + n1), 0.0) if a2 > 0 else 0.0
    else:
        send1, send2 = mac_sends(sc)
        d1, d2 = (x if send1 else 0.0), (y if send2 else 0.0)
    p1 = np.maximum(x - d1 + a2 * d2, 0.0)
    p2 = np.maximum(y - d2 + a1 * d1, 0.0)
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


def level_at(pieces, x) -> float:
    """Evaluate level pieces at own consumed power x."""
    _, slope, icpt = pieces[0]
    for start, s, c in pieces[1:]:
        if x < start:
            break
        slope, icpt = s, c
    return slope * x + icpt


def water_level(model_kind, k, pb1, pb2, sc: Scenario) -> float:
    """Generalized water level v_k = 1/(dR/dpb_k) for node k in {1,2}.

    Strictly increasing in own consumed power; +inf where the marginal rate
    is zero (flat directions of the THC min).
    """
    _check_powers(pb1, pb2)
    own, other = (pb1, pb2) if k == 1 else (pb2, pb1)
    return level_at(level_pieces(model_kind, k, other, sc), own)
