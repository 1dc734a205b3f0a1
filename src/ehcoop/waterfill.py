"""Consumed-power allocation solvers.

Single-node generalized directional water-filling over the exact per-slot
levels (piecewise affine, so each pool's common level is one linear
solve): the taut string between the cumulative arrivals and the overflow
floor, for either battery kind (an infinite battery has no floor before
the last slot).  The MAC reduces to a single node with SNR-weighted
arrivals g1*E1 + g2*E2 (transfer.mac_gains), whose staircase policy is
that same taut string with each slot's level equal to its power.  Around
it: one loop (bcd_solve) that solves the two nodes alternately, for both
battery kinds, each pass followed, on the two-hop min-rate objective, by
one combined-flow polish sweep.  Each node keeps one state (_Node) for
the whole solve: its slot levels, rebuilt only where the other node's
power moved, and its pivot list, which the water-fill refills first.

Solvers operate internally on a unit-slot copy of the scenario (noise
scaled by slot length) so that consumed power and per-slot energy are the
same number.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import transfer
from .model import (
    DecomposedPolicy,
    InputError,
    ModelKind,
    Scenario,
    TransferPolicy,
    objective as policy_objective,
    recover_transmit_powers,
)

ENERGY_TOL = 1e-11
MAX_PASSES = 500
SEARCH_PROBES = 96  # probes per polish line search, its screen included


class CooperationMode(enum.Enum):
    BIDIRECTIONAL = "bidirectional"
    UNI_1_TO_2 = "uni_1_to_2"
    UNI_2_TO_1 = "uni_2_to_1"
    NO_COOPERATION = "no_cooperation"


def effective_scenario(sc: Scenario, mode: CooperationMode) -> Scenario:
    """Zero out the transfer efficiencies a mode forbids."""
    a1, a2 = sc.transfer_efficiency
    if mode is CooperationMode.UNI_1_TO_2:
        a2 = 0.0
    elif mode is CooperationMode.UNI_2_TO_1:
        a1 = 0.0
    elif mode is CooperationMode.NO_COOPERATION:
        a1 = a2 = 0.0
    return sc.with_efficiency(a1, a2)


@dataclass(frozen=True, slots=True)
class SolveReport:
    policy: DecomposedPolicy
    transmit: TransferPolicy
    objective_nats: float
    levels: np.ndarray            # [node, slot] generalized water levels
    bcd_iterations: int           # bcd_solve passes (0 for the MAC staircase)
    level_residual: float
    mode: CooperationMode
    converged: bool = True

    @property
    def objective_bits(self) -> float:
        return self.objective_nats / math.log(2.0)


# ---------------------------------------------------------------------------
# single-node directional water-filling over each slot's transfer.SlotLevel:
# a taut string for both battery kinds and for the MAC staircase


class _Pool:
    """Slots held at one common water level, solved for any number of
    budgets, and grown one slot at a time by `add`.  Its knots are kept
    sorted, and each knot's total inverse is extended over the slots added
    since, in slot order, only when a solve reads it.  `rise` sums the
    inverse slopes of the unbounded last pieces; each is 1 or 1/2 (level
    slopes are 1 or 2), so the running sum is exact."""

    __slots__ = ("levels", "caps", "cap_total", "rise", "knots", "invs", "totals")

    def __init__(self, levels=()):
        self.levels, self.caps, self.cap_total, self.rise = [], [], 0, 0.0
        # per knot: the inverse of each slot counted so far, and their sum
        self.knots, self.invs, self.totals = [], [], []
        for lev in levels:
            self.add(lev)

    def add(self, lev):
        """Append one slot, merging its knots into the sorted list."""
        self.levels.append(lev)
        self.caps.append(lev.cap)
        self.cap_total = sum(self.caps)  # as summed afresh, on every Python
        if math.isinf(lev.cap):
            self.rise += 1.0 / lev.rows[-1][1]
        knots = self.knots
        for x in lev.knots:
            i = bisect.bisect_left(knots, x)
            if i == len(knots) or knots[i] != x:
                knots.insert(i, x)
                self.invs.insert(i, [])
                self.totals.insert(i, None)

    def _total(self, j):
        invs, levels = self.invs[j], self.levels
        if len(invs) < len(levels):
            x = self.knots[j]
            invs += [lev.inv(x) for lev in levels[len(invs):]]
            self.totals[j] = sum(invs)
        return self.totals[j]

    def solve(self, budget):
        """Rank of the pool holding `budget`: (the lowest common level that
        absorbs it, 0.0), or (inf, surplus per slot) when the slots' flat
        directions cap the pool below the budget and the surplus is spread
        evenly over them.

        The pool's total inverse is continuous, non-decreasing and piecewise
        affine in the level, so bracketing the budget between two sorted
        knots leaves one linear solve.
        """
        levels = self.levels
        if budget <= 0:
            return 0.0, 0.0
        cap_total = self.cap_total
        # slots all flat from zero have no knots and take nothing
        if cap_total < budget - ENERGY_TOL or cap_total == 0:
            return math.inf, (budget - cap_total) / len(levels)
        knots, total = self.knots, self._total
        # the probes of bisecting the knots by their totals
        i = bisect.bisect_left(range(len(knots)), budget, key=total)
        if i < len(knots):
            lo, hi = knots[i - 1], knots[i]
            f_lo, f_hi = total(i - 1), total(i)
            return lo + (budget - f_lo) * (hi - lo) / (f_hi - f_lo), 0.0
        # past the last knot only unbounded last pieces still rise; with none
        # the budget is within ENERGY_TOL of the caps
        level = knots[-1]
        if self.rise > 0:
            level += (budget - total(len(knots) - 1)) / self.rise
        return level, 0.0

    def fill(self, m, rank):
        """Powers of the first m slots at the rank `solve` gave while the
        pool held those m slots: each slot's inverse at the level, or its cap
        plus the spread surplus."""
        level, spread = rank
        if math.isinf(level):
            return [cap + spread for cap in self.caps[:m]]
        return [lev.inv(level) for lev in self.levels[:m]]


def _refill(upper, lower, levels, pivots):
    """The string through the given pivots (start, end, ends_on_upper), one
    pool per segment, or None unless it is the taut string: the running
    consumption stays within [L, U] between pivots, and the rank (level,
    spread) that _Pool.solve gives does not fall after an empty-battery
    pivot nor rise after a full-battery one, compared as the scan compares
    them (the directional certificate, sufficient for the optimum)."""
    out = []
    b0 = 0.0
    prev = None  # (rank, ends_on_upper) of the segment before
    for start, end, on_upper in pivots:
        pool = _Pool(levels[start:end])
        b1 = (upper if on_upper else lower)[end - 1]
        rank = pool.solve(b1 - b0)
        if prev is not None and (rank < prev[0] if prev[1] else rank > prev[0]):
            return None
        fill = pool.fill(end - start, rank)
        run = b0
        for j, p in enumerate(fill[:-1], start):
            run += p
            if not lower[j] <= run <= upper[j]:
                return None
        out += fill
        b0, prev = b1, (rank, on_upper)
    return out


def _dwf_bounded(arrivals, capacity, levels, pivots):
    """Single-node directional water-filling with a battery of `capacity`.

    Cumulative consumption is the taut string between the cumulative
    arrivals U (the battery cannot go below empty) and L = U - capacity (nor
    above full), ending on U: every arrival is consumed.  An infinite
    capacity puts L at -inf before the last slot.  From the last
    pivot, the segments to U and to L are ranked by the pool level that
    absorbs them (a slope, when each slot's level is its power); the string
    bends on the lowest segment to U once a segment to L must lie above it
    (the battery empties there, and the level rises), or on the highest
    segment to L once a segment to U must lie below it (the battery is full,
    and the level falls).  Each pivot grows one pool by a slot per
    candidate end, and its segments to U and to L share it; segments are
    ranked by level alone, and only the pivot's powers are filled.  Returns
    the consumed power per slot.

    `pivots` is the node's list of (start, end, ends_on_upper) from its
    last solve, or empty.  A non-empty list is refilled at these levels
    first (_refill) and kept when that passes the certificate; otherwise the
    scan runs and the list is replaced by its pivots, flat-capped pools
    included.  Where the scan would pick the same pivots, the pools,
    budgets and fills are the scan's, so the powers are too.
    `levels` is read only during the call: its owner rebuilds it in place.
    """
    upper = np.cumsum(arrivals)
    lower = upper - capacity
    lower[-1] = upper[-1]
    upper, lower = upper.tolist(), lower.tolist()
    n = len(upper)
    if pivots:
        out = _refill(upper, lower, levels, pivots)
        if out is not None:
            return np.array(out)
    out = np.zeros(n)
    found = []
    i0, b0 = 0, 0.0
    while i0 < n:
        hi = lo = None  # (rank, end) of the tightest segment to U, to L
        pool = _Pool()
        for j in range(i0 + 1, n + 1):
            pool.add(levels[j - 1])
            up = (pool.solve(upper[j - 1] - b0), j)
            down = up if j == n else (pool.solve(lower[j - 1] - b0), j)
            if hi is not None and down[0] > hi[0]:
                (rank, end), on_upper = hi, True
                break
            if lo is not None and lo[0] > up[0]:
                (rank, end), on_upper = lo, False
                break
            if hi is None or up[0] < hi[0]:
                hi = up
            if lo is None or down[0] > lo[0]:
                lo = down
        else:
            (rank, end), on_upper = up, True
        out[i0:end] = pool.fill(end - i0, rank)
        found.append((i0, end, on_upper))
        i0, b0 = end, (upper if on_upper else lower)[end - 1]
    pivots[:] = found
    return out


# ---------------------------------------------------------------------------
# certificates


def _node_level_residual(levels, ki, pb, ssc):
    """Max relative violation of node ki's directional-level certificate over
    its slot `levels`: a non-decreasing level selection must exist, rising
    only after empty-battery slots and falling only after full-battery ones."""
    cap = ssc.battery_capacity[ki]
    state = np.cumsum(ssc.harvests[ki] - pb[ki])
    # the busy slots' level intervals; flat directions carry no marginal information
    pinned = [(i, *levels[i].limits(x)) for i, x in enumerate(pb[ki]) if x > 1e-12]
    pinned = [(i, lo, hi) for i, lo, hi in pinned if not math.isinf(lo)]
    # propagate the interval of feasible level selections forward; empty
    # slots release the lower monotonicity bound, full slots the upper one
    worst = 0.0
    a = b = None  # feasible selection range carried so far
    prev_i = None
    for i, lo, hi in pinned:
        if a is None:
            a, b = lo, hi
        else:
            empty = bool(np.any(state[prev_i:i] <= 1e-9))
            full = (not math.isinf(cap)) and bool(np.any(state[prev_i:i] >= cap - 1e-9))
            # no decrease unless a full slot intervened; no increase unless
            # an empty slot did
            nlo = lo if full else max(lo, a)
            nhi = hi if empty else min(hi, b)
            if nlo > nhi * (1 + 1e-12) + 1e-12:
                worst = max(worst, (nlo - nhi) / max(nhi, 1e-12))
                nlo = nhi = max(lo, min(hi, nhi))
            a, b = nlo, nhi
        prev_i = i
    return worst


def _capacity_objective(model_kind, pb, ssc):
    rate = transfer.slot_rate(model_kind, ssc)
    total = 0.0
    for p1, p2 in zip(*pb.tolist()):
        total += rate(p1, p2)
    return total


def _build_report(sc, eff, ssc, pb, mode, iterations, converged, nodes):
    """Assemble a SolveReport from converged consumed energies (2xN, mJ)."""
    n = sc.n_slots
    dt = sc.slot_seconds
    gamma = np.zeros((2, n))
    for i in range(n):
        st = transfer.slot_transfer(ssc.model_kind, pb[0, i], pb[1, i], ssc)
        gamma[0, i], gamma[1, i] = st.delta
    dp = DecomposedPolicy(consumed=pb / dt, immediate=gamma, stored=np.zeros((2, n)))
    transmit = recover_transmit_powers(dp, eff)
    obj = policy_objective(transmit, eff)
    slot_levels = [node.slot_levels(pb) for node in nodes]
    levels = np.array([[lev.at(x) for lev, x in zip(slot_levels[ki], pb[ki].tolist())]
                       for ki in range(2)])
    residual = max(_node_level_residual(slot_levels[ki], ki, pb, ssc) for ki in range(2))
    return SolveReport(policy=dp, transmit=transmit, objective_nats=obj,
                       levels=levels, bcd_iterations=iterations,
                       level_residual=residual, mode=mode, converged=converged)


# ---------------------------------------------------------------------------
# the alternation of node solves and its two-hop polish, for both battery
# kinds


class _Node:
    """Node ki's state for one solve: its slot levels, each with the other
    node's power it was built from, and its pivot list."""

    __slots__ = ("ki", "ssc", "levels", "built", "pivots")

    def __init__(self, ki, ssc):
        self.ki, self.ssc = ki, ssc
        self.levels = [None] * ssc.n_slots
        self.built = [math.nan] * ssc.n_slots  # NaN differs from every power
        self.pivots = []

    def slot_levels(self, pb):
        """The node's slot levels against pb's other row, rebuilt in place
        only in the slots whose other-node power changed."""
        levels, built, ssc = self.levels, self.built, self.ssc
        for i, q in enumerate(pb[1 - self.ki].tolist()):
            if q != built[i]:
                built[i] = q
                levels[i] = transfer.SlotLevel(
                    transfer.level_pieces(ssc.model_kind, self.ki + 1, q, ssc))
        return levels

    def solve(self, pb):
        """Re-solve the node's whole allocation in pb with the other node's
        held fixed; every arrival is consumed by the last slot."""
        ki, ssc = self.ki, self.ssc
        pb[ki] = _dwf_bounded(ssc.harvests[ki], ssc.battery_capacity[ki],
                              self.slot_levels(pb), self.pivots)


def _brent_max(f, tmax, xtol, probes):
    """Brent's method for the maximum of a concave f on [0, tmax]: golden
    steps with parabolic interpolation (Brent 1973, the fminbound scheme),
    stopped after `probes` probes, once the bracket reaches within 2/3 xtol
    of its best probe on both sides, or once concavity bounds what the
    bracket can still gain by 1e-15*max(1, |f|).  That bound needs a probe
    on each side of the best probe x: the secant through x and its nearest
    probe on one side caps f on the other side of x, so on the bracket
    [a, b] f exceeds f(x) by at most max(s_r*(x - a), s_l*(b - x)), where
    s_l >= 0 is the secant slope from the left neighbour up to x and
    s_r >= 0 the one from the right neighbour.  Each slope is taken one
    rounding unit of f steeper, so two close probes whose values round to
    a tie do not switch the bound off.  On a flat-topped move this stops
    once the top is found, not once its bracket is xtol wide.  Probes lie
    in [0, tmax] and at least xtol/3 apart; the caller keeps what they
    found."""
    c = (3.0 - math.sqrt(5.0)) / 2.0
    tol1 = xtol / 3.0
    tol2 = 2.0 * tol1
    a, b = 0.0, tmax
    # x is the best probe, w the second best, v the one before w
    x = w = v = c * tmax
    fx = fw = fv = f(x)
    ts, fs = [x], [fx]  # every probe, sorted by position
    d = e = 0.0
    for _ in range(probes - 1):
        xm = 0.5 * (a + b)
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        j, k = bisect.bisect_left(ts, x), bisect.bisect_right(ts, x)
        if 0 < j and k < len(ts):
            # each value may be one unit in the last place off
            scale = max(1.0, abs(fx))
            s_l = (fx - fs[j - 1] + math.ulp(scale)) / (x - ts[j - 1])
            s_r = (fx - fs[k] + math.ulp(scale)) / (ts[k] - x)
            if max(s_r * (x - a), s_l * (b - x)) <= 1e-15 * scale:
                break
        golden = True
        if abs(e) > tol1:
            # the vertex of the parabola through x, w and v, taken when it
            # falls inside the bracket and moves less than half the step
            # before last
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = c * e
        step = max(abs(d), tol1)
        u = x + step if d >= 0 else x - step
        fu = f(u)
        j = bisect.bisect(ts, u)
        ts.insert(j, u)
        fs.insert(j, fu)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _search_move(base, tmax, apply_fn, objective_fn):
    """Maximize the move value t -> objective_fn(apply_fn(t)) on [0, tmax];
    returns (the best probed allocation or None, its objective), None unless
    it beats `base`, the value at t = 0, by more than 1e-12.

    The move value is concave: a partial maximization of a jointly concave
    objective over the re-solved node.  So one probe at 1e-5*tmax that gains
    nothing rules the whole move out; otherwise Brent's method searches on
    until its bracket is 1e-10*tmax wide or concavity bounds what the
    bracket can still gain by 1e-15 of the value (at once on a flat top),
    within SEARCH_PROBES probes in all.
    """
    if tmax <= 1e-13:
        return None, base
    best = [base, None]

    def value(t):
        trial = apply_fn(t)
        val = objective_fn(trial)
        if val > best[0]:
            best[:] = val, trial
        return val

    if value(1e-5 * tmax) <= base + 1e-13:
        return None, base
    _brent_max(value, tmax, 1e-10 * tmax, SEARCH_PROBES - 1)
    val, trial = best
    if val > base + 1e-12:
        return trial, val
    return None, base


def _joint_polish(pb, ssc, nodes):
    """Escape kink stalls of the nonsmooth two-hop objective: line-search a
    move of one node's consumption between adjacent slots while re-solving
    the other node's whole allocation, which lets both fluids shift together.

    A forward move (slot i to i+1) is capped by the battery headroom after
    slot i, so with an infinite battery it can take all of slot i.  When it
    does not improve, a backward move (slot i+1 to i) capped by the energy
    stored after slot i is tried.  The re-solves go through the nodes'
    solve states, so a probe rebuilds only the slot levels its move changed.
    """
    model = ssc.model_kind
    cap = ssc.battery_capacity.tolist()
    # the probes refill from the nodes' pivot lists, but the loop goes on
    # from its own: a probe's string can tie with it and round differently
    kept = [list(node.pivots) for node in nodes]

    def obj(trial):
        return _capacity_objective(model, trial, ssc)

    base = obj(pb)
    improved = False
    for k in range(2):
        for i in range(ssc.n_slots - 1):
            stored = float(np.cumsum(ssc.harvests[k] - pb[k])[i])

            def move(t, k=k, i=i):
                trial = pb.copy()
                trial[k, i] -= t
                trial[k, i + 1] += t
                nodes[1 - k].solve(trial)
                return trial

            trial, base = _search_move(base, min(pb[k, i], cap[k] - stored), move, obj)
            if trial is None:
                trial, base = _search_move(base, min(pb[k, i + 1], stored),
                                           lambda t: move(-t), obj)
            if trial is not None:
                pb[:, :] = trial
                improved = True
    for node, pivots in zip(nodes, kept):
        node.pivots = pivots
    return improved


def bcd_solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Alternating per-node directional water-filling, for any model and
    either battery kind.  Each pass solves node 1, then node 2, then, on the
    two-hop channel, runs one joint polish sweep for its kink.  The first
    pass whose node solves move no consumed power by 1e-10, after a polish
    that found nothing (or none, off the two-hop channel), ends the loop;
    MAX_PASSES passes end it unconverged.  Each node keeps one solve state
    across passes, the polish and the report."""
    eff = effective_scenario(sc, mode)
    ssc = eff.unit_slot()
    pb = np.array(ssc.harvests, dtype=float)
    nodes = (_Node(0, ssc), _Node(1, ssc))
    two_hop = ssc.model_kind is ModelKind.THC
    improved = two_hop
    for passes in range(1, MAX_PASSES + 1):
        prev_pb = pb.copy()
        nodes[0].solve(pb)
        nodes[1].solve(pb)
        if not improved and float(np.max(np.abs(pb - prev_pb))) < 1e-10:
            return _build_report(sc, eff, ssc, pb, mode, passes, True, nodes)
        improved = two_hop and _joint_polish(pb, ssc, nodes)
    return _build_report(sc, eff, ssc, pb, mode, MAX_PASSES, False, nodes)


# ---------------------------------------------------------------------------
# MAC


def staircase(aggregate, capacity) -> np.ndarray:
    """Single-node optimal consumed powers for aggregate arrivals: the taut
    string between cumulative arrivals and the overflow floor, which is
    _dwf_bounded with the level of every slot equal to its power."""
    agg = np.asarray(aggregate, dtype=float)
    if agg.ndim != 1 or agg.size == 0:
        raise InputError(f"aggregate arrivals must be 1-D and non-empty, got shape {agg.shape}")
    if not (np.isfinite(agg).all() and (agg >= 0).all()):
        raise InputError("aggregate arrivals must be finite and non-negative")
    if not capacity > 0:
        raise InputError(f"capacity must be positive (or INFINITE), got {capacity}")
    return _dwf_bounded(agg, capacity, [transfer.SlotLevel(((0.0, 1.0, 0.0),))] * len(agg), [])


def mac_solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """MAC solver: the staircase of the pooled arrivals g1*E1 + g2*E2, in
    SNR units (transfer.mac_gains), split back to the users with the
    senders' energy spent first; infinite batteries only (solve sends
    finite capacities to the alternation)."""
    if sc.model_kind is not ModelKind.MAC:
        raise InputError("mac_solve requires a MAC scenario")
    if not all(math.isinf(c) for c in sc.battery_capacity):
        raise InputError("mac_solve requires INFINITE battery capacities")
    eff = effective_scenario(sc, mode)
    ssc = eff.unit_slot()
    n = ssc.n_slots
    g = transfer.mac_gains(ssc)
    s = staircase(g[0] * ssc.harvests[0] + g[1] * ssc.harvests[1], math.inf)
    order = (1, 0) if transfer.mac_sends(ssc)[1] else (0, 1)  # senders first
    pb = np.zeros((2, n))
    spent = [0.0, 0.0]
    cum = [0.0, 0.0]
    for i in range(n):
        rem = s[i]
        for k in range(2):
            cum[k] += g[k] * ssc.harvests[k][i]
        for k in order:
            take = min(cum[k] - spent[k], rem)
            take = max(take, 0.0)
            pb[k, i] = take / g[k]
            spent[k] += take
            rem -= take
        if rem > 1e-7 * max(1.0, s[i]):
            raise InputError("staircase split exceeded pooled availability")
    return _build_report(sc, eff, ssc, pb, mode, 0, True, (_Node(0, ssc), _Node(1, ssc)))


# ---------------------------------------------------------------------------
# front door


def solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """The staircase for a MAC with infinite batteries, else the alternation."""
    if sc.model_kind is ModelKind.MAC and all(math.isinf(c) for c in sc.battery_capacity):
        return mac_solve(sc, mode)
    return bcd_solve(sc, mode)
