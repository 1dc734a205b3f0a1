"""Consumed-power allocation solvers.

Single-node generalized directional water-filling over the exact per-slot
levels (piecewise affine, so each pool's common level is one linear
solve), in two forms: a pool merge for an infinite battery, and the taut
string between the cumulative arrivals and the overflow floor for a finite
one.  The MAC reduces to a single node with SNR-weighted arrivals
g1*E1 + g2*E2 (transfer.mac_gains), whose staircase policy is that same
taut string with each slot's level equal to its power.  Around these:
block coordinate descent across the two nodes for infinite batteries and
the nodes solved alternately for finite ones, both with one combined-flow
refinement for the two-hop min-rate objective.

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
BCD_OBJ_TOL = 1e-10
BCD_MAX_ITER = 200
FINITE_MAX_PASSES = 500
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


@dataclass(frozen=True)
class SolveReport:
    policy: DecomposedPolicy
    transmit: TransferPolicy
    objective_nats: float
    levels: np.ndarray            # [node, slot] generalized water levels
    bcd_iterations: int
    level_residual: float
    mode: CooperationMode
    converged: bool = True

    @property
    def objective_bits(self) -> float:
        return self.objective_nats / math.log(2.0)


# ---------------------------------------------------------------------------
# per-slot level functions and their inversion


class _SlotLevel:
    """Water level of one node in one slot as a function of own consumed
    power, from its affine pieces (start, slope, intercept): strictly
    increasing with jumps, and flat past the start of an intercept-inf piece.
    Each piece is kept as a row (start, slope, intercept, end, level at
    start).  `cap` is the most power the slot can use; `knots` are the levels
    where inv changes slope (each finite piece's value at its start and its
    left limit at its end)."""

    def __init__(self, pieces):
        ends = [piece[0] for piece in pieces[1:]] + [math.inf]
        self.rows = [(start, slope, icpt, end, slope * start + icpt)
                     for (start, slope, icpt), end in zip(pieces, ends)]
        self.cap = pieces[-1][0] if math.isinf(pieces[-1][2]) else math.inf
        knots = []
        for start, slope, icpt, end, low in self.rows:
            if math.isfinite(icpt):
                knots += [low, slope * end + icpt]
        self.knots = [x for x in knots if math.isfinite(x)]

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


def _slot_levels(model_kind, k, other_powers, sc):
    return [_SlotLevel(transfer.level_pieces(model_kind, k, q, sc))
            for q in np.asarray(other_powers, dtype=float).tolist()]


def _relevel(levels, model_kind, k, other_powers, slots, sc):
    """A copy of `levels` with `slots` rebuilt for new other-node powers; the
    same list _slot_levels would build when only those slots' powers moved."""
    out = list(levels)
    for i in slots:
        out[i] = _SlotLevel(transfer.level_pieces(model_kind, k, float(other_powers[i]), sc))
    return out


# ---------------------------------------------------------------------------
# single-node directional water-filling: a pool merge for an infinite
# battery, a taut string for a finite one and for the MAC staircase


def _solve_pool(slots, levels, budget):
    """Allocate `budget` across pool `slots` at the lowest common level that
    absorbs it.

    The pool's total inverse is continuous, non-decreasing and piecewise
    affine in the level, so bracketing the budget between two sorted knots
    leaves one linear solve.  Returns (powers, level, surplus); surplus > 0
    when the slots' flat directions cap the pool below the budget.
    """
    pool = [levels[i] for i in slots]
    if budget <= 0:
        return [0.0] * len(pool), 0.0, 0.0
    caps = [lev.cap for lev in pool]
    cap_total = sum(caps)
    # slots all flat from zero have no knots and take nothing
    if cap_total < budget - ENERGY_TOL or cap_total == 0:
        return caps, math.inf, budget - cap_total

    def fill(level):
        return sum(lev.inv(level) for lev in pool)

    knots = sorted({x for lev in pool for x in lev.knots})
    i = bisect.bisect_left(knots, budget, key=fill)
    if i < len(knots):
        lo, hi = knots[i - 1], knots[i]
        f_lo, f_hi = fill(lo), fill(hi)
        level = lo + (budget - f_lo) * (hi - lo) / (f_hi - f_lo)
    else:
        # past the last knot only unbounded last pieces still rise; with none
        # the budget is within ENERGY_TOL of the caps
        level = knots[-1]
        rise = sum(1.0 / lev.rows[-1][1] for lev in pool if math.isinf(lev.cap))
        if rise > 0:
            level += (budget - fill(level)) / rise
    return [lev.inv(level) for lev in pool], level, 0.0


def _dwf_single(budgets, levels):
    """Forward pool-merge directional water-filling for one node.

    budgets[i] is the energy arriving at slot i; levels[i] the slot's
    monotone level function.  Returns the consumed power per slot.
    """
    n = len(budgets)
    pools = []  # dicts: start, end, budget, powers, level
    carry = 0.0
    for i in range(n):
        b = float(budgets[i]) + carry
        carry = 0.0
        powers, level, surplus = _solve_pool([i], levels, b)
        pools.append({"start": i, "end": i, "budget": b - surplus,
                      "powers": powers, "level": level})
        if surplus > 0 and i < n - 1:
            carry = surplus
        while len(pools) >= 2 and \
                pools[-1]["level"] < pools[-2]["level"] * (1 - 1e-12) - 1e-12:
            top = pools.pop()
            prev = pools.pop()
            slots = list(range(prev["start"], top["end"] + 1))
            b = prev["budget"] + top["budget"]
            powers, level, surplus = _solve_pool(slots, levels, b)
            pools.append({"start": prev["start"], "end": top["end"],
                          "budget": b - surplus, "powers": powers, "level": level})
            if surplus > 0 and top["end"] < n - 1:
                carry += surplus
    out = np.zeros(n)
    for pool in pools:
        out[pool["start"]:pool["end"] + 1] = pool["powers"]
    return out


def _segment(slots, levels, budget):
    """Rank and powers of one taut-string segment holding `budget`: its pool
    level, or (inf, surplus per slot) when the slots' flat directions cap it
    below the budget and the surplus is spread evenly over them."""
    powers, level, surplus = _solve_pool(slots, levels, budget)
    if surplus > 0:
        spread = surplus / len(powers)
        return (math.inf, spread), [p + spread for p in powers]
    return (level, 0.0), powers


def _dwf_bounded(arrivals, capacity, levels):
    """Single-node directional water-filling with a battery of `capacity`.

    Cumulative consumption is the taut string between the cumulative
    arrivals U (the battery cannot go below empty) and L = U - capacity (nor
    above full), ending on U: every arrival is consumed.  From the last
    pivot, the segments to U and to L are ranked by the pool level that
    fills them (a slope, when each slot's level is its power); the string
    bends on the lowest segment to U once a segment to L must lie above it
    (the battery empties there, and the level rises), or on the highest
    segment to L once a segment to U must lie below it (the battery is full,
    and the level falls).  Returns the consumed power per slot.
    """
    upper = np.cumsum(arrivals)
    lower = upper - capacity
    lower[-1] = upper[-1]
    upper, lower = upper.tolist(), lower.tolist()
    n = len(upper)
    out = np.zeros(n)
    i0, b0 = 0, 0.0
    while i0 < n:
        hi = lo = None  # (rank, powers, end) of the tightest segment to U, to L
        for j in range(i0 + 1, n + 1):
            slots = range(i0, j)
            up = (*_segment(slots, levels, upper[j - 1] - b0), j)
            down = up if j == n else (*_segment(slots, levels, lower[j - 1] - b0), j)
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


# ---------------------------------------------------------------------------
# certificates


def _level_interval(model_kind, ki, pb1, pb2, ssc):
    """Admissible water-level interval for node ki at one slot.

    A point except at a jump of the level pieces (the two-hop kink), where
    the level is set-valued between the left and right limits.  A power
    within 1e-9 relative of a piece start counts as on it.
    """
    pb = (pb1, pb2)
    x = pb[ki]
    pieces = transfer.level_pieces(model_kind, ki + 1, pb[1 - ki], ssc)
    for (_, s_left, c_left), (start, s_right, c_right) in zip(pieces, pieces[1:]):
        if abs(x - start) <= 1e-9 * max(1.0, x):
            left, right = s_left * x + c_left, s_right * x + c_right
            return min(left, right), max(left, right)
    v = transfer.level_at(pieces, x)
    return v, v


def _node_level_residual(model_kind, ki, pb, ssc):
    """Max relative violation of the directional-level certificate for one
    node: a non-decreasing level selection must exist, with increases only
    after empty-battery slots and decreases only after full-battery slots."""
    n = pb.shape[1]
    cap = ssc.battery_capacity[ki]
    state = np.cumsum(ssc.harvests[ki] - pb[ki])
    pinned = []
    for i in range(n):
        if pb[ki][i] <= 1e-12:
            continue
        lo, hi = _level_interval(model_kind, ki, pb[0][i], pb[1][i], ssc)
        if math.isinf(lo):  # flat direction: no marginal information
            continue
        pinned.append((i, lo, hi))
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


def _levels_at(model_kind, pb, ssc):
    n = pb.shape[1]
    out = np.zeros((2, n))
    for i in range(n):
        for k in (1, 2):
            out[k - 1, i] = transfer.water_level(model_kind, k, pb[0, i], pb[1, i], ssc)
    return out


def _capacity_objective(model_kind, pb, ssc):
    total = 0.0
    for p1, p2 in zip(*pb.tolist()):
        total += transfer.slot_transfer(model_kind, p1, p2, ssc).rate_nats
    return total


def _build_report(sc, eff, ssc, pb, mode, iterations, converged):
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
    levels = _levels_at(ssc.model_kind, pb, ssc)
    residual = max(_node_level_residual(ssc.model_kind, ki, pb, ssc) for ki in range(2))
    return SolveReport(policy=dp, transmit=transmit, objective_nats=obj,
                       levels=levels, bcd_iterations=iterations,
                       level_residual=residual, mode=mode, converged=converged)


# ---------------------------------------------------------------------------
# block coordinate descent (infinite battery) and the two-hop polish of both
# battery kinds


def _dwf_full(ki, pb, ssc, levels=None):
    """Re-solve node ki's whole allocation with the other node's held fixed.
    With any finite battery every arrival is consumed by the last slot.
    `levels`, when given, are node ki's slot levels for pb's other row."""
    if levels is None:
        levels = _slot_levels(ssc.model_kind, ki + 1, pb[1 - ki], ssc)
    if all(math.isinf(c) for c in ssc.battery_capacity):
        pb[ki] = _dwf_single(ssc.harvests[ki], levels)
    else:
        pb[ki] = _dwf_bounded(ssc.harvests[ki], ssc.battery_capacity[ki], levels)


def _search_move(base, tmax, apply_fn, objective_fn):
    """Probe-then-golden-section maximization of a concave move
    t -> apply_fn(t) on [0, tmax]; returns (improved allocation or None, its
    objective)."""
    if tmax <= 1e-13:
        return None, base

    def probe(t):
        trial = apply_fn(t)
        return objective_fn(trial), trial

    # the move value is concave in t, so a non-improving probe near zero
    # rules the whole move out cheaply
    if max(probe(1e-5 * tmax)[0], probe(0.05 * tmax)[0]) <= base + 1e-13:
        return None, base
    # each step keeps one interior probe and adds one; the better of the last
    # two lies in an interval narrowed 47 times, to GOLDEN**47 < 2e-10 of tmax
    lo, hi = 0.0, tmax
    m1, m2 = (1.0 - GOLDEN) * tmax, GOLDEN * tmax
    f1, f2 = probe(m1), probe(m2)
    for _ in range(46):
        if f1[0] < f2[0]:
            lo, m1, f1 = m1, m2, f2
            m2 = lo + GOLDEN * (hi - lo)
            f2 = probe(m2)
        else:
            hi, m2, f2 = m2, m1, f1
            m1 = hi - GOLDEN * (hi - lo)
            f1 = probe(m1)
    val, trial = f2 if f1[0] < f2[0] else f1
    if val > base + 1e-12:
        return trial, val
    return None, base


def _joint_polish(pb, ssc):
    """Escape kink stalls of the nonsmooth two-hop objective: line-search a
    move of one node's consumption between adjacent slots while re-solving
    the other node's whole allocation, which lets both fluids shift together.

    A forward move (slot i to i+1) is capped by the battery headroom after
    slot i, so with an infinite battery it can take all of slot i.  When it
    does not improve and the battery is finite, a backward move (slot i+1 to
    i) capped by the energy stored after slot i is tried.  Infinite batteries
    get no backward moves: they would lift some two-hop objectives, but at
    1.3 to 1.6 times the solve time; that trade waits for an exact
    two-fluid solve.
    """
    model = ssc.model_kind
    cap = ssc.battery_capacity.tolist()

    def obj(trial):
        return _capacity_objective(model, trial, ssc)

    base = obj(pb)
    improved = False
    for k in range(2):
        for i in range(ssc.n_slots - 1):
            levels = _slot_levels(model, 2 - k, pb[k], ssc)
            stored = float(np.cumsum(ssc.harvests[k] - pb[k])[i])

            def move(t, k=k, i=i, levels=levels):
                trial = pb.copy()
                trial[k, i] -= t
                trial[k, i + 1] += t
                _dwf_full(1 - k, trial, ssc,
                          _relevel(levels, model, 2 - k, trial[k], (i, i + 1), ssc))
                return trial

            trial, base = _search_move(base, min(pb[k, i], cap[k] - stored), move, obj)
            if trial is None and math.isfinite(cap[k]):
                trial, base = _search_move(base, min(pb[k, i + 1], stored),
                                           lambda t: move(-t), obj)
            if trial is not None:
                pb[:, :] = trial
                improved = True
    return improved


def bcd_solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Alternating per-node directional water-filling; infinite battery.  A
    two-hop scenario also gets the combined-flow (two-fluid) refinement."""
    if not all(math.isinf(c) for c in sc.battery_capacity):
        raise InputError("infinite-battery solver called with finite capacity")
    eff = effective_scenario(sc, mode)
    ssc = eff.unit_slot()
    model = ssc.model_kind
    pb = np.array(ssc.harvests, dtype=float)
    converged = False
    iterations = 0
    prev_obj = -math.inf
    prev_pb = None
    for it in range(BCD_MAX_ITER):
        iterations = it + 1
        for ki in range(2):
            _dwf_full(ki, pb, ssc)
        obj = _capacity_objective(model, pb, ssc)
        step = 0.0 if prev_pb is None else float(np.max(np.abs(pb - prev_pb)))
        if prev_pb is not None and obj - prev_obj < BCD_OBJ_TOL * max(1.0, abs(obj)) \
                and step < 1e-9:
            if model is ModelKind.THC and _joint_polish(pb, ssc):
                prev_obj = _capacity_objective(model, pb, ssc)
                prev_pb = pb.copy()
                continue
            converged = True
            break
        prev_obj = obj
        prev_pb = pb.copy()
    return _build_report(sc, eff, ssc, pb, mode, iterations, converged)


# ---------------------------------------------------------------------------
# MAC


def staircase(aggregate, capacity) -> np.ndarray:
    """Single-node optimal consumed powers for aggregate arrivals: the taut
    string between cumulative arrivals and the overflow floor, which is
    _dwf_bounded with the level of every slot equal to its power."""
    agg = np.asarray(aggregate, dtype=float)
    if np.any(agg < 0):
        raise InputError("aggregate arrivals must be non-negative")
    if not capacity > 0:
        raise InputError(f"capacity must be positive (or INFINITE), got {capacity}")
    return _dwf_bounded(agg, capacity, [_SlotLevel(((0.0, 1.0, 0.0),))] * len(agg))


def mac_solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """MAC solver: the staircase of the pooled arrivals g1*E1 + g2*E2, in
    SNR units (transfer.mac_gains), split back to the users with the
    senders' energy spent first; infinite batteries only (finite
    capacities go through dwf_finite)."""
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
    return _build_report(sc, eff, ssc, pb, mode, 0, True)


# ---------------------------------------------------------------------------
# finite battery: alternating capacity-bounded node solves


def dwf_finite(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Finite-battery solver: alternating exact capacity-bounded per-node
    water-filling, with the joint polish for the two-hop kink."""
    if all(math.isinf(c) for c in sc.battery_capacity):
        raise InputError("dwf_finite requires at least one finite capacity")
    eff = effective_scenario(sc, mode)
    ssc = eff.unit_slot()
    pb = np.array(ssc.harvests, dtype=float)
    converged = False
    passes = 0
    for p in range(FINITE_MAX_PASSES):
        passes = p + 1
        prev_pb = pb.copy()
        for _ in range(8):
            _dwf_full(0, pb, ssc)
            _dwf_full(1, pb, ssc)
            if not (ssc.model_kind is ModelKind.THC
                    and _joint_polish(pb, ssc)):
                break
        if float(np.max(np.abs(pb - prev_pb))) < 1e-10:
            converged = True
            break
    return _build_report(sc, eff, ssc, pb, mode, passes, converged)


# ---------------------------------------------------------------------------
# front door


def solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Route a scenario to the appropriate solver."""
    if not all(math.isinf(c) for c in sc.battery_capacity):
        return dwf_finite(sc, mode)
    if sc.model_kind is ModelKind.MAC:
        return mac_solve(sc, mode)
    return bcd_solve(sc, mode)
