"""Consumed-power allocation solvers.

Single-node generalized directional water-filling over the exact per-slot
levels (piecewise affine, so each pool's common level is one linear
solve), in two forms: a pool merge for an infinite battery, and the taut
string between the cumulative arrivals and the overflow floor for a finite
one.  The MAC reduces to a single node with aggregate arrivals, whose
staircase sum-power policy is that same taut string with each slot's level
equal to its power.  Around these: block coordinate descent across the two
nodes, with a combined-flow refinement for the two-hop min-rate objective,
and for finite batteries the nodes solved alternately.

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
    objective_trace: tuple = ()

    @property
    def objective_bits(self) -> float:
        return self.objective_nats / math.log(2.0)


@dataclass(frozen=True)
class MacReduction:
    alpha_star: tuple
    aggregate: np.ndarray


# ---------------------------------------------------------------------------
# per-slot level functions and their inversion


class _SlotLevel:
    """Water level of one node in one slot as a function of own consumed
    power, from its affine pieces (start, slope, intercept): strictly
    increasing with jumps, and flat past the start of an intercept-inf piece.
    `cap` is the most power the slot can use; `knots` are the levels where
    inv changes slope (each finite piece's value at its start and its left
    limit at its end)."""

    def __init__(self, pieces):
        self.pieces = pieces
        self.ends = [piece[0] for piece in pieces[1:]] + [math.inf]
        self.cap = pieces[-1][0] if math.isinf(pieces[-1][2]) else math.inf
        knots = []
        for (start, slope, icpt), end in zip(pieces, self.ends):
            if math.isfinite(icpt):
                knots += [slope * start + icpt, slope * end + icpt]
        self.knots = [x for x in knots if math.isfinite(x)]

    def inv(self, target):
        """Largest p with level(p) <= target: solve the piece that contains
        the target, or return the piece start when the target falls in a
        jump."""
        for (start, slope, icpt), end in zip(self.pieces, self.ends):
            if target <= slope * start + icpt:
                return start
            p = max((target - icpt) / slope, start)  # monotone despite rounding
            if p < end:
                return p


def _slot_levels(model_kind, k, other_powers, sc):
    return [_SlotLevel(transfer.level_pieces(model_kind, k, float(q), sc))
            for q in other_powers]


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
    if budget <= ENERGY_TOL:
        return [0.0] * len(pool), 0.0, 0.0
    caps = [lev.cap for lev in pool]
    cap_total = sum(caps)
    if cap_total < budget - ENERGY_TOL:
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
        rise = sum(1.0 / lev.pieces[-1][1] for lev in pool if math.isinf(lev.cap))
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


def dwf_node(k, consumed_other, sc: Scenario,
             mode: CooperationMode = CooperationMode.BIDIRECTIONAL):
    """Optimal consumed powers for node k (1 or 2) with the other node's
    consumed powers held fixed.  Infinite battery only; returns mW."""
    if not all(math.isinf(c) for c in sc.battery_capacity):
        raise InputError("dwf_node requires INFINITE battery capacities")
    eff = effective_scenario(sc, mode)
    ssc = eff.unit_slot()
    dt = sc.slot_seconds
    other = np.asarray(consumed_other, dtype=float) * dt  # mW -> per-slot mJ
    if other.shape != (sc.n_slots,):
        raise InputError("consumed_other must have one entry per slot")
    if np.any(other < 0):
        raise InputError("consumed_other must be non-negative")
    levels = _slot_levels(ssc.model_kind, k, other, ssc)
    return _dwf_single(ssc.harvests[k - 1], levels) / dt


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
    for i in range(pb.shape[1]):
        total += transfer.slot_transfer(model_kind, pb[0, i], pb[1, i], ssc).rate_nats
    return total


def _build_report(sc, eff, ssc, pb, mode, iterations, converged, trace):
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
                       level_residual=residual, mode=mode, converged=converged,
                       objective_trace=tuple(trace))


# ---------------------------------------------------------------------------
# block coordinate descent (infinite battery)


def _dwf_full(ki, pb, ssc):
    """Re-solve node ki's whole allocation with the other node's held fixed.
    With any finite battery every arrival is consumed by the last slot."""
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
    forward inter-slot move of one node while re-solving the other node's
    whole allocation, which lets both fluids shift together."""
    def obj(trial):
        return _capacity_objective(ssc.model_kind, trial, ssc)

    base = obj(pb)
    improved = False
    for k in range(2):
        for i in range(ssc.n_slots - 1):

            def move(t, k=k, i=i):
                trial = pb.copy()
                trial[k, i] -= t
                trial[k, i + 1] += t
                _dwf_full(1 - k, trial, ssc)
                return trial

            trial, base = _search_move(base, pb[k, i], move, obj)
            if trial is not None:
                pb[:, :] = trial
                improved = True
    return improved


def _bcd(sc, mode):
    if not all(math.isinf(c) for c in sc.battery_capacity):
        raise InputError("infinite-battery solver called with finite capacity")
    eff = effective_scenario(sc, mode)
    ssc = eff.unit_slot()
    model = ssc.model_kind
    n = ssc.n_slots
    pb = np.array(ssc.harvests, dtype=float)
    trace = []
    converged = False
    iterations = 0
    prev_obj = -math.inf
    prev_pb = None
    for it in range(BCD_MAX_ITER):
        iterations = it + 1
        for ki in range(2):
            _dwf_full(ki, pb, ssc)
        obj = _capacity_objective(model, pb, ssc)
        trace.append(obj * sc.slot_seconds)
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
    return _build_report(sc, eff, ssc, pb, mode, iterations, converged, trace)


def bcd_solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Alternating per-node directional water-filling; infinite battery.  A
    two-hop scenario also gets the combined-flow (two-fluid) refinement."""
    return _bcd(sc, mode)


def thc_solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Two-hop solver: BCD plus the combined-flow (two-fluid) refinement."""
    if sc.model_kind is not ModelKind.THC:
        raise InputError("thc_solve requires a THC scenario")
    return _bcd(sc, mode)


# ---------------------------------------------------------------------------
# MAC reduction


def mac_reduce(sc: Scenario) -> MacReduction:
    """Per-user boost factors a_k* = max(1, a_k c_j / c_k) and the
    equivalent aggregate arrivals a_1* E_1 + a_2* E_2."""
    if sc.model_kind is not ModelKind.MAC:
        raise InputError("mac_reduce requires a MAC scenario")
    n1, n2 = sc.effective_noise_mw
    c1, c2 = 1.0 / n1, 1.0 / n2
    a1, a2 = sc.transfer_efficiency
    astar = (max(1.0, a1 * c2 / c1), max(1.0, a2 * c1 / c2))
    aggregate = astar[0] * sc.harvests[0] + astar[1] * sc.harvests[1]
    return MacReduction(alpha_star=astar, aggregate=aggregate)


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
    """MAC solver via the single-pool reduction and staircase sum power;
    infinite batteries only (finite capacities go through dwf_finite).

    Pooling is done in SNR-weighted units (each user's energy scaled by its
    best per-mJ rate coefficient c_k*a_k*) so the reduction matches the
    direct solver exactly even for unequal channels.
    """
    if sc.model_kind is not ModelKind.MAC:
        raise InputError("mac_solve requires a MAC scenario")
    if not all(math.isinf(c) for c in sc.battery_capacity):
        raise InputError("mac_solve requires INFINITE battery capacities")
    eff = effective_scenario(sc, mode)
    ssc = eff.unit_slot()
    n = ssc.n_slots
    astar = mac_reduce(ssc).alpha_star
    wgt = astar / ssc.effective_noise_mw
    s = staircase(wgt @ ssc.harvests, math.inf)
    order = sorted(range(2), key=lambda k: (astar[k] == 1.0, k))  # senders first
    pb = np.zeros((2, n))
    spent = [0.0, 0.0]
    cum = [0.0, 0.0]
    for i in range(n):
        rem = s[i]
        for k in range(2):
            cum[k] += wgt[k] * ssc.harvests[k][i]
        for k in order:
            take = min(cum[k] - spent[k], rem)
            take = max(take, 0.0)
            pb[k, i] = take / wgt[k]
            spent[k] += take
            rem -= take
        if rem > 1e-7 * max(1.0, s[i]):
            raise InputError("staircase split exceeded pooled availability")
    return _build_report(sc, eff, ssc, pb, mode, 0, True, [])


# ---------------------------------------------------------------------------
# finite battery: alternating capacity-bounded node solves


def _finite_states(pb, ssc):
    """Battery state per node from consumed energies."""
    return np.cumsum(ssc.harvests - pb, axis=1)


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
                    and _joint_polish_finite(pb, ssc)):
                break
        if float(np.max(np.abs(pb - prev_pb))) < 1e-10:
            converged = True
            break
    return _build_report(sc, eff, ssc, pb, mode, passes, converged, [])


def _joint_polish_finite(pb, ssc):
    """Finite-battery analogue of _joint_polish, for the two-hop channel.

    Moves consumption of one node between slot pairs in either direction
    (forward capped by battery headroom, backward by stored energy) with
    the other node re-solved per candidate, plus coupled two-fluid moves of
    both nodes in the weight ratio that stays on the two-hop kink.
    """
    model = ssc.model_kind
    n = ssc.n_slots
    cap = ssc.battery_capacity
    nn = ssc.effective_noise_mw
    ratio = nn[1] / nn[0]  # node-2 step per unit node-1 step on the kink
    base = _capacity_objective(model, pb, ssc)
    improved = False

    def obj(trial):
        return _capacity_objective(model, trial, ssc)

    for i, m in [(i, m) for i in range(n - 1) for m in range(i + 1, n)]:
        for k in range(2):
            j = 1 - k
            states = _finite_states(pb, ssc)
            room = float(np.min(cap[k] - states[k][i:m])) \
                if math.isfinite(cap[k]) else math.inf
            stored = float(np.min(states[k][i:m]))

            def fwd(t, k=k, j=j):
                trial = pb.copy()
                trial[k, i] -= t
                trial[k, m] += t
                _dwf_full(j, trial, ssc)
                return trial

            def bwd(t, k=k, j=j):
                trial = pb.copy()
                trial[k, m] -= t
                trial[k, i] += t
                _dwf_full(j, trial, ssc)
                return trial

            trial, base2 = _search_move(base, min(pb[k, i], room), fwd, obj)
            if trial is None:
                trial, base2 = _search_move(base, min(pb[k, m], stored), bwd, obj)
            if trial is not None:
                pb[:, :] = trial
                base = base2
                improved = True
        # coupled kink moves: both fluids together in the weight ratio
        states = _finite_states(pb, ssc)
        rooms = [float(np.min(cap[k] - states[k][i:m]))
                 if math.isfinite(cap[k]) else math.inf for k in range(2)]
        stores = [float(np.min(states[k][i:m])) for k in range(2)]

        def jf(t):
            trial = pb.copy()
            trial[0, i] -= t
            trial[0, m] += t
            trial[1, i] -= ratio * t
            trial[1, m] += ratio * t
            return trial

        def jb(t):
            trial = pb.copy()
            trial[0, m] -= t
            trial[0, i] += t
            trial[1, m] -= ratio * t
            trial[1, i] += ratio * t
            return trial

        tf = min(pb[0, i], rooms[0], pb[1, i] / ratio, rooms[1] / ratio)
        tb = min(pb[0, m], stores[0], pb[1, m] / ratio, stores[1] / ratio)
        trial, base2 = _search_move(base, tf, jf, obj)
        if trial is None:
            trial, base2 = _search_move(base, tb, jb, obj)
        if trial is not None:
            pb[:, :] = trial
            base = base2
            improved = True
    return improved


# ---------------------------------------------------------------------------
# front door


def solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Route a scenario to the appropriate solver."""
    if not all(math.isinf(c) for c in sc.battery_capacity):
        return dwf_finite(sc, mode)
    if sc.model_kind is ModelKind.MAC:
        return mac_solve(sc, mode)
    return bcd_solve(sc, mode)
