"""Consumed-power allocation solvers.

Single-node generalized directional water-filling (pool merge; the
levels are piecewise affine, so each pool's common level is one linear
solve), block coordinate descent across the two nodes, a combined-flow refinement for the two-hop min-rate objective, the
MAC single-pool reduction with a staircase sum-power policy, and the
finite-battery two-dimensional algorithm with restricted node-to-node
flows.

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
    power, with the other node's power held fixed: the affine pieces of
    transfer.level_pieces, strictly increasing with jumps."""

    def __init__(self, model_kind, k, other_power, sc):
        self.pieces = transfer.level_pieces(model_kind, k, float(other_power), sc)
        self.ends = [piece[0] for piece in self.pieces[1:]] + [math.inf]

    def v(self, p):
        return transfer.level_at(self.pieces, p)

    def inv(self, target):
        """Largest p with v(p) <= target: solve the piece that contains the
        target, or return the piece start when the target falls in a jump."""
        for (start, slope, icpt), end in zip(self.pieces, self.ends):
            if target <= slope * start + icpt:
                return start
            p = max((target - icpt) / slope, start)  # monotone despite rounding
            if p < end:
                return p

    def cap(self):
        """The most power the slot can use: the start of a flat piece."""
        start, _, icpt = self.pieces[-1]
        return start if math.isinf(icpt) else math.inf

    def knots(self):
        """Levels where inv changes slope: each finite piece's value at its
        start and its left limit at its end."""
        out = []
        for (start, slope, icpt), end in zip(self.pieces, self.ends):
            if math.isfinite(icpt):
                out += [slope * start + icpt, slope * end + icpt]
        return [x for x in out if math.isfinite(x)]


def _slot_levels(model_kind, k, other_powers, sc):
    return [_SlotLevel(model_kind, k, other_powers[i], sc) for i in range(len(other_powers))]


# ---------------------------------------------------------------------------
# single-node directional water-filling (infinite battery)


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
    caps = [lev.cap() for lev in pool]
    cap_total = sum(caps)
    if cap_total < budget - ENERGY_TOL:
        return caps, math.inf, budget - cap_total

    def fill(level):
        return sum(lev.inv(level) for lev in pool)

    knots = sorted({x for lev in pool for x in lev.knots()})
    i = bisect.bisect_left(knots, budget, key=fill)
    if i < len(knots):
        lo, hi = knots[i - 1], knots[i]
        f_lo, f_hi = fill(lo), fill(hi)
        level = lo + (budget - f_lo) * (hi - lo) / (f_hi - f_lo)
    else:
        # past the last knot only unbounded last pieces still rise; with none
        # the budget is within ENERGY_TOL of the caps
        level = knots[-1]
        rise = sum(1.0 / lev.pieces[-1][1] for lev in pool if math.isinf(lev.cap()))
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


def _node_level_residual(model_kind, ki, pb, ssc, stored_offset=None):
    """Max relative violation of the directional-level certificate for one
    node: a non-decreasing level selection must exist, with increases only
    after empty-battery slots and decreases only after full-battery slots."""
    n = pb.shape[1]
    cap = ssc.battery_capacity[ki]
    arr = np.array(ssc.harvests[ki])
    if stored_offset is not None:
        arr = arr + stored_offset
    state = np.cumsum(arr - pb[ki])
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


def _build_report(sc, eff, ssc, pb, mode, iterations, converged, trace,
                  stored=None):
    """Assemble a SolveReport from converged consumed energies (2xN, mJ)."""
    n = sc.n_slots
    dt = sc.slot_seconds
    gamma = np.zeros((2, n))
    for i in range(n):
        st = transfer.slot_transfer(ssc.model_kind, pb[0, i], pb[1, i], ssc)
        gamma[0, i], gamma[1, i] = st.delta
    eps = np.zeros((2, n)) if stored is None else np.array(stored)
    dp = DecomposedPolicy(consumed=pb / dt, immediate=gamma, stored=eps)
    transmit = recover_transmit_powers(dp, eff)
    obj = policy_objective(transmit, eff)
    levels = _levels_at(ssc.model_kind, pb, ssc)
    offsets = []
    alpha = eff.transfer_efficiency
    for ki in range(2):
        offsets.append(alpha[1 - ki] * eps[1 - ki] - eps[ki])
    residual = max(
        _node_level_residual(ssc.model_kind, ki, pb, ssc, stored_offset=offsets[ki])
        for ki in range(2)
    )
    return SolveReport(policy=dp, transmit=transmit, objective_nats=obj,
                       levels=levels, bcd_iterations=iterations,
                       level_residual=residual, mode=mode, converged=converged,
                       objective_trace=tuple(trace))


# ---------------------------------------------------------------------------
# block coordinate descent (infinite battery)


def _dwf_full(ki, pb, ssc):
    levels = _slot_levels(ssc.model_kind, ki + 1, pb[1 - ki], ssc)
    pb[ki] = _dwf_single(ssc.harvests[ki], levels)


def _search_move(base, tmax, apply_fn, objective_fn):
    """Probe-then-ternary maximization of a concave move t -> apply_fn(t) on
    [0, tmax]; returns (improved allocation or None, its objective)."""
    if tmax <= 1e-13:
        return None, base
    # the move value is concave in t, so a non-improving probe near zero
    # rules the whole move out cheaply
    if max(objective_fn(apply_fn(1e-5 * tmax)),
           objective_fn(apply_fn(0.05 * tmax))) <= base + 1e-13:
        return None, base
    lo, hi = 0.0, tmax
    for _ in range(55):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if objective_fn(apply_fn(m1)) < objective_fn(apply_fn(m2)):
            lo = m1
        else:
            hi = m2
    trial = apply_fn(0.5 * (lo + hi))
    val = objective_fn(trial)
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


def _bcd(sc, mode, use_fluid):
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
            if use_fluid and _joint_polish(pb, ssc):
                prev_obj = _capacity_objective(model, pb, ssc)
                prev_pb = pb.copy()
                continue
            converged = True
            break
        prev_obj = obj
        prev_pb = pb.copy()
    return _build_report(sc, eff, ssc, pb, mode, iterations, converged, trace)


def bcd_solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Alternating per-node directional water-filling; infinite battery."""
    return _bcd(sc, mode, use_fluid=False)


def thc_solve(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Two-hop solver: BCD plus the combined-flow (two-fluid) refinement."""
    if sc.model_kind is not ModelKind.THC:
        raise InputError("thc_solve requires a THC scenario")
    return _bcd(sc, mode, use_fluid=True)


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


def _taut_string(upper, lower):
    """Shortest non-decreasing cumulative curve from (0,0) to (N, upper[-1])
    inside lower <= B <= upper; returns per-slot increments."""
    n = len(upper)
    out = np.zeros(n)
    i0 = 0
    b0 = 0.0
    while i0 < n:
        minhi, j_hi = math.inf, None
        maxlo, j_lo = -math.inf, None
        pivot = None
        for j in range(i0 + 1, n + 1):
            up = upper[j - 1]
            lo_ = upper[n - 1] if j == n else lower[j - 1]
            s_hi = (up - b0) / (j - i0)
            s_lo = (lo_ - b0) / (j - i0)
            if s_lo > minhi + 1e-15:
                pivot = ("hi", j_hi)
                break
            if s_hi < maxlo - 1e-15:
                pivot = ("lo", j_lo)
                break
            if s_hi < minhi:
                minhi, j_hi = s_hi, j
            if s_lo > maxlo:
                maxlo, j_lo = s_lo, j
        if pivot is None:
            slope = (upper[n - 1] - b0) / (n - i0)
            out[i0:n] = slope
            break
        kind, jp = pivot
        if kind == "hi":
            out[i0:jp] = minhi
            b0 = upper[jp - 1]
        else:
            out[i0:jp] = maxlo
            b0 = upper[n - 1] if jp == n else lower[jp - 1]
        i0 = jp
    return out


def staircase(aggregate, capacity) -> np.ndarray:
    """Single-node optimal consumed powers for aggregate arrivals: the taut
    string between cumulative arrivals and the overflow floor."""
    agg = np.asarray(aggregate, dtype=float)
    if np.any(agg < 0):
        raise InputError("aggregate arrivals must be non-negative")
    upper = np.cumsum(agg)
    if math.isinf(capacity):
        lower = np.full_like(upper, -math.inf)
    else:
        lower = upper - capacity
    return _taut_string(upper, lower)


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
# finite battery: 2D directional water-filling with restricted transfers


def _finite_states(pb, eps, ssc):
    """Battery state per node from consumed energies and stored transfers."""
    alpha = ssc.transfer_efficiency
    states = np.zeros((2, ssc.n_slots))
    for ki in range(2):
        arr = ssc.harvests[ki] + alpha[1 - ki] * eps[1 - ki] - eps[ki]
        states[ki] = np.cumsum(arr - pb[ki])
    return states


def _horizontal_pass(ki, pb, eps, ssc, max_sweeps=400):
    """Pairwise forward water flow for one node, flow capped by capacity."""
    model = ssc.model_kind
    n = ssc.n_slots
    cap = ssc.battery_capacity[ki]
    alpha = ssc.transfer_efficiency
    arr = ssc.harvests[ki] + alpha[1 - ki] * eps[1 - ki] - eps[ki]
    for _ in range(max_sweeps):
        moved = 0.0
        state = np.cumsum(arr - pb[ki])
        for i in range(n - 1):
            la = _SlotLevel(model, ki + 1, pb[1 - ki][i], ssc)
            lb = _SlotLevel(model, ki + 1, pb[1 - ki][i + 1], ssc)
            va = la.v(pb[ki][i])
            vb = lb.v(pb[ki][i + 1])
            if va > vb * (1 + 1e-13) + 1e-14:
                # forward flow, capped by battery headroom at the boundary
                sign = 1.0
                room = cap - state[i] if math.isfinite(cap) else math.inf
                tmax = min(pb[ki][i], room)
            elif vb > va * (1 + 1e-13) + 1e-14 and state[i] > 1e-14:
                # backward flow: spend energy already stored at slot i earlier
                sign = -1.0
                tmax = min(pb[ki][i + 1], state[i])
            else:
                continue
            if tmax <= 1e-14:
                continue

            def diff(t):
                x = la.v(pb[ki][i] - sign * t)
                y = lb.v(pb[ki][i + 1] + sign * t)
                if math.isinf(x):
                    return math.inf * sign
                if math.isinf(y):
                    return -math.inf * sign
                return sign * (x - y)

            if diff(tmax) >= 0:
                t = tmax
            else:
                lo, hi = 0.0, tmax
                for _ in range(90):
                    mid = 0.5 * (lo + hi)
                    if diff(mid) > 0:
                        lo = mid
                    else:
                        hi = mid
                t = 0.5 * (lo + hi)
            if t <= 1e-15:
                continue
            pb[ki][i] -= sign * t
            pb[ki][i + 1] += sign * t
            state[i] += sign * t
            moved = max(moved, t)
        if moved < 1e-13:
            break


def _vertical_flow(pb, eps, ssc):
    """Stored transfers out of a full battery into an idle slot of the other
    node, balanced to v_j = a_k v_k by bisection on the amount."""
    model = ssc.model_kind
    n = ssc.n_slots
    alpha = ssc.transfer_efficiency
    cap = ssc.battery_capacity
    changed = False
    for ki in range(2):
        j = 1 - ki
        a_k = alpha[ki]
        if a_k <= 0 or math.isinf(cap[ki]):
            continue
        for i in range(n):
            states = _finite_states(pb, eps, ssc)
            if cap[ki] - states[ki][i] > 1e-9:
                continue
            if pb[j][i] > 1e-12:
                continue
            lev_k = _SlotLevel(model, ki + 1, pb[j][i], ssc)
            lev_j = _SlotLevel(model, j + 1, pb[ki][i], ssc)
            if not lev_j.v(pb[j][i]) < a_k * lev_k.v(pb[ki][i]) - 1e-9:
                continue
            emax = float(np.min(states[ki][i:]))
            if math.isfinite(cap[j]):
                emax = min(emax, (cap[j] - float(np.max(states[j][i:]))) / a_k)
            if emax <= 1e-12:
                continue

            def balance(e):
                pb2 = pb.copy()
                eps2 = eps.copy()
                eps2[ki][i] += e
                for _ in range(3):
                    _horizontal_pass(0, pb2, eps2, ssc, max_sweeps=120)
                    _horizontal_pass(1, pb2, eps2, ssc, max_sweeps=120)
                lk = _SlotLevel(model, ki + 1, pb2[j][i], ssc)
                lj = _SlotLevel(model, j + 1, pb2[ki][i], ssc)
                return lj.v(pb2[j][i]) - a_k * lk.v(pb2[ki][i]), pb2, eps2

            d_hi, pb_hi, eps_hi = balance(emax)
            if d_hi <= 0:
                pb[:, :], eps[:, :] = pb_hi, eps_hi
                changed = True
                continue
            lo, hi = 0.0, emax
            best = None
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                d, pb_m, eps_m = balance(mid)
                if d < 0:
                    lo = mid
                    best = (pb_m, eps_m)
                else:
                    hi = mid
            if best is not None:
                pb[:, :], eps[:, :] = best
                changed = True
    return changed


def dwf_finite(sc: Scenario, mode: CooperationMode = CooperationMode.BIDIRECTIONAL) -> SolveReport:
    """Finite-battery solver: horizontal directional flow capped by battery
    size, alternated with restricted node-to-node flow at full-battery,
    idle-receiver slots."""
    if all(math.isinf(c) for c in sc.battery_capacity):
        raise InputError("dwf_finite requires at least one finite capacity")
    eff = effective_scenario(sc, mode)
    ssc = eff.unit_slot()
    n = ssc.n_slots
    pb = np.array(ssc.harvests, dtype=float)
    eps = np.zeros((2, n))
    converged = False
    passes = 0
    for p in range(FINITE_MAX_PASSES):
        passes = p + 1
        prev_pb = pb.copy()
        prev_eps = eps.copy()
        for _ in range(8):
            _horizontal_pass(0, pb, eps, ssc)
            _horizontal_pass(1, pb, eps, ssc)
            if not (ssc.model_kind is ModelKind.THC
                    and _joint_polish_finite(pb, eps, ssc)):
                break
        changed = _vertical_flow(pb, eps, ssc)
        step = max(float(np.max(np.abs(pb - prev_pb))),
                   float(np.max(np.abs(eps - prev_eps))))
        if not changed and step < 1e-10:
            converged = True
            break
    report = _build_report(sc, eff, ssc, pb, mode, passes,
                           converged, [], stored=eps)
    return report


def _resolve_node_finite(ki, pb, eps, ssc):
    """Re-solve one node's finite allocation from scratch: consume on
    arrival, then run the horizontal forward flow to a fixed point."""
    alpha = ssc.transfer_efficiency
    arr = ssc.harvests[ki] + alpha[1 - ki] * eps[1 - ki] - eps[ki]
    if np.all(arr >= 0):
        pb[ki] = arr.copy()
    _horizontal_pass(ki, pb, eps, ssc)


def _joint_polish_finite(pb, eps, ssc):
    """Finite-battery analogue of _joint_polish.

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
            states = _finite_states(pb, eps, ssc)
            room = float(np.min(cap[k] - states[k][i:m])) \
                if math.isfinite(cap[k]) else math.inf
            stored = float(np.min(states[k][i:m]))

            def fwd(t, k=k, j=j):
                trial = pb.copy()
                trial[k, i] -= t
                trial[k, m] += t
                _resolve_node_finite(j, trial, eps, ssc)
                return trial

            def bwd(t, k=k, j=j):
                trial = pb.copy()
                trial[k, m] -= t
                trial[k, i] += t
                _resolve_node_finite(j, trial, eps, ssc)
                return trial

            trial, base2 = _search_move(base, min(pb[k, i], room), fwd, obj)
            if trial is None:
                trial, base2 = _search_move(base, min(pb[k, m], stored), bwd, obj)
            if trial is not None:
                pb[:, :] = trial
                base = base2
                improved = True
        if model is ModelKind.THC:
            # coupled kink moves: both fluids together in the weight ratio
            states = _finite_states(pb, eps, ssc)
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
    if sc.model_kind is ModelKind.THC:
        return thc_solve(sc, mode)
    return bcd_solve(sc, mode)
