"""Domain types, battery dynamics, rate functions and policy transforms.

Unit conventions: energies in millijoules, powers in milliwatts, rates in
nats. Channel gain and receiver noise are folded into a per-node effective
noise (mW) once at scenario construction, so all solver arithmetic happens
at O(1) scales.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

INFINITE = math.inf

FEAS_TOL_MJ = 1e-9
EQ_RTOL = 1e-12


class InputError(ValueError):
    """Raised for malformed inputs (dimensions, signs, ranges)."""


class InfeasiblePolicyError(ValueError):
    """Raised when an operation requires a feasible policy but got none."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"policy is infeasible: {report.first_violation}")


class ModelKind(enum.Enum):
    TWC = "TWC"
    THC = "THC"
    MAC = "MAC"


def _floats(x, name, allow_inf=False):
    """x as a float array; NaN, and +-inf unless allowed, are rejected."""
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be numeric: {exc}") from None
    if not np.isfinite(arr).all() and (not allow_inf or np.isnan(arr).any()):
        raise InputError(f"{name} must be finite")
    return arr


def _pair(x, name, allow_inf=False):
    arr = _floats(x, name, allow_inf)
    if arr.shape != (2,):
        raise InputError(f"{name} must have exactly two entries, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Scenario:
    """Problem instance: two nodes, N slots, harvests and channel constants.

    harvests is indexed [node, slot] in mJ.  battery_capacity entries may be
    the INFINITE sentinel.  channel_gain_db holds the link power gains in dB;
    noise_power_w the receiver noise powers in watts.
    """

    model_kind: ModelKind
    harvests: np.ndarray
    battery_capacity: np.ndarray
    transfer_efficiency: np.ndarray
    channel_gain_db: np.ndarray
    noise_power_w: np.ndarray
    slot_seconds: float = 1.0
    effective_noise_mw: np.ndarray = field(init=False)

    def __post_init__(self):
        harv = _floats(self.harvests, "harvests")
        if harv.ndim != 2 or harv.shape[0] != 2 or harv.shape[1] < 1:
            raise InputError(f"harvests must be 2xN with N>=1, got shape {harv.shape}")
        if (harv < 0).any():
            raise InputError("harvests must be non-negative")
        cap = _pair(self.battery_capacity, "battery_capacity", allow_inf=True)
        if (cap <= 0).any():
            raise InputError("battery_capacity must be positive (or INFINITE)")
        alpha = _pair(self.transfer_efficiency, "transfer_efficiency")
        if (alpha < 0).any() or (alpha > 1).any():
            raise InputError("transfer_efficiency must lie in [0,1]")
        gain_db = _pair(self.channel_gain_db, "channel_gain_db")
        noise = _pair(self.noise_power_w, "noise_power_w")
        if (noise <= 0).any():
            raise InputError("noise_power_w must be positive")
        dt = float(_floats(self.slot_seconds, "slot_seconds"))
        if not dt > 0:
            raise InputError("slot_seconds must be positive")
        gain_lin = 10.0 ** (gain_db / 10.0)
        # n_k = sigma_j^2 / h_k, in mW; the noise floor seen by node k's signal.
        eff = np.array([noise[1] / gain_lin[0], noise[0] / gain_lin[1]]) * 1e3
        if not (np.isfinite(eff).all() and (eff > 0).all()):
            raise InputError("channel gains and noise powers must give a positive, "
                             "finite effective noise")
        for name, val in [
            ("harvests", harv), ("battery_capacity", cap),
            ("transfer_efficiency", alpha), ("channel_gain_db", gain_db),
            ("noise_power_w", noise), ("effective_noise_mw", eff),
        ]:
            object.__setattr__(self, name, val)
            val.setflags(write=False)
        object.__setattr__(self, "slot_seconds", dt)

    @property
    def n_slots(self) -> int:
        return self.harvests.shape[1]

    @property
    def channel_gain_linear(self) -> np.ndarray:
        return 10.0 ** (self.channel_gain_db / 10.0)

    def with_efficiency(self, alpha1, alpha2) -> "Scenario":
        return replace(self, transfer_efficiency=(alpha1, alpha2))

    def unit_slot(self) -> "Scenario":
        """Noise scaled by slot length, so per-slot energy doubles as power."""
        if self.slot_seconds == 1.0:
            return self
        return replace(self, noise_power_w=self.noise_power_w * self.slot_seconds,
                       slot_seconds=1.0)


def _policy_array(x, n, name):
    arr = np.asarray(x, dtype=float)
    if arr.shape != (2, n):
        raise InputError(f"{name} must have shape (2, {n}), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class TransferPolicy:
    """Raw policy: transmit powers p [node, slot] in mW, transfers delta in mJ."""

    p: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        if p.shape != d.shape or p.ndim != 2 or p.shape[0] != 2:
            raise InputError(f"p and delta must both be 2xN, got {p.shape} and {d.shape}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "delta", d)

    @classmethod
    def zeros(cls, n_slots):
        return cls(np.zeros((2, n_slots)), np.zeros((2, n_slots)))


@dataclass(frozen=True)
class DecomposedPolicy:
    """Consumed powers and the split of transfers into immediate/stored parts.

    consumed is p-bar (mW drawn from the battery), immediate is the gamma
    component spent by the receiver in the same slot, stored is the epsilon
    component banked at the receiver.  delta = immediate + stored.
    """

    consumed: np.ndarray
    immediate: np.ndarray
    stored: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.consumed, dtype=float)
        g = np.asarray(self.immediate, dtype=float)
        e = np.asarray(self.stored, dtype=float)
        if not (c.shape == g.shape == e.shape) or c.ndim != 2 or c.shape[0] != 2:
            raise InputError("consumed/immediate/stored must share a 2xN shape")
        if np.any(g < -1e-12) or np.any(e < -1e-12):
            raise InputError("transfer components must be non-negative")
        for name, val in [("consumed", c), ("immediate", g), ("stored", e)]:
            object.__setattr__(self, name, val)

    @property
    def delta(self) -> np.ndarray:
        return self.immediate + self.stored


@dataclass(frozen=True)
class BatteryTrace:
    """Stored energy per node per slot (mJ) and the energy clipped by capacity."""

    state: np.ndarray
    overflow_loss: np.ndarray


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    first_violation: tuple | None = None  # (node, slot, kind)
    worst_causality_slack: float = math.inf


def battery_trace(policy: TransferPolicy, sc: Scenario) -> BatteryTrace:
    """Run the battery recursion S_i = min(cap, S_{i-1} + E - p*dt - d_out + a*d_in)."""
    n = sc.n_slots
    p = _policy_array(policy.p, n, "policy.p")
    delta = _policy_array(policy.delta, n, "policy.delta")
    dt = sc.slot_seconds
    alpha = sc.transfer_efficiency
    cap = sc.battery_capacity
    state = np.zeros((2, n))
    overflow = np.zeros((2, n))
    s = np.zeros(2)
    for i in range(n):
        for k in range(2):
            j = 1 - k
            raw = s[k] + sc.harvests[k, i] - p[k, i] * dt - delta[k, i] + alpha[j] * delta[j, i]
            clipped = min(cap[k], raw)
            overflow[k, i] = max(0.0, raw - clipped)
            state[k, i] = clipped
        s = state[:, i].copy()
    return BatteryTrace(state=state, overflow_loss=overflow)


def check_feasible(policy: TransferPolicy, sc: Scenario) -> FeasibilityReport:
    """Energy causality (S >= 0) and sign checks; overflow is legal but recorded."""
    trace = battery_trace(policy, sc)
    worst = float(np.min(trace.state))
    for k in range(2):
        for i in range(sc.n_slots):
            if policy.p[k, i] < -1e-12 or policy.delta[k, i] < -1e-12:
                return FeasibilityReport(False, (k + 1, i + 1, "negativity"), worst)
    for i in range(sc.n_slots):
        for k in range(2):
            if trace.state[k, i] < -FEAS_TOL_MJ:
                return FeasibilityReport(False, (k + 1, i + 1, "causality"), worst)
    return FeasibilityReport(True, None, worst)


def rate(model_kind: ModelKind, p1: float, p2: float, sc: Scenario) -> float:
    """Per-slot sum-capacity in nats for transmit powers p1, p2 (mW)."""
    if p1 < 0 or p2 < 0:
        raise InputError("transmit powers must be non-negative")
    n1, n2 = sc.effective_noise_mw
    if model_kind is ModelKind.TWC:
        return 0.5 * math.log1p(p1 / n1) + 0.5 * math.log1p(p2 / n2)
    if model_kind is ModelKind.THC:
        return min(0.5 * math.log1p(p1 / n1), 0.5 * math.log1p(p2 / n2))
    return 0.5 * math.log1p(p1 / n1 + p2 / n2)


def objective(policy: TransferPolicy, sc: Scenario) -> float:
    """Sum-throughput in nats over the horizon; refuses infeasible policies."""
    report = check_feasible(policy, sc)
    if not report.feasible:
        raise InfeasiblePolicyError(report)
    dt = sc.slot_seconds
    return dt * sum(
        rate(sc.model_kind, policy.p[0, i], policy.p[1, i], sc) for i in range(sc.n_slots)
    )


def recover_transmit_powers(dp: DecomposedPolicy, sc: Scenario) -> TransferPolicy:
    """Invert the consumed-power definition: p = pbar - gamma + a_j*gamma_j."""
    alpha = sc.transfer_efficiency
    dt = sc.slot_seconds
    p = np.empty_like(dp.consumed)
    for k in range(2):
        j = 1 - k
        # consumed is in mW; gamma in mJ, so divide its power contribution by dt
        p[k] = dp.consumed[k] - dp.immediate[k] / dt + alpha[j] * dp.immediate[j] / dt
    if np.any(p < -1e-9):
        raise InputError("recovered transmit power is negative; invariant violated")
    return TransferPolicy(p=np.maximum(p, 0.0), delta=dp.immediate + dp.stored)


def decompose(policy: TransferPolicy, sc: Scenario,
              immediate: np.ndarray | None = None) -> DecomposedPolicy:
    """Express a raw policy in consumed-power coordinates.

    With immediate=None the whole transfer is treated as immediate, which is
    exact for procrastinating policies.
    """
    gamma = np.asarray(policy.delta if immediate is None else immediate, dtype=float)
    eps = policy.delta - gamma
    alpha = sc.transfer_efficiency
    dt = sc.slot_seconds
    consumed = np.empty_like(policy.p)
    for k in range(2):
        j = 1 - k
        consumed[k] = policy.p[k] + gamma[k] / dt - alpha[j] * gamma[j] / dt
    return DecomposedPolicy(consumed=consumed, immediate=gamma, stored=eps)


def check_procrastinating(policy: TransferPolicy, sc: Scenario, tol=FEAS_TOL_MJ) -> bool:
    """True iff p_k >= a_j * delta_j every slot (transfers spent on arrival)."""
    alpha = sc.transfer_efficiency
    dt = sc.slot_seconds
    for k in range(2):
        j = 1 - k
        if np.any(policy.p[k] * dt - alpha[j] * policy.delta[j] < -tol):
            return False
    return True


def check_partially_procrastinating(dp: DecomposedPolicy, sc: Scenario,
                                    tol=FEAS_TOL_MJ) -> bool:
    """The three finite-battery conditions: procrastination of the immediate
    component, one-directional immediate transfers, and stored transfers only
    out of a full battery."""
    alpha = sc.transfer_efficiency
    dt = sc.slot_seconds
    policy = recover_transmit_powers(dp, sc)
    for k in range(2):
        j = 1 - k
        if np.any(policy.p[k] * dt - alpha[j] * dp.immediate[j] < -tol):
            return False
    if np.any(np.minimum(dp.immediate[0], dp.immediate[1]) > tol):
        return False
    trace = battery_trace(policy, sc)
    cap = sc.battery_capacity
    for k in range(2):
        if math.isinf(cap[k]):
            if np.any(dp.stored[k] > tol):
                return False
        else:
            headroom = cap[k] - trace.state[k]
            if np.any((dp.stored[k] > tol) & (headroom > tol)):
                return False
    return True


def procrastinate_transform(policy: TransferPolicy, sc: Scenario) -> DecomposedPolicy:
    """Rewrite a feasible policy with identical transmit powers so that it is
    partially procrastinating: postpone transfers until spendable, cancel
    bi-directional overlap, and route battery overflow into stored transfers.
    """
    report = check_feasible(policy, sc)
    if not report.feasible:
        raise InfeasiblePolicyError(report)
    n = sc.n_slots
    alpha = sc.transfer_efficiency
    cap = sc.battery_capacity
    dt = sc.slot_seconds
    p = np.array(policy.p)
    # cancel simultaneous bi-directional transfers; both batteries can only
    # rise (each node keeps ov and loses at most alpha*ov of income)
    overlap = np.minimum(policy.delta[0], policy.delta[1])
    delta = policy.delta - overlap
    pending = np.zeros(2)  # transfer obligation carried forward per node
    gamma = np.zeros((2, n))
    eps = np.zeros((2, n))
    s = np.zeros(2)
    for i in range(n):
        pending += delta[:, i]
        for k in range(2):
            j = 1 - k
            if alpha[k] > 0:
                gamma[k, i] = min(pending[k], p[j, i] * dt / alpha[k])
            else:
                gamma[k, i] = pending[k]  # worthless transfer; consuming it is harmless
        # postponement can re-introduce overlap; the cancelled obligation is
        # annulled, not re-postponed
        ov = min(gamma[0, i], gamma[1, i])
        gamma[:, i] -= ov
        pending -= gamma[:, i] + ov
        # battery overflow forced by held-back transfers goes out as the
        # stored component and counts against the remaining obligation
        for _ in range(200):
            delta_i = gamma[:, i] + eps[:, i]
            raw = np.array([
                s[k] + sc.harvests[k, i] - p[k, i] * dt - delta_i[k]
                + alpha[1 - k] * delta_i[1 - k]
                for k in range(2)
            ])
            flush = np.minimum(np.maximum(0.0, raw - cap), pending)
            if np.all(flush <= 1e-15):
                break
            eps[:, i] += flush
            pending -= flush
        delta_i = gamma[:, i] + eps[:, i]
        for k in range(2):
            s[k] = min(cap[k], s[k] + sc.harvests[k, i] - p[k, i] * dt - delta_i[k]
                       + alpha[1 - k] * delta_i[1 - k])
    consumed = np.empty_like(p)
    for k in range(2):
        j = 1 - k
        consumed[k] = p[k] + gamma[k] / dt - alpha[j] * gamma[j] / dt
    return DecomposedPolicy(consumed=consumed, immediate=gamma, stored=eps)
