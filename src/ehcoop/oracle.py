"""Brute-force verification oracles.

A quantized dynamic program over joint battery states and an exhaustive
grid maximizer for the per-slot transfer subproblem.  Harvests and
capacities are rounded down to the energy quantum, so every DP policy is
feasible under the exact dynamics and the DP value is a certified lower
bound on the true optimum.  The DP keeps only values in its backward pass,
two arrays per slot (the best stored transfer per leftover energy, then
the best consumption per state) over the battery states the slot can
reach, and recovers the policy on the one path it visits.  It sizes each
battery by the energy that can reach it and refuses a grid whose arrays
would not fit in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transfer
from .model import DecomposedPolicy, InputError, Scenario, recover_transmit_powers

MAX_STATES = 2_000_000  # joint battery states dp_solve accepts
MAX_CELLS = 8_000_000   # cells of the largest per-slot array dp_solve accepts (64 MB)


@dataclass(frozen=True)
class DpConfig:
    energy_quantum_mJ: float | None = None
    grid_points: int = 40

    def __post_init__(self):
        q = self.energy_quantum_mJ
        if q is not None and not (math.isfinite(q) and q > 0):
            raise InputError(f"energy_quantum_mJ must be positive and finite, got {q}")
        if self.grid_points < 1:
            raise InputError(f"grid_points must be at least 1, got {self.grid_points}")

    def quantum_for(self, sc: Scenario) -> float:
        if self.energy_quantum_mJ is not None:
            return self.energy_quantum_mJ
        budget = max(float(np.sum(sc.harvests[0])), float(np.sum(sc.harvests[1])), 1e-12)
        return budget / self.grid_points


def dp_solve(sc: Scenario, cfg: DpConfig = DpConfig(), *, policy: bool = True):
    """Backward value iteration over quantized joint battery states.

    The state s = (s1, s2) is the quanta each battery carries into a slot,
    before the slot's harvest h.  An action consumes b_k <= s_k + h_k quanta
    per node, with the transfer within the slot from the model's split.  With
    a finite capacity, one node may also send e quanta of its leftover
    m = s + h - b to the other, which stores floor(alpha_k * e) of them (the
    epsilon component).  The next state is m - e plus what was received,
    clipped at each capacity; consumption within a slot may exceed the
    capacity, since energy is spent before clipping.

    The backward pass keeps values only, two arrays per slot i.  First
    W_i[m], the best next-slot value over the stored transfers e, for every
    leftover m: one gather of V_{i+1} per sender over all e, with -inf where
    e exceeds the leftover.  Then V_i[s], the best rate(b) + W_i[s + h - b]
    over the consumptions b: one loop over b1 that reduces a slice of one
    gather of W_i's columns.  The capacity of a finite battery is
    min(floor(c / q), both nodes' total harvested quanta): since
    alpha <= 1, no state above it is reachable.  An infinite battery is
    sized by its own total harvest, or by both nodes' when stored transfers
    can reach it.

    Slot i visits only the states it can reach: each battery carries at
    most R_i quanta into it, where R_0 = 0 and R_{i+1} is R_i + h_i plus
    what a stored transfer of all the other node's R_i + h_i would deliver,
    clipped at the capacity.  The rates of all consumptions up to
    max_i(R_i + h_i) come from one transfer.rate_grid call.  Before
    anything is allocated, the state count and the largest per-slot array
    are checked against MAX_STATES and MAX_CELLS.

    The forward pass recovers the action only at the one state each slot
    visits: the first maximiser over (b1, b2) of rate(b) + W_i[s + h - b],
    then the first stored transfer whose next state attains W_i[m].
    Returns (objective lower bound in nats, TransferPolicy); with
    policy=False the forward pass is skipped and the policy is None.
    """
    ssc = sc.unit_slot()
    q = cfg.quantum_for(sc)
    n = ssc.n_slots
    h = np.floor(ssc.harvests / q + 1e-12).astype(int)  # round down: feasible
    alpha = ssc.transfer_efficiency
    use_eps = not np.isinf(ssc.battery_capacity).all() and (alpha[0] > 0 or alpha[1] > 0)
    # a sender whose energy never arrives cannot beat storing nothing
    senders = [k for k in range(2) if use_eps and alpha[k] > 0]
    total = int(np.sum(h))
    # c is capped before dividing: c / q can overflow
    s1max, s2max = (min(int(math.floor(min(c, (total + 1) * q) / q + 1e-12)), total)
                    if math.isfinite(c)
                    else total if use_eps else int(np.sum(h[k]))
                    for k, c in enumerate(ssc.battery_capacity))
    smax = (s1max, s2max)

    def received(k, e):
        return int(alpha[k] * e + 1e-9)

    # reach[i]: the most quanta each battery can carry into slot i, have[i]:
    # the most it can hold after slot i's harvest
    reach, have = [(0, 0)], []
    for i in range(n):
        m1, m2 = reach[i][0] + int(h[0, i]), reach[i][1] + int(h[1, i])
        got1, got2 = (received(1, m2), received(0, m1)) if use_eps else (0, 0)
        have.append((m1, m2))
        reach.append((min(m1 + got1, s1max), min(m2 + got2, s2max)))
    n_states = (s1max + 1) * (s2max + 1)
    # the largest per-slot arrays: the gather of W_i's columns, (m1, r2, m2)
    # over slot i's leftovers m and states r, and each sender's gather
    cells = max((m1 + 1) * (m2 + 1) * max([r2 + 1] + [(m1, m2)[k] + 1 for k in senders])
                for (m1, m2), (_, r2) in zip(have, reach))
    if n_states > MAX_STATES or cells > MAX_CELLS:
        raise InputError(
            f"DP state space {n_states} (largest per-slot array {cells} cells) exceeds "
            f"max_states={MAX_STATES} or max_cells={MAX_CELLS}; "
            f"increase energy_quantum_mJ (currently {q:g} mJ)")

    bmax1, bmax2 = map(max, zip(*have))
    rate_tab = transfer.rate_grid(ssc.model_kind, np.arange(bmax1 + 1) * q,
                                  np.arange(bmax2 + 1) * q, ssc)

    def after(m1, m2, e1, e2):
        """The next state from leftover (m1, m2) after a stored transfer."""
        return min(m1 - e1 + received(1, e2), s1max), min(m2 - e2 + received(0, e1), s2max)

    # V[i]: the value of each state reachable at slot i; W[i]: the value of
    # each leftover after slot i's consumption.  Both carry a -inf border
    # column, and V a -inf border row, read by actions past the energy held.
    V, W = [None] * (n + 1), [None] * n
    V[n] = np.zeros((reach[n][0] + 2, reach[n][1] + 2))
    V[n][-1], V[n][:, -1] = -math.inf, -math.inf
    for i in range(n - 1, -1, -1):
        h1i, h2i = int(h[0, i]), int(h[1, i])
        S1, S2 = reach[i][0] + 1, reach[i][1] + 1
        M1, M2 = have[i][0] + 1, have[i][1] + 1
        axes = (np.arange(M1), np.arange(M2))

        # every next state is within reach[i + 1], the extent of V[i + 1]
        nxt = V[i + 1]
        W[i] = nxt[np.minimum(axes[0], s1max)[:, None],
                   np.append(np.minimum(axes[1], s2max), nxt.shape[1] - 1)]
        stored = W[i][:, :M2]
        for k in senders:
            e = np.arange((M1, M2)[k])
            kept = axes[k][:, None] - e
            kept = np.where(kept < 0, nxt.shape[k] - 1, np.minimum(kept, smax[k]))
            got = np.minimum(axes[1 - k][:, None] + (alpha[k] * e + 1e-9).astype(int),
                             smax[1 - k])  # received(k, e) for every e
            r, c = (kept, got) if k == 0 else (got, kept)
            np.maximum(stored, nxt[r[:, None, :], c[None, :, :]].max(axis=2), out=stored)

        # Wc[m1, s2, b2] = W_i[m1, s2 + h2 - b2], and -inf where b2 > s2 + h2
        col = np.arange(S2)[:, None] + h2i - axes[1]
        col[col < 0] = M2
        Wc = W[i][:, col]
        V[i] = np.full((S1 + 1, S2 + 1), -math.inf)
        best = V[i][:S1, :S2]
        for b1 in range(M1):
            lo1 = max(0, b1 - h1i)
            cand = (rate_tab[b1, :M2] + Wc[lo1 + h1i - b1:S1 + h1i - b1]).max(axis=2)
            np.maximum(best[lo1:], cand, out=best[lo1:])
    value = float(V[0][0, 0]) * sc.slot_seconds
    if not policy:
        return value, None

    consumed = np.zeros((2, n))
    gamma = np.zeros((2, n))
    eps = np.zeros((2, n))
    s1 = s2 = 0
    for i in range(n):
        m1, m2 = s1 + int(h[0, i]), s2 + int(h[1, i])
        cand = rate_tab[:m1 + 1, :m2 + 1] + W[i][m1::-1, m2::-1]
        b1, b2 = divmod(int(cand.argmax()), m2 + 1)
        m1, m2 = m1 - b1, m2 - b2
        sends = [(0, 0)]
        sends += [(e, 0) for e in range(1, m1 + 1) if 0 in senders]
        sends += [(0, e) for e in range(1, m2 + 1) if 1 in senders]
        values = [V[i + 1][after(m1, m2, e1, e2)] for e1, e2 in sends]
        e1, e2 = sends[values.index(max(values))]
        consumed[0, i], consumed[1, i] = b1 * q, b2 * q
        st = transfer.slot_transfer(ssc.model_kind, b1 * q, b2 * q, ssc)
        gamma[0, i], gamma[1, i] = st.delta
        eps[0, i], eps[1, i] = e1 * q, e2 * q
        s1, s2 = after(m1, m2, e1, e2)
    dp = DecomposedPolicy(consumed=consumed / sc.slot_seconds,
                          immediate=gamma, stored=eps)
    return value, recover_transmit_powers(dp, sc)


def grid_transfer_max(model_kind, pb1, pb2, sc: Scenario, points=400):
    """Exhaustive search over uni-directional transfer grids on [0, pbar]."""
    if points < 100:
        raise InputError("points must be >= 100")
    best_delta = (0.0, 0.0)
    best_rate = transfer.applied_rate(model_kind, pb1, pb2, (0.0, 0.0), sc)
    for k, pb in ((0, pb1), (1, pb2)):
        if pb <= 0:
            continue
        for d in np.linspace(0.0, pb, points + 1):
            delta = (d, 0.0) if k == 0 else (0.0, d)
            r = transfer.applied_rate(model_kind, pb1, pb2, delta, sc)
            if r > best_rate:
                best_rate = r
                best_delta = delta
    return best_delta, best_rate
