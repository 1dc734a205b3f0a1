"""Brute-force verification oracles.

A quantized dynamic program over joint battery states and an exhaustive
grid maximizer for the per-slot transfer subproblem.  Harvests and
capacities are rounded down to the energy quantum, so every DP policy is
feasible under the exact dynamics and the DP value is a certified lower
bound on the true optimum.  The DP solves each slot in two array steps,
the best stored transfer per leftover energy and then the best consumption
per state, and sizes each battery by the energy that can reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import transfer
from .model import DecomposedPolicy, InputError, Scenario, recover_transmit_powers


@dataclass(frozen=True)
class DpConfig:
    energy_quantum_mJ: float | None = None
    grid_points: int = 40
    max_states: int = 2_000_000

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


def _keep_better(best, arg, cand, tag):
    """Where cand beats best by more than 1e-15, take it and record tag."""
    mask = cand > best + 1e-15
    best[mask] = cand[mask]
    arg[mask] = tag[mask] if isinstance(tag, np.ndarray) else tag


def dp_solve(sc: Scenario, cfg: DpConfig = DpConfig()):
    """Backward value iteration over quantized joint battery states.

    The state s = (s1, s2) is the quanta each battery carries into a slot,
    before the slot's harvest h.  An action consumes b_k <= s_k + h_k quanta
    per node, with the transfer within the slot from the closed forms.  With
    a finite capacity, one node may also send e quanta of its leftover
    m = s + h - b to the other, which stores floor(alpha_k * e) of them (the
    epsilon component).  The next state is m - e plus what was received,
    clipped at each capacity; consumption within a slot may exceed the
    capacity, since energy is spent before clipping.

    Each slot takes two exact steps.  First U[m], the best next-slot value
    over the stored transfers e, for every leftover m.  Then, per state,
    the best rate(b) + U[s + h - b] over the consumptions b.  The capacity
    of a finite battery is min(floor(c / q), both nodes' total harvested
    quanta): since alpha <= 1, no state above it is reachable.  An infinite
    battery is sized by its own total harvest, or by both nodes' when
    stored transfers can reach it.  Returns (objective lower bound in nats,
    TransferPolicy).
    """
    ssc = sc.unit_slot()
    q = cfg.quantum_for(sc)
    n = ssc.n_slots
    h = np.floor(ssc.harvests / q + 1e-12).astype(int)  # round down: feasible
    alpha = ssc.transfer_efficiency
    use_eps = not np.isinf(ssc.battery_capacity).all() and (alpha[0] > 0 or alpha[1] > 0)
    total = int(np.sum(h))
    s1max, s2max = (min(int(math.floor(c / q + 1e-12)), total) if math.isfinite(c)
                    else total if use_eps else int(np.sum(h[k]))
                    for k, c in enumerate(ssc.battery_capacity))
    n_states = (s1max + 1) * (s2max + 1)
    if n_states > cfg.max_states:
        raise InputError(
            f"DP state space {n_states} exceeds max_states={cfg.max_states}; "
            f"increase energy_quantum_mJ (currently {q:g} mJ) or max_states")

    bmax1 = s1max + int(np.max(h[0]))
    bmax2 = s2max + int(np.max(h[1]))
    rate_tab = np.zeros((bmax1 + 1, bmax2 + 1))
    for b1 in range(bmax1 + 1):
        for b2 in range(bmax2 + 1):
            rate_tab[b1, b2] = transfer.slot_transfer(
                ssc.model_kind, b1 * q, b2 * q, ssc).rate_nats

    def received(k, e):
        return int(alpha[k] * e + 1e-9)

    V = np.zeros((s1max + 1, s2max + 1))
    # per slot: consumed quanta b1 * width + b2 per state (s1, s2) and the
    # stored transfer per leftover (m1, m2), +e1 if node 1 sends, -e2 if node 2
    width = bmax2 + 1
    consume = [None] * n
    send = [None] * n
    s1_axis = np.arange(s1max + 1)
    s2_axis = np.arange(s2max + 1)
    for i in range(n - 1, -1, -1):
        h1i, h2i = int(h[0, i]), int(h[1, i])
        m1_axis = np.arange(s1max + h1i + 1)
        m2_axis = np.arange(s2max + h2i + 1)
        M1, M2 = len(m1_axis), len(m2_axis)

        U = V[np.ix_(np.minimum(m1_axis, s1max), np.minimum(m2_axis, s2max))]
        E = np.zeros((M1, M2), dtype=int)
        if use_eps:
            for e1 in range(1, M1):
                cand = V[np.ix_(np.minimum(m1_axis[e1:] - e1, s1max),
                                np.minimum(m2_axis + received(0, e1), s2max))]
                _keep_better(U[e1:], E[e1:], cand, e1)
            for e2 in range(1, M2):
                cand = V[np.ix_(np.minimum(m1_axis + received(1, e2), s1max),
                                np.minimum(m2_axis[e2:] - e2, s2max))]
                _keep_better(U[:, e2:], E[:, e2:], cand, -e2)

        # U's column for (s2, b2) is s2 + h2 - b2; b2 > s2 + h2 reads -inf
        U = np.concatenate([U, np.full((M1, 1), -math.inf)], axis=1)
        col = s2_axis[:, None] + h2i - m2_axis[None, :]
        col[col < 0] = M2
        best = np.full((s1max + 1, s2max + 1), -math.inf)
        B = np.zeros((s1max + 1, s2max + 1), dtype=int)
        for b1 in range(M1):
            lo1 = max(0, b1 - h1i)
            cand = rate_tab[b1, :M2] + U[s1_axis[lo1:] + h1i - b1][:, col]
            b2 = cand.argmax(axis=2)
            val = np.take_along_axis(cand, b2[..., None], axis=2)[..., 0]
            _keep_better(best[lo1:], B[lo1:], val, b1 * width + b2)
        V = best
        consume[i], send[i] = B, E

    value = float(V[0, 0])

    consumed = np.zeros((2, n))
    gamma = np.zeros((2, n))
    eps = np.zeros((2, n))
    s1 = s2 = 0
    for i in range(n):
        b1, b2 = divmod(int(consume[i][s1, s2]), width)
        m1, m2 = s1 + int(h[0, i]) - b1, s2 + int(h[1, i]) - b2
        e = int(send[i][m1, m2])
        e1, e2 = max(e, 0), max(-e, 0)
        consumed[0, i], consumed[1, i] = b1 * q, b2 * q
        st = transfer.slot_transfer(ssc.model_kind, b1 * q, b2 * q, ssc)
        gamma[0, i], gamma[1, i] = st.delta
        eps[0, i], eps[1, i] = e1 * q, e2 * q
        s1 = min(m1 - e1 + received(1, e2), s1max)
        s2 = min(m2 - e2 + received(0, e1), s2max)
    dp = DecomposedPolicy(consumed=consumed / sc.slot_seconds,
                          immediate=gamma, stored=eps)
    policy = recover_transmit_powers(dp, sc)
    return value * sc.slot_seconds, policy


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
