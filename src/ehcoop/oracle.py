"""Brute-force verification oracles.

A quantized dynamic program over joint battery states and an exhaustive
grid maximizer for the per-slot transfer subproblem.  Harvests and
capacities are rounded down to the energy quantum, so every DP policy is
feasible under the exact dynamics and the DP value is a certified lower
bound on the true optimum.
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

    def quantum_for(self, sc: Scenario) -> float:
        if self.energy_quantum_mJ is not None:
            if self.energy_quantum_mJ <= 0:
                raise InputError("energy_quantum_mJ must be positive")
            return self.energy_quantum_mJ
        budget = max(float(np.sum(sc.harvests[0])), float(np.sum(sc.harvests[1])), 1e-12)
        return budget / self.grid_points


def dp_solve(sc: Scenario, cfg: DpConfig = DpConfig()):
    """Backward value iteration over quantized joint battery states.

    Actions are quantized consumed energies per node; the transfer within a
    slot comes from the closed forms.  With a finite capacity, additional
    actions transfer stored quanta to the other node (the epsilon
    component).  Returns (objective lower bound in nats, TransferPolicy).
    """
    ssc = sc.unit_slot()
    q = cfg.quantum_for(sc)
    n = ssc.n_slots
    h = np.floor(ssc.harvests / q + 1e-12).astype(int)  # round down: feasible
    caps = []
    any_finite = False
    for k in range(2):
        c = ssc.battery_capacity[k]
        if math.isinf(c):
            caps.append(int(np.sum(h[k])))
        else:
            caps.append(int(math.floor(c / q + 1e-12)))
            any_finite = True
    s1max, s2max = caps
    n_states = (s1max + 1) * (s2max + 1)
    if n_states > cfg.max_states:
        raise InputError(
            f"DP state space {n_states} exceeds max_states={cfg.max_states}; "
            f"increase energy_quantum_mJ (currently {q:g} mJ) or max_states")

    # state = battery carry-over BEFORE the slot's harvest, so consumption
    # within a slot may exceed capacity (energy is spent before clipping)
    bmax1 = s1max + int(np.max(h[0]))
    bmax2 = s2max + int(np.max(h[1]))
    rate_tab = np.zeros((bmax1 + 1, bmax2 + 1))
    for b1 in range(bmax1 + 1):
        for b2 in range(bmax2 + 1):
            rate_tab[b1, b2] = transfer.slot_transfer(
                ssc.model_kind, b1 * q, b2 * q, ssc).rate_nats

    alpha = ssc.transfer_efficiency
    use_eps = any_finite and (alpha[0] > 0 or alpha[1] > 0)

    V = np.zeros((s1max + 1, s2max + 1))
    # action per (slot, s1, s2): consumed quanta and stored-transfer quanta
    act = np.zeros((n, s1max + 1, s2max + 1, 4), dtype=int)
    s1_axis = np.arange(s1max + 1)
    s2_axis = np.arange(s2max + 1)
    for i in range(n - 1, -1, -1):
        h1i, h2i = int(h[0, i]), int(h[1, i])
        best = np.full((s1max + 1, s2max + 1), -math.inf)
        abest = np.zeros((s1max + 1, s2max + 1, 4), dtype=int)

        def consider(b1, b2, e1, e2, r1, r2):
            # feasible from states with s + h >= consumed + sent quanta
            lo1 = max(0, b1 + e1 - h1i)
            lo2 = max(0, b2 + e2 - h2i)
            if lo1 > s1max or lo2 > s2max:
                return
            n1 = np.clip(s1_axis[lo1:] + h1i - b1 - e1 + r1, 0, s1max)
            n2 = np.clip(s2_axis[lo2:] + h2i - b2 - e2 + r2, 0, s2max)
            cand = rate_tab[b1, b2] + V[np.ix_(n1, n2)]
            sub = best[lo1:, lo2:]
            mask = cand > sub + 1e-15
            sub[mask] = cand[mask]
            asub = abest[lo1:, lo2:]
            asub[mask] = (b1, b2, e1, e2)

        for b1 in range(s1max + h1i + 1):
            for b2 in range(s2max + h2i + 1):
                consider(b1, b2, 0, 0, 0, 0)
                if use_eps:
                    for e1 in range(1, s1max + h1i + 1 - b1):
                        consider(b1, b2, e1, 0, 0, int(alpha[0] * e1 + 1e-9))
                    for e2 in range(1, s2max + h2i + 1 - b2):
                        consider(b1, b2, 0, e2, int(alpha[1] * e2 + 1e-9), 0)
        V = best
        act[i] = abest

    s = (0, 0)
    value = float(V[s[0], s[1]])

    consumed = np.zeros((2, n))
    gamma = np.zeros((2, n))
    eps = np.zeros((2, n))
    for i in range(n):
        b1, b2, e1, e2 = act[i][s[0], s[1]]
        consumed[0, i], consumed[1, i] = b1 * q, b2 * q
        st = transfer.slot_transfer(ssc.model_kind, b1 * q, b2 * q, ssc)
        gamma[0, i], gamma[1, i] = st.delta
        eps[0, i], eps[1, i] = e1 * q, e2 * q
        s = (min(s[0] + int(h[0, i]) - b1 - e1 + int(alpha[1] * e2 + 1e-9), s1max),
             min(s[1] + int(h[1, i]) - b2 - e2 + int(alpha[0] * e1 + 1e-9), s2max))
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
