"""Reference policies for comparison sweeps."""

from __future__ import annotations

import enum

import numpy as np

from . import transfer
from .model import DecomposedPolicy, Scenario, TransferPolicy, recover_transmit_powers


class BaselineKind(enum.Enum):
    CONSTANT_POWER_NO_COOP = "constant_power_no_coop"
    CONSTANT_POWER_WITH_COOP = "constant_power_with_coop"


def constant_power(sc: Scenario, kind: BaselineKind) -> TransferPolicy:
    """Transmit at the node's mean harvest rate whenever the battery allows.

    Consumed power per slot is min(available stored energy, empirical mean
    of the harvest sequence).  The cooperation variant applies the per-slot
    closed-form transfers on top of those consumed powers.
    """
    n = sc.n_slots
    dt = sc.slot_seconds
    target = np.mean(sc.harvests, axis=1) / dt  # mW
    consumed = np.zeros((2, n))
    s = np.zeros(2)
    for i in range(n):
        for k in range(2):
            avail = min(s[k] + sc.harvests[k, i], sc.battery_capacity[k])
            consumed[k, i] = min(avail / dt, target[k])
            s[k] = avail - consumed[k, i] * dt
    delta = np.zeros((2, n))
    if kind is BaselineKind.CONSTANT_POWER_WITH_COOP:
        for i in range(n):
            delta[:, i] = transfer.slot_transfer(sc.model_kind, consumed[0, i] * dt,
                                                 consumed[1, i] * dt, sc).delta
    return recover_transmit_powers(
        DecomposedPolicy(consumed, immediate=delta, stored=np.zeros((2, n))), sc)
