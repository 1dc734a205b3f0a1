"""Shared scenario builders for the test suite.

The default channel constants (-100 dB gain, 1e-13 W noise) give an
effective noise of exactly 1 mW per node, so hand-computed rates stay
simple.
"""

import math

import numpy as np

from ehcoop.model import INFINITE, ModelKind, Scenario
from ehcoop.transfer import mac_sends, twc_transfer


def make_scenario(model=ModelKind.TWC, harvests=((2.0, 5.0, 0.0, 0.0), (0.0, 4.0, 0.0, 7.0)),
                  capacity=(INFINITE, INFINITE), alpha=(0.5, 0.5),
                  gain_db=(-100.0, -100.0), noise_w=(1e-13, 1e-13), slot_seconds=1.0):
    return Scenario(
        model_kind=model,
        harvests=np.asarray(harvests, dtype=float),
        battery_capacity=np.asarray(capacity, dtype=float),
        transfer_efficiency=np.asarray(alpha, dtype=float),
        channel_gain_db=np.asarray(gain_db, dtype=float),
        noise_power_w=np.asarray(noise_w, dtype=float),
        slot_seconds=slot_seconds,
    )


def finite_dwf_entry_126():
    """Default-seed finite-dwf benchmark entry 126, a THC scenario run in uni21
    mode, whose two-hop polish needs a backward move."""
    return make_scenario(
        model=ModelKind.THC, alpha=(0.4876526875618761, 0.6848680270589409),
        gain_db=(-101.22462435409793, -99.61263572990032),
        capacity=(11.365406591469645, 7.199332144399701),
        harvests=((3.5964990895493076, 4.166707892400458, 3.5822775377775464,
                   8.024960960847821),
                  (3.329915877437738, 2.2742165623363944, 3.7991958384349656,
                   1.1962831880054636)))


def level_rate(model_kind, pb1, pb2, sc):
    """The per-slot objective whose inverse marginal is the water level.

    For the TWC this is the slot capacity itself.  For the THC and MAC the
    level formulas drop the 1/2 factor of the capacity, so this surrogate is
    exactly twice the capacity; the maximizers coincide.
    """
    n1, n2 = sc.effective_noise_mw
    a1, a2 = sc.transfer_efficiency
    if model_kind is ModelKind.TWC:
        return twc_transfer(pb1, pb2, sc).rate_nats
    if model_kind is ModelKind.THC:
        t1 = (pb1 + a2 * pb2) / (n1 + a2 * n2)
        t2 = (a1 * pb1 + pb2) / (n2 + a1 * n1)
        return math.log1p(min(t1, t2))
    send1, send2 = mac_sends(sc)
    c1, c2 = 1.0 / n1, 1.0 / n2
    g1 = a1 * c2 if send1 else c1
    g2 = a2 * c1 if send2 else c2
    return math.log1p(g1 * pb1 + g2 * pb2)


def random_scenario(rng, model, finite=False, n_max=4, quantum=0.02):
    """Instances with quantum-aligned harvests so the DP oracle is tight."""
    n = int(rng.integers(2, n_max + 1))
    h = quantum * rng.integers(0, 11, size=(2, n)).astype(float)
    alpha = rng.uniform(0.3, 0.9, size=2)
    g = rng.uniform(-102, -97, size=2)
    caps = np.array([INFINITE, INFINITE])
    if finite:
        caps = quantum * rng.integers(2, 13, size=2).astype(float)
    return Scenario(model_kind=model, harvests=h, battery_capacity=caps,
                    transfer_efficiency=alpha, channel_gain_db=g,
                    noise_power_w=np.array([1e-13, 1e-13]), slot_seconds=1.0)


def random_feasible_policy(rng, sc):
    """A feasible, generally non-procrastinating TransferPolicy."""
    from ehcoop.model import TransferPolicy

    n = sc.n_slots
    dt = sc.slot_seconds
    alpha = sc.transfer_efficiency
    cap = sc.battery_capacity
    p = np.zeros((2, n))
    delta = np.zeros((2, n))
    s = np.zeros(2)
    for i in range(n):
        avail = s + sc.harvests[:, i]
        for k in range(2):
            delta[k, i] = rng.uniform(0.0, 0.6) * avail[k]
        for k in range(2):
            j = 1 - k
            room = avail[k] - delta[k, i] + alpha[j] * delta[j, i]
            p[k, i] = rng.uniform(0.0, 0.9) * max(room, 0.0) / dt
        for k in range(2):
            j = 1 - k
            s[k] = min(cap[k], avail[k] - p[k, i] * dt - delta[k, i]
                       + alpha[j] * delta[j, i])
    return TransferPolicy(p=p, delta=delta)
