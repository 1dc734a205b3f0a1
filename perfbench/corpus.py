"""Seeded scenario corpora for the three benchmark workloads.

Every entry draws its numbers from its own Philox stream keyed by
``SeedSequence(entropy=seed, spawn_key=(workload, entry))``, the scheme
``ehcoop.harness`` uses for sweep trials, so an entry does not depend on how
many entries come before it.  The stratum of an entry (model, battery and
cooperation mode) is fixed by its index, so two seeds give corpora of the same
composition and differ only in the drawn numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 20150820

HARVEST_PEAK_MJ = 10.0
ALPHA_RANGE = (0.3, 0.9)
GAIN_DB_RANGE = (-102.0, -97.0)
CAPACITY_RANGE_MJ = (4.0, 12.0)
NOISE_W = 1e-13
SLOT_SECONDS = 1.0

MODES = ("bi", "uni12", "uni21", "none")


@dataclass(frozen=True)
class Workload:
    name: str
    key: int                # first spawn_key component
    n_slots: int
    strata: tuple           # (model, finite battery?, mode) cycled by entry index
    entries: int            # corpus size; a run cycles through it
    budget_s: float         # per-op wall budget, in a gap of the reference op times
    grid_points: int = 0    # `ehcoop verify --grid-points`; 0 for the solver workloads


WORKLOADS = {
    w.name: w for w in (
        Workload("inf-bcd", 0, 4,
                 tuple(itertools.product(("TWC", "THC"), (False,), MODES)),
                 entries=192, budget_s=0.6),
        Workload("finite-dwf", 1, 4,
                 tuple(itertools.product(("TWC", "THC", "MAC"), (True,), MODES)),
                 entries=192, budget_s=0.32),
        Workload("verify-cli", 2, 3,
                 tuple(itertools.product(("TWC", "THC", "MAC"), (False, True), ("bi",))),
                 entries=192, budget_s=0.65, grid_points=20),
    )
}


@dataclass(frozen=True)
class Entry:
    """One generated input, as plain numbers (no ehcoop types)."""

    workload: str
    index: int
    model: str
    mode: str
    harvests: tuple         # ((node 1 slots...), (node 2 slots...)) in mJ
    capacity: tuple         # (c1, c2) in mJ, or ("inf", "inf")
    alpha: tuple
    gain_db: tuple

    def scenario_dict(self):
        """The scenario in the JSON schema of ``ehcoop.harness``."""
        return {
            "model": self.model,
            "harvests_mJ": [list(row) for row in self.harvests],
            "battery_capacity_mJ": list(self.capacity),
            "transfer_efficiency": list(self.alpha),
            "channel_gain_dB": list(self.gain_db),
            "noise_power_W": [NOISE_W, NOISE_W],
            "slot_seconds": SLOT_SECONDS,
        }


def entry_rng(seed, workload_key, index):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(workload_key, index))
    return np.random.Generator(np.random.Philox(seed=ss))


def make_entry(workload: Workload, seed: int, index: int, n_slots=None) -> Entry:
    n = workload.n_slots if n_slots is None else n_slots
    model, finite, mode = workload.strata[index % len(workload.strata)]
    rng = entry_rng(seed, workload.key, index)
    # fixed draw order: the capacity is drawn for every entry, so the other
    # draws do not depend on the battery kind
    harvests = HARVEST_PEAK_MJ * rng.random((2, n))
    alpha = rng.uniform(*ALPHA_RANGE, size=2)
    gain_db = rng.uniform(*GAIN_DB_RANGE, size=2)
    capacity = rng.uniform(*CAPACITY_RANGE_MJ, size=2)
    return Entry(
        workload=workload.name, index=index, model=model, mode=mode,
        harvests=tuple(tuple(float(x) for x in row) for row in harvests),
        capacity=tuple(float(c) for c in capacity) if finite else ("inf", "inf"),
        alpha=tuple(float(a) for a in alpha),
        gain_db=tuple(float(g) for g in gain_db),
    )


def make_corpus(name: str, seed: int, entries=None, n_slots=None):
    workload = WORKLOADS[name]
    count = workload.entries if entries is None else entries
    return [make_entry(workload, seed, i, n_slots) for i in range(count)]
