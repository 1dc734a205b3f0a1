"""Span tracing of the ehcoop layers, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules, at
every module attribute that binds it, with a wrapper that records a span:
name, start, end, parent span and op id.  ``Scenario.__post_init__`` and
``Scenario.with_efficiency`` are wrapped too, so scenario builds are counted.
Private helpers (``_solve_pool``, ``_SlotLevel.inv``, ...) are not wrapped;
their time shows up as self time of the public function that called them.

Spans are recorded only while an op is running (``op_id >= 0``), so the
benchmark's own correctness checks, which call the same functions between
ops, are not traced.  Counts and self times of every span are aggregated as
the span closes; the full spans of the first few ops are kept and written out
once, when the run ends.  A budget timeout can interrupt the tracer anywhere,
so a span is kept by one append when it closes: a timeout loses at most the
span it interrupts, never leaves the kept spans inconsistent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("model", "transfer", "waterfill", "oracle", "harness", "cli")
SCENARIO_METHODS = ("__post_init__", "with_efficiency")
RATE_FUNCTIONS = ("transfer.twc_transfer", "transfer.thc_transfer", "transfer.mac_transfer")
KEPT_OPS = 5    # ops whose full spans are kept; one solve can make ~10^5 calls


class Tracer:
    """Aggregates every span and keeps the full spans of the first KEPT_OPS ops.

    Counts are keyed by (function, calling function), self times by function.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []         # (span id, name id, parent span id, op id, start, end, self)
        self._next_span = 0
        self.calls = Counter()              # (name id, caller name id) -> spans
        self.self_time = defaultdict(float)  # name id -> summed self time
        self.iterations = []    # SolveReport.bcd_iterations of each waterfill.solve span
        self.op_id = -1
        self._stack = []        # [span id or -1, time covered by children, name id]
        self._undo = []
        self._solve_id = self._name_id("waterfill.solve")

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id):
        """Start recording spans for op `op_id`; drops frames a timeout left open."""
        self._stack.clear()
        self.op_id = op_id

    def _call(self, nid, fn, args, kwargs):
        stack = self._stack
        caller = stack[-1] if stack else None
        sid = -1
        if self.op_id < KEPT_OPS:
            sid = self._next_span
            self._next_span = sid + 1
        frame = [sid, 0.0, nid]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            own = (t1 - t0) - frame[1]
            self.calls[nid, caller[2] if caller else -1] += 1
            self.self_time[nid] += own
            if caller:
                caller[1] += t1 - t0
            if sid >= 0:
                self.spans.append((sid, nid, caller[0] if caller else -1, self.op_id,
                                   t0, t1, own))
        if nid == self._solve_id:
            self.iterations.append(result.bcd_iterations)
        return result

    def _wrap(self, name, fn):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            return self._call(nid, fn, args, kwargs)

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions at every binding; undo with remove()."""
        package = importlib.import_module("ehcoop")
        modules = [importlib.import_module(f"ehcoop.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in [package] + modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("ehcoop.") or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._set(module, attr, wrappers[obj])
        scenario = importlib.import_module("ehcoop.model").Scenario
        for method in SCENARIO_METHODS:
            self._set(scenario, method,
                      self._wrap(f"model.Scenario.{method}", vars(scenario)[method]))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def layer_metrics(self, n_ops, op_wall_s):
        """Per-layer counts and self times, per op and as shares of op wall time."""
        ids = self._ids
        calls = Counter()
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        for (nid, caller), count in self.calls.items():
            calls[self.names[nid]] += count
        for nid, own in self.self_time.items():
            self_s[self.names[nid]] += own
            layer_self[self.names[nid].partition(".")[0]] += own
        level_id = ids.get("transfer.water_level", -2)
        rate_ids = {ids[n] for n in RATE_FUNCTIONS if n in ids}
        rate_calls = sum(c for (nid, _), c in self.calls.items() if nid in rate_ids)
        rate_from_level = sum(c for (nid, caller), c in self.calls.items()
                              if nid in rate_ids and caller == level_id)
        dp_slot_calls = self.calls[ids.get("transfer.slot_transfer", -2),
                                   ids.get("oracle.dp_solve", -2)]
        per_op = 1.0 / n_ops
        share = 1.0 / op_wall_s
        return {
            "transfer.water_level.calls_per_op": (calls["transfer.water_level"] * per_op, "count"),
            "transfer.water_level.self_s_per_op": (self_s["transfer.water_level"] * per_op, "s"),
            "transfer.slot_transfer.calls_per_op": (calls["transfer.slot_transfer"] * per_op, "count"),
            "transfer.slot_transfer.self_s_per_op": (self_s["transfer.slot_transfer"] * per_op, "s"),
            "transfer.discarded_rate_frac": (rate_from_level / rate_calls if rate_calls else 0.0,
                                             "fraction"),
            "transfer.self_s_per_op": (layer_self["transfer"] * per_op, "s"),
            "transfer.share": (layer_self["transfer"] * share, "fraction"),
            "waterfill.self_s_per_op": (layer_self["waterfill"] * per_op, "s"),
            "waterfill.iterations_per_solve": (
                float(np.mean(self.iterations)) if self.iterations else 0.0, "count"),
            "waterfill.share": (layer_self["waterfill"] * share, "fraction"),
            "model.scenario_builds_per_op": (calls["model.Scenario.__post_init__"] * per_op,
                                             "count"),
            "model.self_s_per_op": (layer_self["model"] * per_op, "s"),
            "model.share": (layer_self["model"] * share, "fraction"),
            "oracle.dp_solve.self_s_per_op": (self_s["oracle.dp_solve"] * per_op, "s"),
            "oracle.slot_transfer.calls_per_op": (dp_slot_calls * per_op, "count"),
            "oracle.self_s_per_op": (layer_self["oracle"] * per_op, "s"),
            "oracle.share": (layer_self["oracle"] * share, "fraction"),
            "harness.self_s_per_op": (layer_self["harness"] * per_op, "s"),
            "harness.share": (layer_self["harness"] * share, "fraction"),
            "cli.self_s_per_op": (layer_self["cli"] * per_op, "s"),
            "cli.share": (layer_self["cli"] * share, "fraction"),
        }

    def write(self, path):
        """Save the kept spans as flat arrays (.npz); names index into ``names``."""
        spans = sorted(self.spans)
        ints = np.array([s[:4] for s in spans], dtype=np.int64).reshape(-1, 4)
        times = np.array([s[4:] for s in spans], dtype=np.float64).reshape(-1, 3)
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            id=ints[:, 0], name=ints[:, 1], parent=ints[:, 2], op=ints[:, 3],
            start=times[:, 0], end=times[:, 1], self_s=times[:, 2])
