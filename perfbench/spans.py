"""In-memory span recorder and the wrappers that feed it.

The benchmark attributes wall time to layers without touching the
program: in the traced process only, :func:`instrument` replaces the
public entry points of each layer (``CodingPlan.apply``,
``ReedSolomonCode.repair``, ``Simulator.run``, every planner's
``plan_*`` ...) with thin wrappers.  A wrapper either records a span
(name, start, end, parent, operation id) or bumps a counter; hot
entry points called per simulated event only count.

Spans stay in memory and are written out once, at the end of the run.
:func:`span_summary` derives busy time (outermost spans of a layer),
self time (span minus its direct children) and call counts from them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: (name id, start, end, parent index or -1, op id, bytes)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        #: operation id stamped on new spans (-1: outside any operation)
        self.op = -1
        self._next_op = 0
        self.enabled = False
        #: clusters built while recording (utilisation is read at the end)
        self.clusters: list = []
        #: (selector id, stripe) -> [target code, served a repair yet]
        self.last_conversion: dict = {}

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        """Open a span; returns its index (close it with :meth:`end`)."""
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([self._name(name), _clock(), 0.0, parent, self.op, 0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self.stack.pop()

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, (nid, start, end, parent, op, nbytes) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[nid],
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                            "bytes": nbytes,
                        }
                    )
                )
                fh.write("\n")


def _span_wrapper(rec: Recorder, name: str, fn, nbytes=None, keep=None):
    """Wrap ``fn`` so every call while recording becomes a span."""

    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if nbytes is not None:
            rec.spans[idx][5] = nbytes(args + tuple(kwargs.values()), out)
        if keep is not None:
            keep(args, out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    """Wrap ``fn`` so every call while recording bumps a counter."""
    counts = rec.counts

    def wrapper(*args, **kwargs):
        if rec.enabled:
            counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _op_generator_wrapper(rec: Recorder, name: str, fn, failures):
    """Wrap a generator-function operation (``ObjectStore.get_op``).

    The wrapper drives the original generator by hand so it can set the
    recorder's operation id on every resume and see which exception type
    propagates out of the operation.
    """

    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.enabled:
            return (yield from gen)
        rec.counts[name] += 1
        op = rec._next_op
        rec._next_op += 1
        value, exc = None, None
        while True:
            prev, rec.op = rec.op, op
            try:
                step = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            except failures as err:
                rec.counts[f"{name}.failed.{type(err).__name__}"] += 1
                raise
            finally:
                rec.op = prev
            try:
                value, exc = (yield step), None
            except BaseException as err:  # forwarded into the operation
                value, exc = None, err

    wrapper.__wrapped__ = fn
    return wrapper


def _patch(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def instrument(rec: Recorder, gen_modules: list) -> None:
    """Install every layer wrapper (traced process only; never undone).

    ``gen_modules`` are the module objects through which the benchmark and
    the program call the input generators (``generate_arrivals``,
    ``make_trace``, ``failures_for_trace``).
    """
    from repro.chaos.faults import PartitionError
    from repro.cluster import Cluster, FIFOResource, RecoveryManager
    from repro.cluster import RecoveryScheduler, Simulator
    from repro.cluster.client import DeadNodeError
    from repro.codes.msr import MSRCode
    from repro.codes.rs import ReedSolomonCode
    from repro.fusion.adaptation import AdaptiveSelector, CodeKind
    from repro.fusion.framework import ECFusion
    from repro.fusion.transform import FusionTransformer
    from repro.gf.plan import CodingPlan
    from repro.hybrid import planners as planner_mod
    from repro.hybrid.fusion_planner import ECFusionPlanner
    from repro.hybrid.hacfs import HACFSPlanner
    from repro.hybrid.multicode import MultiCodePlanner
    from repro.server.store import ObjectStore

    # gf: the coding kernels
    for meth in ("apply", "apply_into", "apply_batch"):
        _patch(CodingPlan, meth, lambda f: _span_wrapper(
            rec, "gf", f, nbytes=lambda a, out: a[1].nbytes))

    # codes: RS / MSR encode and repair
    for cls in (ReedSolomonCode, MSRCode):
        _patch(cls, "encode", lambda f: _span_wrapper(rec, "codes.encode", f))
        _patch(cls, "repair", lambda f: _span_wrapper(
            rec, "codes.repair", f, nbytes=lambda a, out: out.total_bytes_read))

    # fusion.transform: the RS<->MSR conversion
    def kept_conversion(direction):
        def keep(a, out):
            # user bytes converted: k blocks of the input's block length
            blocks = a[1] if direction == "rs_to_msr" else a[1][0]
            rec.counts[f"fusion.transform.{direction}.user_bytes"] += (
                a[0].k * blocks.shape[1]
            )
            rec.counts["fusion.transform.blocks_read"] += out.cost.blocks_read
        return keep

    for direction in ("rs_to_msr", "msr_to_rs"):
        _patch(FusionTransformer, direction, lambda f, d=direction: _span_wrapper(
            rec, f"fusion.transform.{d}", f, keep=kept_conversion(d)))

    # fusion: the data-carrying store and the adaptive selector
    for meth in ("write", "read", "recover"):
        _patch(ECFusion, meth, lambda f: _span_wrapper(rec, "fusion.store", f))

    def selector_keep(trigger):
        def keep(a, conversions):
            sel, stripe = a[0], a[1]
            last = rec.last_conversion
            for conv in conversions:
                rec.counts["fusion.conversions"] += 1
                last[(id(sel), conv.stripe)] = [conv.target, False]
            if trigger == "recovery":
                # a conversion is useful once its stripe serves a repair in
                # MSR before the next conversion reverts it
                entry = last.get((id(sel), stripe))
                if entry is not None and entry[0] is CodeKind.MSR and not entry[1]:
                    entry[1] = True
                    rec.counts["fusion.conversions.useful"] += 1
        return keep

    for trig in ("write", "read", "recovery"):
        _patch(AdaptiveSelector, f"on_{trig}", lambda f, t=trig: _span_wrapper(
            rec, "fusion.selector", f, keep=selector_keep(t)))

    # hybrid: every plan_* of every planner
    planner_classes = [
        obj for obj in vars(planner_mod).values()
        if isinstance(obj, type) and issubclass(obj, planner_mod.SchemePlanner)
    ] + [ECFusionPlanner, HACFSPlanner, MultiCodePlanner]
    for cls in planner_classes:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("plan_") and callable(val):
                setattr(cls, attr, _span_wrapper(rec, "hybrid.plan", val))

    # cluster: DES kernel, resources, repair scheduling
    def run_keep(a, out):
        rec.counts["cluster.des.events"] += a[0]._seq

    _patch(Simulator, "run", lambda f: _span_wrapper(
        rec, "cluster.des.run", f, keep=run_keep))
    _patch(Simulator, "step", lambda f: _count_wrapper(rec, "cluster.des.steps", f))
    _patch(FIFOResource, "acquire", lambda f: _count_wrapper(
        rec, "cluster.resource.acquires", f))
    _patch(FIFOResource, "use_ev", lambda f: _count_wrapper(
        rec, "cluster.resource.acquires", f))
    _patch(RecoveryScheduler, "submit", lambda f: _count_wrapper(
        rec, "cluster.recovery.submits", f))
    _patch(RecoveryManager, "submit", lambda f: _count_wrapper(
        rec, "cluster.recovery.submits", f))

    orig_init = Cluster.__init__

    def cluster_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if rec.enabled:
            rec.clusters.append(self)

    Cluster.__init__ = cluster_init

    # server: the object store's operations
    failures = (PartitionError, DeadNodeError)
    _patch(ObjectStore, "get_op", lambda f: _op_generator_wrapper(
        rec, "server.gets", f, failures))
    _patch(ObjectStore, "put_op", lambda f: _op_generator_wrapper(
        rec, "server.puts", f, failures))

    # workloads: input generators, patched where they are looked up
    for mod in gen_modules:
        for attr in ("generate_arrivals", "make_trace", "failures_for_trace"):
            if hasattr(mod, attr):
                _patch(mod, attr, lambda f: _span_wrapper(rec, "workloads.gen", f))


def span_summary(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy (outermost same-name spans), self, bytes."""
    spans = rec.spans
    names = rec.names
    child_time = [0.0] * len(spans)
    for nid, start, end, parent, _op, _b in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "bytes": 0.0}
    )
    for i, (nid, start, end, parent, _op, nbytes) in enumerate(spans):
        name = names[nid]
        row = out[name]
        dur = end - start
        row["calls"] += 1
        row["self"] += dur - child_time[i]
        # busy counts a span only when no ancestor has the same name
        outer = True
        p = parent
        while p >= 0:
            if spans[p][0] == nid:
                outer = False
                break
            p = spans[p][3]
        if outer:
            row["busy"] += dur
            row["bytes"] += nbytes
    return out
