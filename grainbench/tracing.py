"""Outside-in instrumentation of grainflow: patched functions, spans, counts.

Every wrapped public function records a span (name, start, end, parent) in
a per-thread log kept in memory; a layer's self time is its span time minus
the time its child spans cover.  Return values and arguments of a few
functions feed counters (operator counts, bytes moved).  Spans carry the
rank of the worker thread that made them, learned from the first argument
that has a ``rank`` (a transport or a ``SimState``); a thread that never
sees one is rank 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "grainflow"

# Span name -> the targets it wraps, as "module:attr" or "module:Class.method".
# A span name "layer.func" with no entry here wraps "layer:func".
_TARGETS = {
    "mesh.edge_array": ["mesh:Mesh.edge_array"],
    "transport.all_gather": ["transport:InProcessTransport.all_gather"],
    "transport.all_to_all": ["transport:InProcessTransport.all_to_all"],
    "runner.output": ["runner:_Emitter.step", "runner:_Emitter.finish"],
    "increment": ["motion:gg_increment", "protocol:parallel_increment"],
}

SPANS = [
    "tessellation.tessellate",
    "entities.tag_nodes", "entities.reconstruct_entities",
    "entities.lnodes_by_line", "entities.line_segments",
    "mesh.edge_array", "mesh.write_vtk",
    "remesh.remesh_pass", "remesh.collapse_sweep", "remesh.smooth_bulk",
    "remesh.glide_line", "remesh.split_sweep", "remesh.swap_sweep",
    "remesh.settle_offsets",
    "geometry.open_curvature", "geometry.closed_curvature",
    "geometry.junction_curvature", "geometry.curvature_at",
    "motion.node_velocities", "motion.move_nodes",
    "motion.decompose_junctions",
    "partitioning.initial_partition", "partitioning.restrict_mesh",
    "protocol.bootstrap_state", "protocol.detect_shared_nodes",
    "protocol.regularize_identities", "protocol.compute_ranking",
    "protocol.select_elements_to_send", "protocol.scatter_mesh",
    "protocol.complete_temporary_nodes", "protocol.node_velocities_parallel",
    "protocol.parallel_move",
    "transport.all_gather", "transport.all_to_all",
    "wire.encode_records", "wire.decode_records",
    "stats.surface_areas",
    "runner.output",
    "increment",
]

# Reported as time including child spans: the whole output step (VTK,
# histogram, stats and timings writes), whose VTK part is mesh.write_vtk_s.
INCLUSIVE = {"runner.output"}

# Counted, not spanned: called once per candidate edge, their work belongs
# to the sweep that calls them.
ATTEMPTS = {"remesh.try_collapse": "remesh:try_collapse",
            "remesh.try_swap": "remesh:try_swap"}

_PASS_FIELDS = ("collapsed", "killed", "smoothed", "glided", "split", "swapped")

# Per-layer metrics in report order, with units.  "_s" is span self time,
# "_calls" span calls; every other name is a counter or a derived ratio.
PER_LAYER = [
    ("tessellation.tessellate_s", "s"),
    ("entities.tag_nodes_s", "s"),
    ("entities.reconstruct_entities_s", "s"),
    ("entities.lnodes_by_line_s", "s"),
    ("entities.lnodes_by_line_calls", "count"),
    ("entities.line_segments_s", "s"),
    ("entities.line_segments_calls", "count"),
    ("mesh.edge_array_s", "s"),
    ("mesh.edge_array_calls", "count"),
    ("mesh.write_vtk_s", "s"),
    ("mesh.write_vtk_bytes", "bytes"),
    ("remesh.remesh_pass_s", "s"),
    ("remesh.remesh_pass_calls", "count"),
    ("remesh.collapse_sweep_s", "s"),
    ("remesh.smooth_bulk_s", "s"),
    ("remesh.glide_line_s", "s"),
    ("remesh.split_sweep_s", "s"),
    ("remesh.swap_sweep_s", "s"),
    ("remesh.settle_offsets_s", "s"),
    ("remesh.settle_offsets_calls", "count"),
] + [(f"remesh.{f}", "count") for f in _PASS_FIELDS] + [
    ("remesh.collapse_accept", "fraction"),
    ("remesh.swap_accept", "fraction"),
    ("geometry.open_curvature_s", "s"),
    ("geometry.closed_curvature_s", "s"),
    ("geometry.closed_curvature_calls", "count"),
    ("geometry.junction_curvature_s", "s"),
    ("geometry.junction_curvature_calls", "count"),
    ("geometry.curvature_at_s", "s"),
    ("motion.node_velocities_s", "s"),
    ("motion.node_velocities_calls", "count"),
    ("motion.move_nodes_s", "s"),
    ("motion.decompose_junctions_s", "s"),
    ("motion.junctions_split", "count"),
    ("partitioning.initial_partition_s", "s"),
    ("partitioning.restrict_mesh_s", "s"),
    ("protocol.bootstrap_state_s", "s"),
    ("protocol.detect_shared_nodes_s", "s"),
    ("protocol.regularize_identities_s", "s"),
    ("protocol.compute_ranking_s", "s"),
    ("protocol.select_elements_to_send_s", "s"),
    ("protocol.scatter_mesh_s", "s"),
    ("protocol.elems_sent", "count"),
    ("protocol.elems_received", "count"),
    ("protocol.complete_temporary_nodes_s", "s"),
    ("protocol.node_velocities_parallel_s", "s"),
    ("protocol.parallel_move_s", "s"),
    ("transport.all_gather_calls", "count"),
    ("transport.all_gather_bytes", "bytes"),
    ("transport.all_gather_s", "s"),
    ("transport.all_to_all_calls", "count"),
    ("transport.all_to_all_bytes", "bytes"),
    ("transport.all_to_all_s", "s"),
    ("wire.encode_records_s", "s"),
    ("wire.encode_records_bytes", "bytes"),
    ("wire.decode_records_s", "s"),
    ("stats.surface_areas_s", "s"),
    ("runner.output_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
    ("trace.skipped", "count"),
]


def _count_pass(counts, args, kwargs, out):
    for f in _PASS_FIELDS:
        counts[f"remesh.{f}"] += getattr(out, f, 0)


def _count_junctions(counts, args, kwargs, out):
    counts["motion.junctions_split"] += int(out)


def _count_scatter(counts, args, kwargs, out):
    counts["protocol.elems_sent"] += sum(len(v) for v in out.sent.values())
    counts["protocol.elems_received"] += len(out.received)


def _count_vtk(counts, args, kwargs, out):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    counts["mesh.write_vtk_bytes"] += os.path.getsize(path)


def _count_encoded(counts, args, kwargs, out):
    counts["wire.encode_records_bytes"] += len(out)


def _count_gather(counts, args, kwargs, out):
    counts["transport.all_gather_bytes"] += len(args[1])


def _count_all_to_all(counts, args, kwargs, out):
    counts["transport.all_to_all_bytes"] += sum(len(p) for p in args[1])


_AFTER = {
    "remesh.remesh_pass": _count_pass,
    "motion.decompose_junctions": _count_junctions,
    "protocol.scatter_mesh": _count_scatter,
    "mesh.write_vtk": _count_vtk,
    "wire.encode_records": _count_encoded,
    "transport.all_gather": _count_gather,
    "transport.all_to_all": _count_all_to_all,
}


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, target: str, make) -> bool:
        """Replace ``target`` by ``make(original)`` wherever it is bound.

        A module function is replaced in every grainflow module namespace
        that holds the same object (``from .x import f`` binds a second
        name), a method on its class.  A name absent at the measured commit
        is listed in ``skipped`` instead.
        """
        modname, _, path = target.partition(":")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            self.skipped.append(target)
            return False
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.skipped.append(target)
            return False
        wrapped = make(orig)
        if outer:
            self.set(owner, attr, wrapped)
            return True
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != PACKAGE:
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, key, wrapped)
        return True


class _Log:
    """Spans and counters of one thread during one seed's run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.thread = threading.get_ident()
        self.rank: int | None = None
        self.stack: list[list] = []          # [span index, child seconds]
        self.spans: list = []                # (name, start, end, parent)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)


def _rank_of(args) -> int | None:
    rank = getattr(args[0], "rank", None) if args else None
    return rank if isinstance(rank, int) else None


class Tracer:
    """Installs span wrappers and collects per-thread logs."""

    def __init__(self) -> None:
        self.logs: list[_Log] = []
        self._local = threading.local()
        self._seed = 0

    def begin(self, seed: int) -> None:
        """Start fresh logs for the next seed's run."""
        self._seed = seed
        self._local = threading.local()

    def _log(self) -> _Log:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _Log(self._seed)
            self._local.log = log
            self.logs.append(log)
        return log

    def install(self, patches: Patches) -> None:
        for name in SPANS:
            for target in _TARGETS.get(name, [name.replace(".", ":", 1)]):
                patches.wrap(target, functools.partial(self._span, name))
        for name, target in ATTEMPTS.items():
            patches.wrap(target, functools.partial(self._attempts, name))

    def _span(self, name: str, fn):
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            log = tracer._log()
            if log.rank is None:
                log.rank = _rank_of(args)
            idx = len(log.spans)
            log.spans.append(None)  # filled at exit; ids follow entry order
            parent = log.stack[-1][0] if log.stack else -1
            log.stack.append([idx, 0.0])
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = log.stack.pop()[1]
                d = t1 - t0
                if log.stack:
                    log.stack[-1][1] += d
                log.spans[idx] = (name, t0, t1, parent)
                log.self_s[name] += d - child
                log.total_s[name] += d
                log.calls[name] += 1
            if after is not None:
                after(log.counts, args, kwargs, out)
            return out
        return spanned

    def _attempts(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts = tracer._log().counts
            counts[f"{name}_calls"] += 1
            counts[f"{name}_accepted"] += bool(out)
            return out
        return counted

    def write_spans(self, path) -> int:
        """Write every recorded span as one JSON line; returns the count."""
        n = 0
        with open(path, "w") as f:
            for log in self.logs:
                rank = log.rank or 0
                for i, (name, t0, t1, parent) in enumerate(log.spans):
                    f.write(json.dumps({
                        "seed": log.seed, "rank": rank, "thread": log.thread,
                        "id": i, "parent": parent, "name": name,
                        "start": t0, "end": t1}) + "\n")
                    n += 1
        return n

    def _by_rank(self) -> dict[int, _Log]:
        merged: dict[int, _Log] = {}
        for log in self.logs:
            acc = merged.setdefault(log.rank or 0, _Log(-1))
            for src, dst in ((log.self_s, acc.self_s), (log.total_s, acc.total_s),
                             (log.calls, acc.calls), (log.counts, acc.counts)):
                for k, v in src.items():
                    dst[k] += v
        return dict(sorted(merged.items()))

    def per_rank(self) -> dict[int, dict[str, float]]:
        """Per-layer metric values for each rank, summed over all seeds."""
        return {rank: _layer_values(acc) for rank, acc in self._by_rank().items()}

    def increment_shares(self, spans) -> dict[int, dict[str, float]]:
        """Per rank, each span's time including its children as a share of
        increment wall time."""
        out = {}
        for rank, acc in self._by_rank().items():
            inc = acc.total_s.get("increment", 0.0)
            out[rank] = {s: _ratio(acc.total_s.get(s, 0.0), inc) for s in spans}
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_values(acc: _Log) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith("_s"):
            span = name[:-2]
            src = acc.total_s if span in INCLUSIVE else acc.self_s
            out[name] = src.get(span, 0.0)
        elif name.endswith("_calls"):
            out[name] = acc.calls.get(name[:-6], 0)
        elif name.startswith("trace."):
            continue
        else:
            out[name] = acc.counts.get(name, 0)
    out["remesh.collapse_accept"] = _ratio(
        acc.counts.get("remesh.try_collapse_accepted", 0),
        acc.counts.get("remesh.try_collapse_calls", 0))
    out["remesh.swap_accept"] = _ratio(
        acc.counts.get("remesh.try_swap_accepted", 0),
        acc.counts.get("remesh.try_swap_calls", 0))
    inc = acc.total_s.get("increment", 0.0)
    out["trace.coverage"] = _ratio(inc - acc.self_s.get("increment", 0.0), inc)
    return out
