"""Per-stage resource profiling: wall time, CPU time, RSS, allocation peaks.

The metrics layer answers *what the pipeline did* (counters, coverage);
this module answers *where the resources went*.  A :class:`StageProfiler`
taps the same :func:`repro.obs.tracing.span` boundaries the tracer uses
— put one in the telemetry scope (:func:`repro.obs.telemetry.scope`; the
CLI's ``--profile`` does this) and every span records, keyed by stage
name:

* wall seconds (the tracer's clock, injectable for tests);
* CPU seconds (``os.times`` user+system of *this* process only, so
  worker CPU is never double-counted when worker profiles fold back);
* peak RSS (``resource.getrusage`` high-water mark, in bytes);
* ``tracemalloc`` allocation peak over the stage (when tracing is on —
  the profiler starts it by default and :meth:`StageProfiler.stop`
  stops it).

Worker processes (sharded assembly, batch checking) build their own
profiler when the shard payload asks for one, wrap the whole shard in a
:meth:`StageProfiler.shard` sample, and ship :meth:`StageProfiler.to_dict`
back in the shard result's telemetry; the coordinator folds those
snapshots with :meth:`StageProfiler.merge_dict`.  Both the per-stage fold
(:meth:`StageProfile.merge`: sums for wall/CPU/calls, maxima for memory
peaks) and the shard-sample fold (list concatenation) are associative,
so a profile is complete and order-independent at any ``--workers N`` —
the same merge discipline as metrics and drift.

Three export surfaces (see ``docs/observability.md``):

* :func:`profile_document` — the JSON profile document (``--profile``);
* :func:`chrome_trace` — Chrome ``trace_event`` format, loadable in
  ``chrome://tracing`` / Perfetto;
* :func:`render_profile` — the ``repro profile`` text table (top stages
  by wall/CPU/allocation, shard-skew statistics).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Tuple, Union

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platform
    _resource = None  # type: ignore[assignment]

#: Synthetic pid the coordinator's spans render under in Chrome traces.
COORDINATOR_PID = 1
#: Shard samples render under ``SHARD_PID_BASE + shard_index`` — a pure
#: function of the shard index, so pids are stable across worker folds
#: and re-exports (the OS pid of the worker rides along in ``args``).
SHARD_PID_BASE = 100


def process_cpu_seconds() -> float:
    """User+system CPU seconds of this process (children excluded).

    Children are deliberately excluded: worker CPU arrives through the
    workers' own profile snapshots, so including it here would double
    count every sharded stage.
    """
    times = os.times()
    return times.user + times.system


def max_rss_bytes() -> int:
    """The process' peak resident set size in bytes (0 where unknown)."""
    if _resource is None:
        return 0
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes everywhere else.
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


class StageProfile:
    """Folded resource totals for one stage name."""

    __slots__ = ("wall_s", "cpu_s", "calls", "max_rss_bytes", "alloc_peak_bytes")

    def __init__(self) -> None:
        self.wall_s: float = 0.0
        self.cpu_s: float = 0.0
        self.calls: int = 0
        self.max_rss_bytes: int = 0
        self.alloc_peak_bytes: int = 0

    def record(self, wall_s: float, cpu_s: float, rss: int, alloc: int) -> None:
        self.wall_s += wall_s
        self.cpu_s += cpu_s
        self.calls += 1
        self.max_rss_bytes = max(self.max_rss_bytes, rss)
        self.alloc_peak_bytes = max(self.alloc_peak_bytes, alloc)

    def merge(self, other: "StageProfile") -> "StageProfile":
        """Associative fold: sums for time/calls, maxima for peaks."""
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        self.calls += other.calls
        self.max_rss_bytes = max(self.max_rss_bytes, other.max_rss_bytes)
        self.alloc_peak_bytes = max(self.alloc_peak_bytes, other.alloc_peak_bytes)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
            "calls": self.calls,
            "max_rss_bytes": self.max_rss_bytes,
            "alloc_peak_bytes": self.alloc_peak_bytes,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StageProfile":
        profile = cls()
        profile.wall_s = float(data.get("wall_s", 0.0))
        profile.cpu_s = float(data.get("cpu_s", 0.0))
        profile.calls = int(data.get("calls", 0))
        profile.max_rss_bytes = int(data.get("max_rss_bytes", 0))
        profile.alloc_peak_bytes = int(data.get("alloc_peak_bytes", 0))
        return profile


class StageProfiler:
    """Collects per-stage and per-shard resource samples.

    *clock* and *cpu_clock* are injectable (any ``() -> float``) so tests
    can assert exact durations; *trace_allocations* starts ``tracemalloc``
    on :meth:`start` when it is not already running (and :meth:`stop`
    stops it again only if this profiler started it).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = process_cpu_seconds,
        trace_allocations: bool = True,
    ) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.trace_allocations = trace_allocations
        self.stages: Dict[str, StageProfile] = {}
        self.shards: List[Dict[str, object]] = []
        self.meta: Dict[str, object] = {"pid": os.getpid()}
        #: Pairs one epoch reading with one profiler-clock reading, so
        #: shard samples (stamped with epoch times in the worker) can be
        #: placed on the coordinator's span timeline by the Chrome export.
        self.anchor: Dict[str, float] = {"epoch": time.time(), "clock": clock()}
        self._owns_tracemalloc = False
        self._depth = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "StageProfiler":
        if self.trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True
        return self

    def stop(self) -> None:
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._owns_tracemalloc = False

    # -- sampling --------------------------------------------------------------

    def _alloc_begin(self) -> int:
        if not tracemalloc.is_tracing():
            return -1
        if self._depth == 0 and hasattr(tracemalloc, "reset_peak"):
            # Only the outermost frame resets, so a nested stage never
            # erases the high-water mark its parent is measuring.
            tracemalloc.reset_peak()
        traced, _peak = tracemalloc.get_traced_memory()
        return traced

    def _alloc_end(self, traced_at_entry: int) -> int:
        if traced_at_entry < 0 or not tracemalloc.is_tracing():
            return 0
        _traced, peak = tracemalloc.get_traced_memory()
        return max(0, peak - traced_at_entry)

    @contextmanager
    def profile(self, name: str) -> Iterator[None]:
        """Record one stage execution under *name* (nestable)."""
        wall0, cpu0 = self.clock(), self.cpu_clock()
        traced0 = self._alloc_begin()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self.record(
                name,
                wall_s=self.clock() - wall0,
                cpu_s=self.cpu_clock() - cpu0,
                rss=max_rss_bytes(),
                alloc=self._alloc_end(traced0),
            )

    def record(self, name: str, wall_s: float, cpu_s: float = 0.0,
               rss: int = 0, alloc: int = 0) -> None:
        self.stages.setdefault(name, StageProfile()).record(wall_s, cpu_s, rss, alloc)

    @contextmanager
    def shard(self, stage: str, shard_index: int, items: int = 0) -> Iterator[None]:
        """Record one whole-shard sample (the worker-side wrapper)."""
        wall0, cpu0 = self.clock(), self.cpu_clock()
        epoch0 = time.time()
        traced0 = self._alloc_begin()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self.shards.append({
                "stage": stage,
                "shard": int(shard_index),
                "pid": os.getpid(),
                "items": int(items),
                "wall_s": round(self.clock() - wall0, 9),
                "cpu_s": round(self.cpu_clock() - cpu0, 9),
                "max_rss_bytes": max_rss_bytes(),
                "alloc_peak_bytes": self._alloc_end(traced0),
                "epoch_start": epoch0,
                "epoch_end": time.time(),
            })

    # -- fold / serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "meta": dict(self.meta),
            "anchor": dict(self.anchor),
            "stages": {
                name: self.stages[name].to_dict() for name in sorted(self.stages)
            },
            "shards": [dict(sample) for sample in self.shards],
        }

    def merge_dict(self, data: Mapping) -> "StageProfiler":
        """Fold a serialised profile snapshot into this profiler.

        Stage totals merge associatively; shard samples concatenate.
        The snapshot's meta/anchor are the *worker's* and are dropped —
        the coordinator keeps its own timeline anchor.
        """
        for name, payload in data.get("stages", {}).items():
            mine = self.stages.setdefault(name, StageProfile())
            mine.merge(StageProfile.from_dict(payload))
        self.shards.extend(dict(sample) for sample in data.get("shards", ()))
        return self

    def digest(self) -> str:
        """SHA-256 over the canonical stage/shard content (ledger key)."""
        payload = {
            "stages": {n: self.stages[n].to_dict() for n in sorted(self.stages)},
            "shards": self.shards,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# -- the profile document ------------------------------------------------------


def _span_with_times(span) -> Dict[str, object]:
    """Serialise a span keeping raw clock timestamps (Chrome needs them)."""
    out: Dict[str, object] = {
        "name": span.name,
        "ts": span.start,
        "dur": span.duration,
    }
    if getattr(span, "span_id", ""):
        out["span_id"] = span.span_id
    if getattr(span, "parent_id", ""):
        out["parent_id"] = span.parent_id
    if span.attributes:
        out["attributes"] = {k: v for k, v in sorted(span.attributes.items())}
    if span.children:
        out["children"] = [_span_with_times(child) for child in span.children]
    return out


def profile_document(profiler: StageProfiler, tracer=None, **meta: object) -> dict:
    """The JSON profile document ``--profile`` writes.

    Bundles the folded per-stage totals and shard samples with the span
    tree (when a tracer ran alongside, timestamps preserved) so one file
    feeds all three export surfaces.  A tracer that adopted worker span
    snapshots (``Tracer.merge_remote``) contributes them under
    ``remote_spans``, each with its own epoch↔clock anchor, so the
    Chrome exporter can place pool-worker spans on the coordinator's
    clock line and link them to their parent span.
    """
    doc = profiler.to_dict()
    doc["meta"].update(meta)
    if tracer is not None:
        doc["spans"] = [_span_with_times(root) for root in tracer.roots]
        trace_id = getattr(tracer, "trace_id", "")
        if trace_id:
            doc["trace_id"] = trace_id
        remote = getattr(tracer, "remote", None)
        if remote:
            doc["remote_spans"] = [dict(snapshot) for snapshot in remote]
    return doc


def save_profile(doc: Mapping, path: Union[str, Path]) -> Path:
    from repro.obs.fileio import atomic_write_text

    return atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_profile(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# -- Chrome trace_event export -------------------------------------------------


def chrome_trace(doc: Mapping) -> dict:
    """Convert a profile document to Chrome ``trace_event`` JSON.

    Coordinator spans become B/E duration events under
    :data:`COORDINATOR_PID`; shard samples become complete ("X") events
    under ``SHARD_PID_BASE + shard_index`` — deterministic pids, so a
    profile folded from any number of workers (or exported twice) renders
    identically.  Timestamps are microseconds from the earliest event.

    Worker span forests (``remote_spans``, shipped back on shard
    results) render as B/E events under their shard's pid, re-anchored
    onto the coordinator's clock line via the two epoch↔clock anchor
    pairs, and each forest is linked to its coordinator parent span with
    a flow event pair (``ph: s`` at the parent, ``ph: f`` at the worker
    root) — the cross-process parent arrows in the Chrome UI.
    """
    spans = doc.get("spans", [])
    shards = doc.get("shards", [])
    remote = doc.get("remote_spans", [])
    anchor = doc.get("anchor", {})

    def shard_clock(sample: Mapping) -> float:
        """Map a worker's epoch stamp onto the coordinator clock line."""
        epoch_start = sample.get("epoch_start")
        if epoch_start is None or "epoch" not in anchor or "clock" not in anchor:
            return float(anchor.get("clock", 0.0))
        return float(anchor["clock"]) + (float(epoch_start) - float(anchor["epoch"]))

    def remote_clock(snapshot: Mapping, value: float) -> float:
        """Map a worker-clock timestamp onto the coordinator clock line."""
        snap_anchor = snapshot.get("anchor", {})
        if not all(k in snap_anchor for k in ("epoch", "clock")) or \
                not all(k in anchor for k in ("epoch", "clock")):
            return float(value)
        epoch = float(snap_anchor["epoch"]) + (float(value) - float(snap_anchor["clock"]))
        return float(anchor["clock"]) + (epoch - float(anchor["epoch"]))

    # Remote snapshots render in a deterministic order regardless of
    # shard completion order: by shard index, then parent span id.
    remote = sorted(
        remote,
        key=lambda s: (int(s.get("shard", 0)), str(s.get("parent_id", ""))),
    )

    starts: List[float] = []

    def collect_starts(nodes, to_clock=float) -> None:
        for node in nodes:
            starts.append(to_clock(node["ts"]))
            collect_starts(node.get("children", ()), to_clock)

    collect_starts(spans)
    starts.extend(shard_clock(sample) for sample in shards)
    for snapshot in remote:
        collect_starts(
            snapshot.get("spans", ()),
            lambda value, _snap=snapshot: remote_clock(_snap, value),
        )
    origin = min(starts) if starts else 0.0

    def ts_us(value: float) -> int:
        return max(0, int(round((value - origin) * 1_000_000)))

    events: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": COORDINATOR_PID, "tid": 0,
        "args": {"name": "coordinator"},
    }]

    #: Coordinator span index by id — the flow-link anchor points.
    span_index: Dict[str, Mapping] = {}

    def index_spans(nodes) -> None:
        for node in nodes:
            if node.get("span_id"):
                span_index[str(node["span_id"])] = node
            index_spans(node.get("children", ()))

    index_spans(spans)

    def emit_span(node: Mapping, pid: int = COORDINATOR_PID,
                  to_clock=float) -> None:
        start = to_clock(node["ts"])
        args = dict(node.get("attributes", {}))
        if node.get("span_id"):
            args["span_id"] = node["span_id"]
        if node.get("parent_id"):
            args["parent_id"] = node["parent_id"]
        events.append({
            "ph": "B", "name": node["name"], "cat": "stage",
            "pid": pid, "tid": 1, "ts": ts_us(start), "args": args,
        })
        for child in node.get("children", ()):
            emit_span(child, pid, to_clock)
        events.append({
            "ph": "E", "name": node["name"], "cat": "stage",
            "pid": pid, "tid": 1,
            "ts": ts_us(start + float(node["dur"])),
        })

    for root in spans:
        emit_span(root)

    seen_shard_pids = set()

    def shard_metadata(shard: int) -> int:
        pid = SHARD_PID_BASE + shard
        if pid not in seen_shard_pids:
            seen_shard_pids.add(pid)
            events.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": f"shard-{shard}"},
            })
        return pid

    for sample in shards:
        pid = shard_metadata(int(sample.get("shard", 0)))
        events.append({
            "ph": "X",
            "name": f"{sample.get('stage', 'shard')}.shard[{int(sample.get('shard', 0))}]",
            "cat": "shard", "pid": pid, "tid": 1,
            "ts": ts_us(shard_clock(sample)),
            "dur": max(0, int(round(float(sample.get("wall_s", 0.0)) * 1_000_000))),
            "args": {
                "items": sample.get("items", 0),
                "cpu_s": sample.get("cpu_s", 0.0),
                "max_rss_bytes": sample.get("max_rss_bytes", 0),
                "worker_pid": sample.get("pid", 0),
            },
        })

    flow_started = set()
    for snapshot in remote:
        pid = shard_metadata(int(snapshot.get("shard", 0)))
        parent_id = str(snapshot.get("parent_id", ""))
        parent = span_index.get(parent_id)

        def to_clock(value, _snap=snapshot):
            return remote_clock(_snap, float(value))

        for root in snapshot.get("spans", ()):
            emit_span(root, pid, to_clock)
            if parent is None:
                continue
            if parent_id not in flow_started:
                flow_started.add(parent_id)
                events.append({
                    "ph": "s", "name": "trace", "cat": "trace",
                    "id": parent_id, "pid": COORDINATOR_PID, "tid": 1,
                    "ts": ts_us(float(parent["ts"])),
                })
            events.append({
                "ph": "f", "bp": "e", "name": "trace", "cat": "trace",
                "id": parent_id, "pid": pid, "tid": 1,
                "ts": ts_us(to_clock(root["ts"])),
            })

    # Stable sort: metadata events carry no ts (sort as 0); equal stamps
    # keep generation order, preserving B-before-E at zero-width spans.
    events.sort(key=lambda event: event.get("ts", 0))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- text rendering ------------------------------------------------------------


def _wall_quantiles(walls: List[float]) -> "tuple":
    """(p50, p99) of shard wall times via the canonical estimator.

    Builds a histogram whose bucket bounds are the observed values and
    asks :meth:`repro.obs.metrics.Histogram.quantile` — the same
    interpolation the serve SLO summary and ``bench_serve`` report, so
    every percentile this codebase prints comes from one implementation.
    """
    from repro.obs.metrics import Histogram

    bounds = sorted(set(walls))
    histogram = Histogram(bounds)
    for wall in walls:
        histogram.observe(wall)
    return histogram.quantile(0.5), histogram.quantile(0.99)


def _mb(value: object) -> str:
    return f"{float(value or 0) / (1024 * 1024):.1f}"


def render_profile(doc: Mapping, top: int = 10) -> str:
    """The ``repro profile`` table: stage totals, shard skew, span tree.

    When the document carries a span forest the tree is rendered with
    worker span forests (``remote_spans``) grafted under the
    coordinator span that shipped them — one causally-linked tree at
    any worker count.
    """
    stages: Dict[str, Mapping] = dict(doc.get("stages", {}))
    shards: List[Mapping] = list(doc.get("shards", ()))
    out: List[str] = []

    if stages:
        ranked = sorted(
            stages.items(), key=lambda kv: (-float(kv[1].get("wall_s", 0.0)), kv[0])
        )
        out.append(f"per-stage resources (top {min(top, len(ranked))} by wall time)")
        out.append(
            f"  {'stage':<28} {'calls':>6} {'wall(s)':>9} {'cpu(s)':>9} "
            f"{'rss(MB)':>9} {'alloc(MB)':>10}"
        )
        for name, stage in ranked[:top]:
            out.append(
                f"  {name:<28} {int(stage.get('calls', 0)):>6} "
                f"{float(stage.get('wall_s', 0.0)):>9.3f} "
                f"{float(stage.get('cpu_s', 0.0)):>9.3f} "
                f"{_mb(stage.get('max_rss_bytes')):>9} "
                f"{_mb(stage.get('alloc_peak_bytes')):>10}"
            )

        def leader(key: str):
            return max(
                stages.items(), key=lambda kv: (float(kv[1].get(key, 0) or 0), kv[0])
            )

        cpu_name, cpu_stage = leader("cpu_s")
        alloc_name, alloc_stage = leader("alloc_peak_bytes")
        out.append(
            f"  top cpu: {cpu_name} ({float(cpu_stage.get('cpu_s', 0.0)):.3f}s)   "
            f"top alloc: {alloc_name} ({_mb(alloc_stage.get('alloc_peak_bytes'))} MB)"
        )
        out.append("")

    if shards:
        out.append("shard skew")
        by_stage: Dict[str, List[Mapping]] = {}
        for sample in shards:
            by_stage.setdefault(str(sample.get("stage", "shard")), []).append(sample)
        for stage in sorted(by_stage):
            walls = [float(s.get("wall_s", 0.0)) for s in by_stage[stage]]
            cpu_total = sum(float(s.get("cpu_s", 0.0)) for s in by_stage[stage])
            items = sum(int(s.get("items", 0)) for s in by_stage[stage])
            p50, p99 = _wall_quantiles(walls)
            skew = (max(walls) / p50) if p50 > 0 else 0.0
            out.append(
                f"  {stage}: {len(walls)} shard(s), {items} item(s)  "
                f"wall min/p50/p99/max "
                f"{min(walls):.3f}/{p50:.3f}/{p99:.3f}/{max(walls):.3f}s  "
                f"skew {skew:.2f}x  cpu {cpu_total:.3f}s"
            )
        out.append("")

    spans: List[Mapping] = list(doc.get("spans", ()))
    if spans:
        trace_id = str(doc.get("trace_id", ""))
        out.append("span tree" + (f" (trace {trace_id})" if trace_id else ""))
        # Worker forests graft under the coordinator span whose id they
        # named as remote parent (one causally-linked tree); forests
        # whose parent is gone (e.g. a trimmed document) list at root.
        by_parent: Dict[str, List[Tuple[int, Mapping]]] = {}
        for snapshot in sorted(
            doc.get("remote_spans", ()),
            key=lambda s: (int(s.get("shard", 0)), str(s.get("parent_id", ""))),
        ):
            shard = int(snapshot.get("shard", 0))
            parent_id = str(snapshot.get("parent_id", ""))
            for node in snapshot.get("spans", ()):
                by_parent.setdefault(parent_id, []).append((shard, node))
        grafted = set()

        def line(node: Mapping, depth: int, origin: str = "") -> None:
            suffix = f" [{origin}]" if origin else ""
            out.append(
                f"  {'  ' * depth}{node.get('name', '?')}{suffix}  "
                f"{float(node.get('dur', 0.0)):.3f}s"
            )

        def walk_remote(node: Mapping, depth: int, shard: int) -> None:
            line(node, depth, origin=f"shard-{shard}")
            for child in node.get("children", ()):
                walk_remote(child, depth + 1, shard)

        def walk(node: Mapping, depth: int) -> None:
            line(node, depth)
            for child in node.get("children", ()):
                walk(child, depth + 1)
            span_id = str(node.get("span_id", ""))
            if span_id and span_id in by_parent:
                grafted.add(span_id)
                for shard, remote_node in by_parent[span_id]:
                    walk_remote(remote_node, depth + 1, shard)

        for root in spans:
            walk(root, 0)
        for parent_id, forest in by_parent.items():
            if parent_id in grafted:
                continue
            for shard, remote_node in forest:
                walk_remote(remote_node, 0, shard)
        out.append("")

    if not out:
        return "no profile samples recorded\n"
    return "\n".join(out)
