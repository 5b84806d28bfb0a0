"""One telemetry scope: the instruments the whole pipeline records into.

A :class:`Telemetry` holds the four instruments of the observability
layer — the metrics ``registry``, the span ``tracer``, the ``flight``
recorder and the health ``monitor``; every part but the registry is
optional (``None`` turns it off).  Profiling is a kind of tracing: a
:class:`~repro.obs.profile.StageProfiler` in the tracer slot annotates
every span with the CPU time and memory peaks of its region.  There is one
process-level default (a registry and nothing else) and one context
variable override: :func:`current` reads it, and :func:`scope` pushes a
telemetry for the duration of a ``with`` block and restores the previous
one on exit, whatever the block raised.  A context variable is per
thread, so a serve request thread's scope never leaks into its
neighbours, and a thread that never entered one sees the default::

    with scope(tracer=StageProfiler().start()):
        encore.train(images, workers=2)     # every stage records here

The same object is the shard wire contract.  :meth:`Telemetry.spec` is
what a coordinator ships in a task frame (its trace context and whether
it is profiling), :meth:`Telemetry.from_spec` is the scope a worker
builds from it — a fresh registry, a tracer only if a context was
shipped (a profiler if profiling), never a flight recorder or a
monitor — :meth:`Telemetry.snapshot` is what the worker ships back, and
:meth:`Telemetry.merge` folds it into the coordinator's instruments.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Mapping, Optional


@dataclass(eq=False)
class Telemetry:
    """The registry, tracer, flight recorder and monitor in use."""

    registry: "MetricsRegistry" = field(default_factory=lambda: MetricsRegistry())
    tracer: Any = None
    flight: Any = None
    monitor: Any = None

    def spec(self) -> Dict[str, Any]:
        """The task-frame form: what a shard worker should record.

        ``trace`` is the context a worker re-parents its span forest
        under (the innermost open span here); ``profile`` asks for a
        worker :class:`~repro.obs.profile.StageProfiler` in place of a
        plain tracer.  Empty when not tracing.
        """
        from repro.obs.profile import StageProfiler

        out: Dict[str, Any] = {}
        if self.tracer is not None:
            out["trace"] = self.tracer.propagated_context().to_dict()
        if isinstance(self.tracer, StageProfiler):
            out["profile"] = True
        return out

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], seed: str = "") -> "Telemetry":
        """A worker's telemetry: only what *spec* asks for.

        The tracer's span ids are seeded with *seed* (the shard) so they
        never collide with the coordinator's or a sibling shard's.
        """
        from repro.obs.profile import StageProfiler
        from repro.obs.tracing import TraceContext, Tracer

        if not spec.get("trace"):
            return cls()
        context = TraceContext.from_dict(spec["trace"])
        if spec.get("profile"):
            return cls(tracer=StageProfiler(context=context, seed=seed).start())
        return cls(tracer=Tracer(context=context, seed=seed))

    def snapshot(self, **meta: object) -> Dict[str, Any]:
        """The wire form a worker ships back: metrics and spans.

        ``spans`` is present only when this telemetry has a tracer (a
        profiler's spans carry their resource attributes); *meta* tags
        the span snapshot.
        """
        out: Dict[str, Any] = {"metrics": self.registry.to_dict()}
        if self.tracer is not None:
            out["spans"] = self.tracer.snapshot(**meta)
        return out

    def merge(self, data: Mapping[str, Any]) -> None:
        """Fold a worker :meth:`snapshot` into these instruments.

        Metrics always fold (a kind collision raises
        :class:`~repro.obs.metrics.MetricKindError`); span forests
        fold only when this side traces.
        """
        if data.get("metrics"):
            self.registry.merge(MetricsRegistry.from_dict(data["metrics"]))
        if data.get("spans") and self.tracer is not None:
            self.tracer.merge_remote(data["spans"])


_override: ContextVar[Optional[Telemetry]] = ContextVar("telemetry", default=None)


def current() -> Telemetry:
    """The telemetry in scope for the calling context (else the default)."""
    return _override.get() or _default


def get_registry() -> "MetricsRegistry":
    """The registry all built-in instrumentation records into."""
    return current().registry


@contextmanager
def scope(telemetry: Optional[Telemetry] = None, **parts: Any) -> Iterator[Telemetry]:
    """Make a telemetry current until the block exits.

    The scoped telemetry is *telemetry* (default: the current one) with
    the named *parts* replaced, so ``scope(tracer=t)`` keeps the current
    registry, flight recorder and monitor, while
    ``scope(Telemetry(tracer=t))`` holds only a fresh registry and *t*.
    Scopes nest; the previous one is restored on exit.
    """
    scoped = replace(current() if telemetry is None else telemetry, **parts)
    token = _override.set(scoped)
    try:
        yield scoped
    finally:
        _override.reset(token)


# Imported last: repro.obs.metrics re-exports get_registry from here, so
# this module must define it before the metrics module can finish.
from repro.obs.metrics import MetricsRegistry  # noqa: E402

_default = Telemetry()
