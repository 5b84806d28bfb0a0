"""The shard runner: one worker entry and one fault contract for train and check.

Corpus assembly (parse → type → augment, per image) and fleet checking
are both per-image independent, so both split their images into
contiguous chunks, ship each chunk to a worker process as a compact
codec-framed task (:mod:`repro.engine.codec`), and fold the returned
:class:`~repro.engine.artifacts.ShardResult` envelopes back in input
order.  One worker entry, :func:`run_shard`, serves both: a task that
carries a ``model`` is checked, any other task is assembled.  Because
:meth:`PartialDataset.merge` is associative and order-preserving and
every check target is independent, sharded results are identical —
fingerprint, rules and reports — to a serial pass, regardless of worker
count or chunk size.

The data plane (see ``docs/architecture.md``, "Data plane"):

* Tasks and results cross the process boundary as codec bytes, not
  pickles: the config and model payloads are encoded **once per pool
  lifetime** (hoisted by :meth:`EnCore.worker_payload` /
  :meth:`EnCore.model_payload`), each image is encoded once and
  memoised (:func:`~repro.engine.artifacts.image_payload`), and
  assembled rows ride back image-elided — the coordinator re-attaches
  its own :class:`~repro.sysmodel.image.SystemImage` objects by id.
* Shards run on the shared warm pool (:mod:`repro.engine.pool`), whose
  workers keep their built pipeline across shards and runs.  A shard
  failure poisons the pool (next run respawns) and recovery proceeds in
  fresh single-worker pools — the crash firewall never reuses the
  shared pool.
* When a result cache (:mod:`repro.engine.cache`) is attached, its disk
  handle rides in the task.  Assembly resolves hits in the coordinator
  *before* sharding and ships only the misses (workers just store);
  checking has no pre-pass, so check workers look up and store.

Failure handling has three layers, the same for train and check (see
``docs/robustness.md``):

1. **Per-image isolation** happens inside the worker: the error policy
   drops unparseable images into quarantine records that ride back on
   the shard result.  An image whose *payload* cannot be decoded
   (:class:`~repro.engine.codec.CodecError`) quarantines the same way,
   under stage ``codec``.
2. **Per-shard recovery** happens here: a shard whose worker crashed
   (``BrokenProcessPool``) or stalled (``shard_timeout``) is retried in
   a fresh single-worker pool under an exponential-backoff
   :class:`~repro.core.resilience.RetryPolicy`.
3. **Bisection** kicks in when retries are exhausted: the chunk is
   split recursively until the poisoned image(s) are isolated and
   quarantined individually under stage ``worker``, so one
   crash-inducing image costs exactly itself — never its shard, never
   the run.  When no subprocess can be created at all, shards run
   in-process through the same :func:`run_shard`.

Workers record into a fresh process-local metrics registry per shard
and return its snapshot; the coordinator merges those snapshots so
sharded runs report the same telemetry totals as serial ones.
"""

from __future__ import annotations

import math
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as ShardTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.dataset import Dataset, PartialDataset
from repro.core.resilience import (
    ErrorPolicy,
    Quarantine,
    QuarantineRecord,
    RetryPolicy,
    enforce_error_budget,
    record_from_exception,
)
from repro.engine import codec
from repro.engine.artifacts import ShardResult, image_payload
from repro.engine.codec import CodecError
from repro.engine.pool import (
    get_warm_pool,
    worker_cache,
    worker_encore,
    worker_install_model,
    worker_tracer,
)
from repro.obs import get_logger
from repro.obs.health import maybe_tick as health_tick
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    merge_snapshot,
    use_registry,
)
from repro.obs.profile import (
    StageProfiler,
    get_profiler,
    merge_profile_snapshot,
    set_profiler,
)
from repro.obs.tracing import current_context, merge_remote_spans, span, use_tracer
from repro.sysmodel.image import SystemImage
from repro.sysmodel.snapshot import image_from_dict

T = TypeVar("T")

log = get_logger("engine.sharding")

#: Shard failures the recovery layer absorbs: a crashed worker breaks
#: the whole pool; a stalled worker trips the optional shard timeout; a
#: shard still queued when the shared pool is respawned (by a stale-pool
#: submit or a concurrent run) is cancelled.  Everything else (parse
#: errors under strict policy, programming errors) propagates unchanged.
RECOVERABLE = (BrokenProcessPool, ShardTimeout, CancelledError)

#: Pool-creation failures that mean "no subprocess can be created here"
#: (restricted sandboxes) — shards then run in-process.
POOL_UNAVAILABLE = (OSError, PermissionError, ValueError)


def chunked(items: Sequence[T], chunk_size: int) -> List[List[T]]:
    """Contiguous chunks of at most *chunk_size* items, order preserved."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [list(items[i:i + chunk_size]) for i in range(0, len(items), chunk_size)]


def default_chunk_size(n_items: int, workers: int) -> int:
    """About four chunks per worker.

    Smaller chunks let the coordinator fold shard *i* while the pool is
    still running shard *i+1*, hiding the result-shipping latency behind
    worker compute and letting check reports start streaming early; they
    also bound the blast radius of a crashed worker to a quarter of one
    worker's share.
    """
    return max(1, math.ceil(n_items / (max(1, workers) * 4)))


def encode_config_payload(config) -> Tuple[bytes, str]:
    """``(codec bytes, digest)`` of a worker config — count every encode.

    ``codec.config.encodes.total`` is the regression guard for the
    one-encode-per-pool-lifetime contract: callers that hoist correctly
    (``EnCore.worker_payload``) bump it once per config change, not once
    per shard submission.
    """
    data = codec.encode(config.to_dict())
    get_registry().counter("codec.config.encodes.total").inc()
    return data, codec.digest(data)


def encode_model_payload(model_dict: Dict[str, Any]) -> Tuple[bytes, str]:
    """``(codec bytes, digest)`` of a model snapshot dict — counted.

    Like config payloads, the model crosses the process boundary as one
    hoisted encoding per pool lifetime; ``codec.model.encodes.total``
    guards against per-shard re-encoding creeping back in.
    """
    data = codec.encode(model_dict)
    get_registry().counter("codec.model.encodes.total").inc()
    return data, codec.digest(data)


def attach_worker_cache(assembler, spec: Optional[Dict[str, Any]]) -> None:
    """Arm a worker assembler's result cache from its task payload."""
    if not spec:
        return
    assembler.cache = worker_cache(spec["root"])
    assembler.cache_salt = spec["salt"]
    assembler.cache_store_only = bool(spec.get("store_only"))


def decode_task_images(
    payload: Dict[str, Any], assembler, shard_index: int
) -> List[SystemImage]:
    """Decode a task's per-image payloads under the error policy.

    Each image is framed separately, so one corrupt payload quarantines
    exactly that image (stage ``codec``) instead of failing the shard —
    unless the policy is strict, where it propagates like any other
    per-image failure.
    """
    images: List[SystemImage] = []
    for image_id, raw in zip(payload["image_ids"], payload["images"]):
        try:
            images.append(image_from_dict(codec.decode(raw)))
        except CodecError as exc:
            if assembler.error_policy is ErrorPolicy.STRICT:
                raise
            record = record_from_exception(
                image_id, exc, stage="codec", shard_index=shard_index
            )
            assembler.quarantine.add(
                record, keep=assembler.error_policy is ErrorPolicy.QUARANTINE
            )
            get_registry().counter(
                "quarantine.images.total", stage=record.stage
            ).inc()
            log.warning(
                "image.quarantined", image=image_id, stage=record.stage,
                error=record.error,
            )
    return images


def run_shard(task: bytes) -> bytes:
    """Worker entry point: assemble or check one codec-framed chunk task.

    A task that carries a ``model`` installs it and checks each image
    under the error policy (a quarantined target yields no report);
    any other task assembles its images into a partial dataset.  Must
    stay a module-level function (picklable under every multiprocessing
    start method).  The shard records into a fresh registry pushed with
    :func:`~repro.obs.metrics.use_registry` — an override, not a default
    swap, because a warm-pool worker may have been forked while its
    parent thread held a request-scoped override (the serve daemon) and
    that fork-copy would otherwise shadow a plain ``set_registry`` and
    leak counts across shards.  The pipeline and installed model are
    cached per worker process (:mod:`repro.engine.pool`) and reset per
    shard.
    """
    payload = codec.decode(task)
    shard_index = payload["shard_index"]
    kind = "check" if "model" in payload else "assemble"
    tracer = worker_tracer(payload, shard_index)
    with use_registry(MetricsRegistry()), (
        use_tracer(tracer) if tracer is not None else nullcontext()
    ):
        profiler = None
        if payload.get("profile"):
            profiler = set_profiler(StageProfiler().start())
        try:
            encore = worker_encore(payload["config"], payload["config_digest"])
            if kind == "check":
                worker_install_model(
                    encore, payload["model"], payload["model_digest"]
                )
            attach_worker_cache(encore.assembler, payload.get("cache"))
            if payload.get("faults"):
                from repro.testing.faults import FaultPlan

                encore.assembler.fault_hook = (
                    FaultPlan.from_dict(payload["faults"]).hook
                )
            images = decode_task_images(payload, encore.assembler, shard_index)
            result = ShardResult(shard_index=shard_index)
            # The shard-root span goes through the tracer directly, not
            # the module-level span(): it only exists when a context was
            # shipped, and must not observe histograms a tracing-off run
            # would lack (metrics stay identical either way).
            shard_span = (
                tracer.span(f"{kind}.shard", shard=shard_index, items=len(images))
                if tracer is not None else nullcontext()
            )
            shard_sample = (
                profiler.shard(kind, shard_index, items=len(images))
                if profiler is not None else nullcontext()
            )
            with shard_span, shard_sample:
                if kind == "check":
                    result.reports = [
                        report for report in map(encore._check_guarded, images)
                        if report is not None
                    ]
                    if encore.drift is not None:
                        result.drift = encore.drift.to_dict()
                else:
                    result.partial = encore.assembler.assemble_partial(
                        images, shard_index=shard_index
                    )
            result.metrics = get_registry().to_dict()
            result.quarantine = encore.quarantine.to_dicts()
            result.dropped = encore.quarantine.dropped
            if profiler is not None:
                result.profile = profiler.to_dict()
            if tracer is not None:
                result.spans = tracer.snapshot(shard=shard_index)
            return result.to_bytes()
        finally:
            if profiler is not None:
                set_profiler(None)
                profiler.stop()


class ShardRunner:
    """Coordinator side of :func:`run_shard`, shared by train and check.

    Owns the task builder, the submit loop over the shared warm pool,
    the telemetry fold and the recovery routine.  The class attribute
    ``kind`` names the shard spans, profile samples and the
    ``<kind>.shards.total`` counter; subclasses set ``model_bytes``
    (check only: the hoisted ``(bytes, digest)`` model encoding),
    ``drift`` and the result ``cache``.

    *retry* tunes the crash/timeout recovery backoff (injectable sleeper
    for tests), *shard_timeout* bounds one shard's wall time in seconds
    (``None`` = unbounded), *fault_plan* is the test-only injection hook
    from :mod:`repro.testing.faults`, shipped to workers inside the
    shard payload, and *config_payload* is the hoisted ``(bytes,
    digest)`` config encoding (computed here, once, when not supplied).
    Worker quarantine records fold into *quarantine*.
    """

    kind: str

    def __init__(
        self,
        config,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        fault_plan=None,
        config_payload: Optional[Tuple[bytes, str]] = None,
        quarantine: Optional[Quarantine] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config
        self.workers = workers
        self.chunk_size = chunk_size
        self.retry = retry if retry is not None else RetryPolicy()
        self.shard_timeout = shard_timeout
        self.fault_plan = fault_plan
        self.config_payload = (
            config_payload if config_payload is not None
            else encode_config_payload(config)
        )
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.model_bytes: Optional[Tuple[bytes, str]] = None
        self.drift = None
        self.cache = None
        self.cache_salt = ""

    @property
    def _policy(self) -> ErrorPolicy:
        return ErrorPolicy.parse(getattr(self.config, "error_policy", "strict"))

    def _task(self, chunk: List[SystemImage], index: int) -> bytes:
        payload: Dict[str, Any] = {
            "config": self.config_payload[0],
            "config_digest": self.config_payload[1],
            "images": [image_payload(image) for image in chunk],
            "image_ids": [image.image_id for image in chunk],
            "shard_index": index,
        }
        if self.model_bytes is not None:
            payload["model"], payload["model_digest"] = self.model_bytes
        if self.fault_plan is not None:
            payload["faults"] = self.fault_plan.to_dict()
        if get_profiler() is not None:
            payload["profile"] = True
        context = current_context()
        if context is not None:
            # Propagate the coordinator's trace identity: the worker
            # re-parents its span forest under the span active here.
            payload["trace"] = context.to_dict()
        if self.cache is not None and self.cache.root is not None:
            # Assembly resolved every hit in its coordinator pre-pass, so
            # its workers only store; check workers look up and store.
            payload["cache"] = {
                "root": str(self.cache.root),
                "salt": self.cache_salt,
                "store_only": self.kind == "assemble",
            }
        return codec.encode(payload)

    def _shards(self, chunks: List[List[SystemImage]]) -> Iterator[List[ShardResult]]:
        """Run *chunks* and yield each one's folded results, in input order.

        Every task is submitted to the warm pool up front; results are
        awaited in order, and a shard that fails is recovered in place
        before any later shard is yielded.
        """
        tasks = [self._task(chunk, index) for index, chunk in enumerate(chunks)]
        pool = get_warm_pool(self.workers)
        try:
            futures = [pool.submit(run_shard, task) for task in tasks]
        except POOL_UNAVAILABLE as exc:
            log.warning("shard.pool_unavailable", error=str(exc))
            futures = []
        for index, chunk in enumerate(chunks):
            if not futures:
                parts = [self._run_inline(tasks[index], chunk)]
            else:
                try:
                    raw = futures[index].result(timeout=self.shard_timeout)
                    parts = [_decode(raw, chunk)]
                except RECOVERABLE as exc:
                    futures[index].cancel()
                    pool.poison()
                    get_registry().counter("retry.shards.failed").inc()
                    log.warning(
                        "shard.failed", shard=index, kind=self.kind,
                        error=type(exc).__name__, images=len(chunk),
                    )
                    parts = self._recover(chunk, index)
            self._fold(parts)
            yield parts

    def _fold(self, parts: List[ShardResult]) -> None:
        """Fold one shard's worker telemetry into the coordinator."""
        for part in parts:
            if part.metrics:
                merge_snapshot(part.metrics)
            if part.profile:
                merge_profile_snapshot(part.profile)
            if part.spans:
                merge_remote_spans(part.spans)
            if part.drift and self.drift is not None:
                self.drift.merge_snapshot(part.drift)
            self.quarantine.extend_dicts(part.quarantine, dropped=part.dropped)
        get_registry().counter(f"{self.kind}.shards.total").inc()
        # Long sharded runs tick the health monitor once per folded shard
        # (no-op unless one is installed and its sampling interval
        # elapsed), so a multi-hour run still gets timeline points and
        # alert evaluation without a second thread.
        health_tick()

    # -- shard recovery --------------------------------------------------------

    def _recover(self, chunk: List[SystemImage], index: int) -> List[ShardResult]:
        """Bring one failed shard back: backoff-retry, then bisect."""
        registry = get_registry()
        last_exc: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            self.retry.backoff(attempt)
            registry.counter("retry.attempts.total").inc()
            try:
                result = self._run_isolated(chunk, index)
            except RECOVERABLE as exc:
                last_exc = exc
                log.warning(
                    "shard.retry_failed", shard=index, attempt=attempt,
                    error=type(exc).__name__,
                )
                continue
            registry.counter("retry.recovered.total").inc()
            log.info("shard.recovered", shard=index, attempt=attempt)
            return [result]
        assert last_exc is not None
        if self._policy is ErrorPolicy.STRICT:
            raise last_exc
        registry.counter("retry.bisections.total").inc()
        log.warning(
            "shard.bisecting", shard=index, images=len(chunk),
            error=type(last_exc).__name__,
        )
        return self._bisect(chunk, index)

    def _run_isolated(self, chunk: List[SystemImage], index: int) -> ShardResult:
        """Run one chunk in a fresh single-worker pool (crash firewall).

        Never the warm pool: a chunk under recovery is suspected of
        crashing workers, and the firewall's job is to contain that.
        Falls back to running the shard in-process when no subprocess
        can be created at all — per-image isolation still applies there,
        so survivors are never lost.
        """
        task = self._task(chunk, index)
        try:
            executor = ProcessPoolExecutor(max_workers=1)
        except POOL_UNAVAILABLE as exc:
            log.warning("shard.recovery_pool_unavailable", error=str(exc))
            return self._run_inline(task, chunk)
        try:
            raw = executor.submit(run_shard, task).result(timeout=self.shard_timeout)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return _decode(raw, chunk)

    def _run_inline(self, task: bytes, chunk: List[SystemImage]) -> ShardResult:
        """Run a shard in-process without clobbering the caller's profiler.

        :func:`run_shard` scopes its metrics and tracer with overrides
        (popped on exit), but the profiler is a process global it clears
        in its ``finally`` — restore the caller's one here.  Inside the
        coordinator a fault plan raises instead of killing the process,
        so the error policy contains it.
        """
        parent_profiler = get_profiler()
        try:
            return _decode(run_shard(task), chunk)
        finally:
            set_profiler(parent_profiler)

    def _bisect(self, chunk: List[SystemImage], index: int) -> List[ShardResult]:
        """Isolate the poisoned image(s) of a repeatedly-failing chunk.

        Recursively halves the chunk, running each half in its own
        single-worker pool, until failures are pinned to single images —
        each of which is quarantined with stage ``worker``.  Survivors'
        results come back in input order, so the fold stays identical to
        running the clean subset serially.
        """
        try:
            return [self._run_isolated(chunk, index)]
        except RECOVERABLE as exc:
            if len(chunk) > 1:
                mid = (len(chunk) + 1) // 2
                return self._bisect(chunk[:mid], index) + self._bisect(
                    chunk[mid:], index
                )
            image_id = chunk[0].image_id
            record = QuarantineRecord(
                image_id=image_id, stage="worker",
                error=type(exc).__name__,
                message=str(exc) or "worker process crashed or stalled",
                shard_index=index,
            )
            get_registry().counter("quarantine.images.total", stage="worker").inc()
            log.warning(
                "image.quarantined", image=image_id, stage="worker",
                error=record.error,
            )
            return [ShardResult(
                shard_index=index, quarantine=[record.to_dict()], dropped=1
            )]


def _decode(raw: bytes, chunk: List[SystemImage]) -> ShardResult:
    return ShardResult.from_bytes(raw, {image.image_id: image for image in chunk})


class ShardedAssembler(ShardRunner):
    """Assemble a corpus across *workers* processes, surviving failures.

    ``workers <= 1`` runs serially through *assembler* (the caller's own
    instance, preserving programmatic customization exactly); ``workers
    > 1`` ships codec-framed chunk tasks to the shared warm pool, whose
    workers rebuild (once) from *config*.  The remaining parameters are
    :class:`ShardRunner`'s; the assembler's own quarantine and result
    cache are the ones the run folds into and ships.
    """

    kind = "assemble"

    def __init__(
        self,
        config,
        assembler,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        fault_plan=None,
        config_payload: Optional[Tuple[bytes, str]] = None,
    ) -> None:
        super().__init__(
            config, workers=workers, chunk_size=chunk_size, retry=retry,
            shard_timeout=shard_timeout, fault_plan=fault_plan,
            config_payload=config_payload, quarantine=assembler.quarantine,
        )
        self.assembler = assembler
        self.cache = assembler.cache
        self.cache_salt = assembler.cache_salt

    def assemble(self, images: Iterable[SystemImage]) -> Dataset:
        images = list(images)
        if self.workers <= 1 or len(images) <= 1:
            self._install_inline_faults()
            return self.assembler.assemble_corpus(images)
        with span("assemble.corpus") as s:
            dropped_before = self.quarantine.dropped
            dataset = self._sharded_partial(images).finalize()
            enforce_error_budget(
                self.quarantine.dropped - dropped_before,
                len(images),
                getattr(self.config, "max_error_rate", 1.0),
                self._policy,
            )
            s.annotate(systems=len(dataset), attributes=len(dataset.attributes()))
        return dataset

    def assemble_partial(self, images: Iterable[SystemImage]) -> PartialDataset:
        images = list(images)
        if self.workers <= 1 or len(images) <= 1:
            self._install_inline_faults()
            return self.assembler.assemble_partial(images)
        return self._sharded_partial(images)

    # -- internals -------------------------------------------------------------

    def _install_inline_faults(self) -> None:
        """Arm the fault plan on the serial path (coordinator-safe mode)."""
        if self.fault_plan is not None and self.assembler.fault_hook is None:
            self.assembler.fault_hook = self.fault_plan.hook

    def _partition(
        self, images: List[SystemImage]
    ) -> Tuple[List[Tuple[str, Any]], List[List[SystemImage]]]:
        """Split *images* into fold segments: cached rows and miss chunks.

        With no cache attached this is a single run of misses, chunked
        exactly as before.  With a cache, hits are resolved here in the
        coordinator (their per-system counters replayed by the
        assembler) and contiguous miss runs are chunked by the *miss*
        count — so a warm corpus with one touched image ships exactly
        that image.
        """
        order: List[Tuple[str, Any]] = []
        misses = 0
        if self.cache is not None:
            for image in images:
                system = self.assembler.cached_assembled(image)
                if system is not None:
                    order.append(("hit", system))
                else:
                    order.append(("miss", image))
                    misses += 1
        else:
            order = [("miss", image) for image in images]
            misses = len(images)
        segments: List[Tuple[str, Any]] = []
        chunks: List[List[SystemImage]] = []
        if misses:
            chunk_size = self.chunk_size or default_chunk_size(misses, self.workers)
            i = 0
            while i < len(order):
                kind = order[i][0]
                j = i
                while j < len(order) and order[j][0] == kind:
                    j += 1
                run = [item for _, item in order[i:j]]
                if kind == "hit":
                    segments.append(("rows", run))
                else:
                    for chunk in chunked(run, chunk_size):
                        segments.append(("chunk", len(chunks)))
                        chunks.append(chunk)
                i = j
        elif order:
            segments.append(("rows", [system for _, system in order]))
        return segments, chunks

    def _sharded_partial(self, images: List[SystemImage]) -> PartialDataset:
        segments, chunks = self._partition(images)
        with span(
            "assemble.shards", shards=len(chunks), workers=self.workers,
            cached=len(images) - sum(len(c) for c in chunks),
        ):
            shards = self._shards(chunks)
            merged = PartialDataset()
            # A left fold in input order, so the result is byte-identical
            # to a serial pass no matter which shards were cached or
            # needed recovery.  extend() is merge() without the copy.
            for kind, ref in segments:
                if kind == "rows":
                    for system in ref:
                        merged.add(system)
                    continue
                for part in next(shards):
                    merged.extend(part.partial)
        return merged
