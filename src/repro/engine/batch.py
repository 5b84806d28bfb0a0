"""Parallel batch checking with streamed per-image reports.

Checking is per-target independent — "since the checking and the
learning are cleanly separated, the learned rules can be reused to
check different systems" (paper §3) — so a fleet of targets shards
exactly like a training corpus.  :class:`BatchChecker` is the check
kind of :class:`~repro.engine.sharding.ShardRunner`: its tasks carry
the hoisted config and model payloads (each encoded once per pool
lifetime, cached per worker by digest — see :mod:`repro.engine.pool`)
plus a chunk of individually-framed target snapshots, and
:func:`~repro.engine.sharding.run_shard` hands back one
:class:`~repro.engine.artifacts.ShardResult` per shard whose reports
keep full-precision warning scores, so sharded reports are exactly the
serial ones.

When a result cache is attached (:mod:`repro.engine.cache`), its disk
handle rides along in the task and workers consult it per target —
an unchanged image skips parse → type → augment entirely on re-check.

Reports stream back in input order as shards finish, so early targets
surface while later chunks are still being checked.  Failure handling
is the shard runner's, the same as training (see
``docs/robustness.md``): inside a worker the configured error policy
quarantines unparseable targets (and targets whose payload fails to
decode, stage ``codec``), and a shard whose worker crashed or stalled
is retried in a fresh single-worker pool, then bisected until the
target that kills workers is quarantined under stage ``worker`` — in
place, before any later report is yielded.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from repro.core.report import Report
from repro.core.resilience import RetryPolicy
from repro.engine.sharding import ShardRunner, chunked, default_chunk_size
from repro.obs.tracing import span
from repro.sysmodel.image import SystemImage


class BatchChecker(ShardRunner):
    """Stream reports for a fleet of targets across worker processes.

    *model_bytes* is the hoisted ``(codec bytes, digest)`` encoding of
    the :func:`repro.core.persistence.model_to_dict` snapshot, computed
    once per model by :meth:`EnCore.model_payload`; *drift* is the
    coordinator's :class:`~repro.obs.model.DriftMonitor` the workers'
    observation snapshots fold into (shard merges are associative, so
    totals match a serial run exactly); *cache* / *cache_salt* name the
    result cache workers look up and fill.  The remaining parameters
    are :class:`~repro.engine.sharding.ShardRunner`'s.
    """

    kind = "check"

    def __init__(
        self,
        config,
        model_bytes: Tuple[bytes, str],
        workers: int = 1,
        chunk_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        fault_plan=None,
        config_payload: Optional[Tuple[bytes, str]] = None,
        quarantine=None,
        drift=None,
        cache=None,
        cache_salt: str = "",
    ) -> None:
        super().__init__(
            config, workers=workers, chunk_size=chunk_size, retry=retry,
            shard_timeout=shard_timeout, fault_plan=fault_plan,
            config_payload=config_payload, quarantine=quarantine,
        )
        self.model_bytes = model_bytes
        self.drift = drift
        self.cache = cache
        self.cache_salt = cache_salt

    def stream(self, images: Iterable[SystemImage]) -> Iterator[Report]:
        """Yield one report per surviving target, in input order."""
        images = list(images)
        if not images:
            return
        chunk_size = self.chunk_size or default_chunk_size(len(images), self.workers)
        # Tasks are framed inside the batch span so the propagated trace
        # context names it as the workers' remote parent.
        with span("check.batch", targets=len(images), workers=self.workers):
            for parts in self._shards(chunked(images, chunk_size)):
                for part in parts:
                    yield from part.reports
