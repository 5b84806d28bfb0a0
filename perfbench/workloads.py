"""The two workloads: ``train`` and ``serve``.

Each function takes a :class:`Run`, builds its inputs from the seed
before any timing, measures for ``run.seconds``, checks every output it
times, and fills ``run.metrics``.  With ``run.trace`` the timed
operations run under the shims instead, giving the per-layer metrics,
and a closing phase of paired traced and untraced calls gives the
tracing overhead.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import hostclock
import inputs
import loadgen
from shims import SpanRecorder, merge_layers, new_layer

#: Set-up runs this many times in an untraced run; ``setup_s`` is the
#: median.  A traced run sets up once.
SETUP_REPEATS = 3
#: ``train`` times trainings on this many disjoint corpora of the seed,
#: in turn, and reports the mean over corpora of each corpus's median,
#: so that one corpus's share of rules does not decide the figure.
TRAIN_CORPORA = 3
#: A traced ``train`` run then checks the audit fleet with this many
#: workers, in this many traced passes, for the engine's layers.
AUDIT_WORKERS = 2
AUDIT_TRACED_PASSES = 2
#: Open-loop rate for ``serve``: below the knee of the daemon on a
#: 2-core machine (30 rps already spread p99 from 44 to 113 ms and one
#: 40 rps run collapsed).
SERVE_RATE = 20.0
#: Seconds of the closed-loop capacity phase (at most a quarter of the
#: run); the rest of the run is open loop.
CLOSED_SECONDS = 7.5
CLOSED_CONNECTIONS = 2
#: The tail percentile reported needs ten samples beyond it.
TAIL_Q = 0.95
TAIL_MIN_SAMPLES = 200
#: The overhead phase of a traced run lasts this share of ``--seconds``
#: and makes at least this many pairs.
OVERHEAD_SHARE = 0.5
OVERHEAD_MIN_PAIRS = 20


class Run:
    """One benchmark invocation: settings, workspace and results."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool,
                 size: inputs.Size, workdir: Path, reference: Optional[dict]) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.recorder = SpanRecorder(workdir.name) if trace else None

    def op(self, ok: bool, what: str, count: int = 1) -> None:
        """Count *count* attempted operations; all of them failed unless *ok*."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)

    def expect(self, key: str, value, what: str) -> None:
        """Check *value* against the reference entry *key*, when there is one."""
        if self.reference is not None and key in self.reference:
            wanted = self.reference[key]
            self.op(value == wanted, f"{what}: {value!r} != reference {wanted!r}")

    def timed_setup(self, build):
        """Run *build* (``SETUP_REPEATS`` times untraced); return the last result."""
        times, result = [], None
        for _ in range(1 if self.trace else SETUP_REPEATS):
            result, seconds, factor = hostclock.timed(build)
            times.append(seconds * factor)
        if not self.trace:
            self.metrics["setup_s"] = statistics.median(times)
        # What set-up built lives for the whole run; collections must not
        # keep traversing it, in this process or in forked pool workers.
        gc.collect()
        gc.freeze()
        return result

    def traced(self, fn):
        """Call *fn* under the shims; return its result and its layers."""
        mark = len(self.recorder.spans)
        self.recorder.install()
        try:
            result = fn()
        finally:
            self.recorder.uninstall()
        return result, self.recorder.layers(mark)

    def paired_overhead(self, calls: Sequence[Callable[[], object]],
                        expected: Sequence[object]) -> None:
        """``trace.overhead_pct`` from untraced and traced calls in pairs.

        Cycles over *calls*, running each untraced and traced back to
        back, the order alternating from pair to pair, for
        ``OVERHEAD_SHARE`` of the run.  Host contention moves both
        halves of a pair alike, so the median of the traced/untraced
        ratios shows a cost of a few percent that the medians of whole
        runs, some 20% apart from run to run, cannot.  Every result is
        checked against *expected*, item for item.
        """
        ratios: List[float] = []
        deadline = time.perf_counter() + self.seconds * OVERHEAD_SHARE
        while len(ratios) < OVERHEAD_MIN_PAIRS or time.perf_counter() < deadline:
            index = len(ratios) % len(calls)
            took = {}
            for tracing in (False, True) if len(ratios) % 2 == 0 else (True, False):
                if tracing:
                    self.recorder.install()
                try:
                    start = time.perf_counter()
                    result = calls[index]()
                    took[tracing] = time.perf_counter() - start
                finally:
                    self.recorder.uninstall()
                self.op(result == expected[index],
                        f"overhead pair {index}: output differs "
                        f"({'traced' if tracing else 'untraced'})")
            ratios.append(took[True] / took[False])
        self.metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)


def _canon(reports) -> List[str]:
    return [inputs.canonical(report.to_dict()) for report in reports]


def _recall(run: Run, reports, truth, key: str) -> None:
    """Table 8 recall over the injected targets, checked against the reference."""
    flagged, total = inputs.detected(reports, truth)
    run.expect(key, flagged, "flagged injected errors")
    if not run.trace:
        run.metrics["recall"] = flagged / total


# -- train ---------------------------------------------------------------------


def train(run: Run) -> None:
    """Cold serial training: a fresh ``EnCore()`` each time, no cache."""
    from repro.core.pipeline import EnCore

    def build():
        return (inputs.training_corpora(run.seed, run.size, TRAIN_CORPORA),
                inputs.audit_targets(run.seed, run.size))

    corpora, (targets, truth) = run.timed_setup(build)
    images = corpora[0]
    warm_digest = EnCore().train(images).ruleset_digest()  # fills lazy memos
    run.expect("ruleset_digest", warm_digest, "warm-up ruleset digest")

    if run.trace:
        encore = EnCore()
        model, layers = run.traced(lambda: encore.train(images))
        run.op(model.ruleset_digest() == warm_digest, "ruleset digest changed under the shims")
        serial_runs, stream_runs, counts = _traced_audit(run, encore, targets)
        passes = len(stream_runs)
        _layer_metrics(
            run, merge_layers([layers] + serial_runs), stream=merge_layers(stream_runs),
            stream_targets=passes * len(targets), stream_passes=passes, counts=counts,
        )
        # The shims sit on assembly; inference carries one span per
        # training.  So the pairs are single-image assemblies.
        assembler = encore.assembler
        run.paired_overhead(
            [lambda image=image: assembler.assemble(image).as_row() for image in images],
            [assembler.assemble(image).as_row() for image in images],
        )
    else:
        # The corpora take turns until the deadline, each at least once;
        # the first training of each further corpus is its digest
        # reference.  Each time is adjusted for the host's speed.
        times: List[List[float]] = [[] for _ in corpora]
        walls: List[List[float]] = [[] for _ in corpora]
        digests: List[Optional[str]] = [warm_digest] + [None] * (len(corpora) - 1)
        deadline = time.perf_counter() + run.seconds
        trainings = 0
        while trainings < len(corpora) or time.perf_counter() < deadline:
            part = trainings % len(corpora)
            trainer = EnCore()
            model, wall, factor = hostclock.timed(lambda: trainer.train(corpora[part]))
            times[part].append(wall * factor)
            walls[part].append(wall)
            trainings += 1
            digest = model.ruleset_digest()
            digests[part] = digests[part] or digest
            run.op(digest == digests[part], f"ruleset digest of corpus {part} changed between runs")
            if part == 0:
                encore = trainer
        print(f"perfbench: train_s per corpus, wall {json.dumps(walls)}, "
              f"host-adjusted {json.dumps(times)}", file=sys.stderr)
        train_s = statistics.fmean(statistics.median(part) for part in times)
        run.metrics["latency_ms"] = train_s * 1000.0
        run.metrics["throughput_per_s"] = len(images) / train_s
    _recall(run, {p: encore.check(targets[p]) for p, _ in truth}, truth, "audit_flagged")


# -- audit phase of the traced train run ---------------------------------------


def _traced_audit(run: Run, encore, targets):
    """The engine's layers: fleet checks through the warm pool, traced.

    ``check_stream(workers=2)`` over the audit fleet, each pass with
    fresh target objects and a fresh disk result cache (every lookup
    misses and every row is written), after one untraced warm-up pass
    that spawns the pool and is checked against the reference.  Layers
    inside pool workers are invisible to the shims, so each pass is
    followed by an in-process serial pass over the same fleet, with its
    own fresh cache, that times them and is compared report by report
    with the ``workers=2`` pass.  Returns the serial passes' layers, the
    ``workers=2`` passes' layers and the registry totals the workers
    shipped back.
    """
    from repro.engine.cache import ResultCache
    from repro.engine.pool import shutdown_warm_pool
    from repro.obs.metrics import get_registry

    registry = get_registry()
    cache_root = run.workdir / "audit-cache"

    def fresh_cache() -> None:
        shutil.rmtree(cache_root, ignore_errors=True)
        encore.set_cache(ResultCache(cache_root / str(time.perf_counter_ns())))

    def stream(fleet) -> list:
        return list(encore.check_stream(fleet, workers=AUDIT_WORKERS))

    serial_runs, stream_runs, counts = [], [], _Counts(registry)
    try:
        fresh_cache()
        warm_digest = inputs.reports_digest(_canon(stream(targets)))
        run.expect("audit_digest", warm_digest, "warm-up audit digest")
        for _ in range(AUDIT_TRACED_PASSES):
            fleet, _ = inputs.audit_targets(run.seed, run.size)  # fresh objects
            fresh_cache()
            before = counts.take()
            reports, layers = run.traced(lambda: stream(fleet))
            stream_runs.append(layers)
            counts.add(before)
            canon = _canon(reports)
            run.op(inputs.reports_digest(canon) == warm_digest,
                   "audit reports changed between passes", count=len(fleet))
            fresh_cache()
            serial, layers = run.traced(lambda: [encore.check(t) for t in fleet])
            serial_runs.append(layers)
            run.op(_canon(serial) == canon,
                   "serial and workers=2 reports differ", count=len(fleet))
    finally:
        encore.set_cache(None)
        shutil.rmtree(cache_root, ignore_errors=True)
        shutdown_warm_pool(wait=True)
    _pool_metrics(run, registry)
    return serial_runs, stream_runs, counts


class _Counts:
    """Registry totals the workers ship back, summed over the timed passes."""

    NAMES = ("check.shards.total", "cache.hit.total", "cache.miss.total")

    def __init__(self, registry) -> None:
        self.registry = registry
        self.totals = dict.fromkeys(self.NAMES + ("check.seconds",), 0.0)

    def take(self) -> Dict[str, float]:
        now = {name: self.registry.total(name) for name in self.NAMES}
        now["check.seconds"] = sum(
            h.sum for h in self.registry.series("check.seconds").values()
        )
        return now

    def add(self, before: Dict[str, float]) -> None:
        for name, value in self.take().items():
            self.totals[name] += value - before[name]


def _pool_metrics(run: Run, registry) -> None:
    run.metrics["pool.spawn"] = registry.total("pool.spawn.total")
    run.metrics["pool.respawn"] = registry.total("pool.respawn.total")
    run.metrics["batch.serial_fallback"] = registry.total("batch.serial_fallback.total")


# -- serve ---------------------------------------------------------------------


def serve(run: Run) -> None:
    """Single-image ``/v1/check`` against the daemon in its own process."""
    from repro.core.pipeline import EnCore
    from repro.engine.cache import ResultCache
    from repro.sysmodel import snapshot
    from repro.sysmodel.snapshot import image_to_dict

    model_path = run.workdir / "model.json"
    daemons: List[loadgen.Daemon] = []

    def build():
        for daemon in daemons:
            daemon.stop()
        daemons.clear()
        encore = EnCore()
        model = encore.train(inputs.training_corpus(run.seed, run.size))
        encore.save_model(model_path)
        daemons.append(loadgen.Daemon(run.root, model_path, run.workdir))
        return model, inputs.serve_targets(run.seed, run.size)

    try:
        model, (targets, truth) = run.timed_setup(build)
        daemon = daemons[0]
        run.expect("ruleset_digest", model.ruleset_digest(), "setup ruleset digest")
        bodies = [json.dumps({"image": image_to_dict(t)}).encode() for t in targets]
        # The daemon's request path, in-process: decode, check, encode.
        local = EnCore()
        local.load_model(model_path)
        local.set_cache(ResultCache())

        def decode_check(body: bytes):
            return local.check(snapshot.image_from_dict(json.loads(body)["image"]))

        expected_reports = [decode_check(body) for body in bodies]
        expected = _canon(expected_reports)
        run.expect("serve_digest", inputs.reports_digest(expected), "served reports digest")
        gc.collect()
        gc.freeze()  # the generator's own collections must not delay sends

        _verify(run, "warm-up", loadgen.one_pass(daemon.port, bodies), expected)
        closed_s = min(CLOSED_SECONDS, run.seconds / 4)
        open_s = run.seconds - closed_s
        if run.trace:
            before = loadgen.parse_metrics(daemon.metrics())
            with loadgen.QueuePoller(daemon) as poller:
                phase = loadgen.open_loop(daemon.port, bodies, SERVE_RATE, open_s)
            after = loadgen.parse_metrics(daemon.metrics())
            _verify(run, "open loop", phase, expected)
            _serve_metrics(run, phase, before, after, poller.depths)
            _, layers = run.traced(lambda: [decode_check(body).to_dict() for body in bodies])
            _layer_metrics(run, layers, server=(before, after))
        else:
            phase, _, open_factor = hostclock.timed(
                lambda: loadgen.open_loop(daemon.port, bodies, SERVE_RATE, open_s))
            _verify(run, "open loop", phase, expected)
            p50_ms = _quantile(phase.latencies_s, 0.5) * 1000.0
            run.metrics["latency_ms"] = p50_ms * open_factor
        # Untimed by the probes: the closed loop keeps both cores busy,
        # so a probe would measure the loop's own load, not the host's.
        capacity = loadgen.closed_loop(daemon.port, bodies, closed_s,
                                       connections=CLOSED_CONNECTIONS)
        _verify(run, "closed loop", capacity, expected)
        if run.trace:
            # The daemon's request path replayed in-process, one request
            # per pair: decode, check with a warm cache, encode.
            run.paired_overhead(
                [lambda body=body: inputs.canonical(decode_check(body).to_dict())
                 for body in bodies],
                expected,
            )
        else:
            run.metrics["throughput_per_s"] = len(capacity.responses) / capacity.elapsed_s
            print(f"perfbench: open-loop p50 {p50_ms:.3f} ms, host factor {open_factor:.4f}",
                  file=sys.stderr)
        _recall(run, expected_reports, truth, "serve_flagged")
    finally:
        for daemon in daemons:
            daemon.stop()


def _verify(run: Run, name: str, phase: loadgen.Phase, expected: List[str]) -> None:
    """Every response must carry the in-process report, byte for byte."""
    print(f"perfbench: {name}: {phase.summary()}", file=sys.stderr)
    if phase.errors:
        run.op(False, f"{name}: {phase.errors} requests failed", count=phase.errors)
    for target, status, body in phase.responses:
        if status != 200:
            run.op(False, f"{name}: HTTP {status} for target {target}")
            continue
        report = json.loads(body)["report"]
        run.op(inputs.canonical(report) == expected[target],
               f"{name}: served report differs for target {target}")


def _quantile(samples: List[float], q: float) -> float:
    """The *q* quantile of raw samples (nearest rank)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _server_histogram(before: Dict[str, float], after: Dict[str, float]):
    """The daemon's ``/v1/check`` latency histogram between two scrapes."""
    from repro.obs.metrics import Histogram

    prefix = 'serve_request_latency_bucket{route="/v1/check",status="200",le="'
    bounds = sorted(
        (float(key[len(prefix):-2]), after[key] - before.get(key, 0.0))
        for key in after if key.startswith(prefix)
    )
    cumulative = [int(count) for _, count in bounds]
    histogram = Histogram([bound for bound, _ in bounds if bound != float("inf")])
    histogram.load({
        "buckets": histogram.buckets,
        "bucket_counts": [c - p for c, p in zip(cumulative, [0] + cumulative[:-1])],
        "sum": 0.0,
        "count": cumulative[-1] if cumulative else 0,
    })
    return histogram


def _serve_metrics(run: Run, phase, before, after, depths) -> None:
    histogram = _server_histogram(before, after)
    if not histogram.count:
        raise RuntimeError("the daemon recorded no /v1/check latencies")
    if len(phase.latencies_s) < TAIL_MIN_SAMPLES:
        raise RuntimeError(f"{len(phase.latencies_s)} open-loop samples cannot support "
                           f"p95 (need {TAIL_MIN_SAMPLES}); run longer")
    server_p50 = histogram.quantile(0.5) * 1000.0
    run.metrics.update({
        "serve.server_p50_ms": server_p50,
        "serve.server_p95_ms": histogram.quantile(TAIL_Q) * 1000.0,
        "serve.client_p95_ms": _quantile(phase.latencies_s, TAIL_Q) * 1000.0,
        "serve.client_overhead_ms": _quantile(phase.latencies_s, 0.5) * 1000.0 - server_p50,
        "serve.queue_depth_max": max(depths, default=0.0),
        "serve.shed": float(phase.shed),
        "serve.generator_late_ms": max(phase.late_s) * 1000.0,
    })


# -- per-layer metrics ---------------------------------------------------------

SERVE_LAYER_METRICS = (
    "serve.server_p50_ms", "serve.server_p95_ms", "serve.client_p95_ms",
    "serve.client_overhead_ms", "serve.queue_depth_max", "serve.shed",
    "serve.generator_late_ms",
)


def _layer_metrics(run: Run, layers: Dict[str, dict], stream=None,
                   stream_targets: int = 0, stream_passes: int = 0,
                   counts: Optional[_Counts] = None, server=None) -> None:
    """Turn span aggregates into the per-layer metrics; idle layers read 0.

    *layers* are in-process spans; *stream* the coordinator's spans of
    ``workers=2`` passes, with *counts* the registry totals the workers
    shipped back.  *server* is a pair of daemon scrapes.
    """
    def get(name, source=layers):
        return (source or {}).get(name) or new_layer()

    def per(value, count):
        return value / count if count else 0.0

    def ms_per(name, count, source=layers, key="total_s"):
        return per(get(name, source)[key] * 1000.0, count)

    def ms_per_call(name):
        return ms_per(name, get(name)["calls"])

    images = get("assembler.assemble")["calls"]
    parse, infer, detect = get("parsers.parse"), get("inference.infer"), get("detector.detect")
    candidates = sum(c for c, _ in infer["measures"])
    rules = sum(r for _, r in infer["measures"])
    codec_bytes = sum(get("codec.encode", stream)["measures"]) + sum(
        get("codec.decode", stream)["measures"])
    if server is not None:
        before, after = server
        hits, misses = (after.get(k, 0.0) - before.get(k, 0.0)
                        for k in ("cache_hit_total", "cache_miss_total"))
    elif counts is not None:
        hits, misses = counts.totals["cache.hit.total"], counts.totals["cache.miss.total"]
    else:
        hits = misses = 0.0
    m = run.metrics
    m.update({
        "parsers.parse_ms": ms_per("parsers.parse", images),
        "parsers.files": per(parse["calls"], images),
        "parsers.entries": per(sum(parse["measures"]), images),
        "types.infer_calls": per(get("types.infer")["calls"], images),
        "types.infer_ms": ms_per("types.infer", images),
        "augment.env_ms": ms_per("augment.env", images),
        "assembler.assemble_ms_per_image": ms_per("assembler.assemble", images),
        "assembler.self_ms_per_image": ms_per("assembler.assemble", images, key="self_s"),
        "inference.infer_s": per(infer["total_s"], infer["calls"]),
        "inference.candidate_pairs": per(candidates, infer["calls"]),
        "inference.rules": per(rules, infer["calls"]),
        "inference.rule_yield": per(rules, candidates),
        "detector.detect_ms_per_target": ms_per_call("detector.detect"),
        "detector.warnings_per_target": per(sum(detect["measures"]), detect["calls"]),
        "drift.observe_ms_per_target": ms_per_call("drift.observe"),
        "report.to_dict_ms": ms_per_call("report.to_dict"),
        "snapshot.image_from_dict_ms": ms_per_call("snapshot.image_from_dict"),
        "codec.encode_ms": ms_per("codec.encode", stream_targets, stream),
        "codec.decode_ms": ms_per("codec.decode", stream_targets, stream),
        "codec.bytes_per_target": per(codec_bytes, stream_targets),
        "batch.wait_s": per(get("batch.stream", stream)["self_s"], stream_passes),
        "batch.worker_busy_s": per(
            counts.totals["check.seconds"] if counts else 0.0, stream_passes),
        "batch.shards": per(
            counts.totals["check.shards.total"] if counts else 0.0, stream_passes),
        "cache.lookup_ms": ms_per_call("cache.lookup"),
        "cache.store_ms": ms_per_call("cache.store"),
        "cache.hit_ratio": per(hits, hits + misses),
    })
    for name in SERVE_LAYER_METRICS:
        m.setdefault(name, 0.0)
    for name in ("pool.spawn", "pool.respawn", "batch.serial_fallback"):
        m.setdefault(name, 0.0)


WORKLOADS = {"train": train, "serve": serve}
