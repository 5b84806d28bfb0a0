"""Benchmark distributed tracing + flight recorder overhead on a check pass.

One measurement, one record:

* **Tracing overhead.**  Runs the same single-process check pass twice —
  bare, and with the full always-on observability stack live: an active
  :class:`~repro.obs.tracing.Tracer` retaining the span tree and a
  :class:`~repro.obs.flight.FlightRecorder` fed by every closed span.
  That is exactly what a traced ``repro check`` or a serve request pays
  per target.  Trials interleave bare/traced and both sides take
  best-of-N, so machine noise hits both equally.  The headline number is
  ``overhead_pct``; the gated number is
  ``overhead_headroom_pct = BUDGET_PCT − overhead_pct``, floored at 0 by
  the regression gate — tracing must stay under the 2 % wall-clock
  budget no matter what the history says.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace.py --quick
    PYTHONPATH=src python benchmarks/bench_trace.py

The ``trace_overhead`` section lands in ``BENCH_headline.json`` and
``BENCH_history.jsonl`` via the same :func:`record_headline` path as the
other benches.  Exit status is 1 when the overhead budget is blown, so
the CI step fails even before the gate runs.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Optional, Sequence

from export import BENCH_PATH, record_headline

#: The wall-clock budget tracing + flight recording must stay under
#: (ISSUE acceptance).
BUDGET_PCT = 2.0


def measure_overhead(
    corpus_size: int, checks: int, trials: int, seed: int = 47
) -> Dict[str, object]:
    """Best-of-N check-pass walls, bare vs traced + flight-recorded."""
    from repro.core.pipeline import EnCore
    from repro.corpus.generator import Ec2CorpusGenerator
    from repro.obs.flight import FlightRecorder
    from repro.obs.telemetry import scope
    from repro.obs.tracing import Tracer

    generator = Ec2CorpusGenerator(seed=seed)
    images = list(generator.generate(corpus_size))
    encore = EnCore()
    encore.train(images)
    targets = [generator.generate_one(7000 + i) for i in range(checks)]

    def check_pass(traced: bool) -> Dict[str, object]:
        flight = FlightRecorder() if traced else None
        with scope(tracer=Tracer() if traced else None, flight=flight):
            start = time.perf_counter()
            for image in targets:
                encore.check(image)
            wall = time.perf_counter() - start
        spans = flight.totals()["spans"] if traced else 0
        return {"wall": wall, "spans": spans}

    check_pass(traced=False)  # warm caches/imports before timing anything
    bare_walls = []
    traced_walls = []
    spans_recorded = 0
    for _ in range(trials):
        bare_walls.append(check_pass(traced=False)["wall"])
        result = check_pass(traced=True)
        traced_walls.append(result["wall"])
        spans_recorded = max(spans_recorded, int(result["spans"]))
    bare = min(bare_walls)
    traced = min(traced_walls)
    overhead_pct = (traced - bare) / bare * 100.0 if bare > 0 else 0.0
    return {
        "bare_seconds": round(bare, 4),
        "traced_seconds": round(traced, 4),
        "overhead_pct": round(overhead_pct, 3),
        "overhead_headroom_pct": round(BUDGET_PCT - overhead_pct, 3),
        "budget_pct": BUDGET_PCT,
        "spans_per_pass": spans_recorded,
        "trials": trials,
    }


def run(quick: bool = False) -> Dict[str, object]:
    if quick:
        corpus_size, checks, trials = 24, 30, 3
    else:
        corpus_size, checks, trials = 60, 120, 5
    payload: Dict[str, object] = {"corpus_size": corpus_size, "checks": checks}
    payload.update(measure_overhead(corpus_size, checks, trials))
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="benchmark tracing + flight recorder overhead"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (small corpus, fewer trials)")
    parser.add_argument("--out", default=str(BENCH_PATH),
                        help=f"headline record path (default: {BENCH_PATH})")
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    path = record_headline("trace_overhead", payload, path=args.out)
    print(f"wrote {path}")
    print(json.dumps({"trace_overhead": payload}, indent=1))
    over_budget = float(payload["overhead_pct"]) > BUDGET_PCT
    if over_budget:
        print(f"FAIL: tracing overhead {payload['overhead_pct']}% "
              f"exceeds the {BUDGET_PCT:g}% budget")
    return 1 if over_budget else 0


if __name__ == "__main__":
    raise SystemExit(main())
