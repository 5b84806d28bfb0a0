"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests -q``.

The tiny-size runs take about a minute in all; the serve workload needs
14 seconds of traced load to collect the 200 samples its p95 requires.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import inputs  # noqa: E402
from shims import SpanRecorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace,seconds", [
    ("train", 0, 1), ("train", 1, 1),
    ("serve", 0, 2), ("serve", 1, 14),
])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, seconds):
    process = run_bench("--workload", workload, "--seed", "3", "--seconds", str(seconds),
                        "--trace", str(trace), "--size", "tiny")
    assert process.returncode == 0, process.stderr
    result = result_of(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _copy_benchmark(into: Path) -> Path:
    """BENCHMARK.json and perfbench/ under *into*, without run leftovers."""
    shutil.copy(ROOT / "BENCHMARK.json", into)
    shutil.copytree(BENCH, into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "out"))
    return into / "perfbench"


def test_forced_digest_mismatch_is_a_failure_not_a_crash(tmp_path):
    copy = _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    (copy / "reference.json").write_text(json.dumps({
        "size": inputs.SIZES["tiny"].to_dict(),
        "seeds": {"3": {"ruleset_digest": "0" * 64}},
    }))
    process = run_bench("--workload", "train", "--seed", "3", "--seconds", "1",
                        "--size", "tiny", cwd=tmp_path)
    assert process.returncode == 1
    assert "Traceback" not in process.stderr
    assert "MISMATCH" in process.stderr
    result = result_of(process)
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def _fingerprint(images) -> list:
    from repro.engine.artifacts import image_digest

    return [image_digest(image) for image in images]


def test_a_seed_always_generates_the_same_inputs():
    size = inputs.SIZES["tiny"]
    first = inputs.audit_targets(5, size)
    again = inputs.audit_targets(5, size)
    other = inputs.audit_targets(6, size)
    assert _fingerprint(first[0]) == _fingerprint(again[0])
    assert [[e.describe() for e in errors] for _, errors in first[1]] == [
        [e.describe() for e in errors] for _, errors in again[1]
    ]
    assert _fingerprint(first[0]) != _fingerprint(other[0])
    assert _fingerprint(inputs.training_corpus(5, size)) == _fingerprint(
        inputs.training_corpus(5, size))
    corpora = [_fingerprint(c) for c in inputs.training_corpora(5, size, 3)]
    assert corpora == [_fingerprint(c) for c in inputs.training_corpora(5, size, 3)]
    assert corpora[0] == _fingerprint(inputs.training_corpus(5, size))
    assert not set(corpora[0]) & set(corpora[1])
    assert _fingerprint(inputs.serve_targets(5, size)[0]) == _fingerprint(
        inputs.serve_targets(5, size)[0])


def test_shims_record_self_time_and_restore_the_program():
    from repro.core.pipeline import EnCore
    from repro.parsers.registry import ParserRegistry

    original = ParserRegistry.parse
    recorder = SpanRecorder("test")
    recorder.install()
    try:
        EnCore().train(inputs.training_corpus(1, inputs.Size(6, 0, 0)))
    finally:
        recorder.uninstall()
    assert ParserRegistry.parse is original
    layers = recorder.layers()
    assembled = layers["assembler.assemble"]
    assert assembled["calls"] == 6 and layers["parsers.parse"]["calls"] == 18
    spans = recorder.spans
    children = sum(end - start for _, start, end, parent, _ in spans
                   if parent >= 0 and spans[parent][0] == "assembler.assemble")
    assert children > 0
    assert assembled["self_s"] == pytest.approx(assembled["total_s"] - children, abs=1e-6)


def test_host_clock_probes_inside_the_call_and_restores_the_timer():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    result, seconds, factor = hostclock.timed(lambda: sum(range(10_000_000)) and "done")
    wall = time.perf_counter() - start
    assert result == "done"
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < seconds < wall and factor > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    _copy_benchmark(tmp_path)
    process = run_bench("--workload", "train", "--seed", "1", "--seconds", "1",
                        cwd=tmp_path)
    assert process.returncode != 0
    assert process.stdout.strip() == ""
