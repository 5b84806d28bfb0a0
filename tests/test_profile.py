"""Tests for per-stage resource profiling (repro.obs.profile)."""

import json

import pytest

from repro.cli import main
from repro.core.pipeline import EnCore
from repro.corpus.generator import Ec2CorpusGenerator
from repro.obs.profile import (
    COORDINATOR_PID,
    SHARD_PID_BASE,
    StageProfile,
    StageProfiler,
    chrome_trace,
    load_profile,
    profile_document,
    render_profile,
)
from repro.obs.telemetry import Telemetry, current, scope
from repro.obs.tracing import Tracer, span


class FakeClock:
    """Deterministic clock: each read advances by *step* seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def make_profiler(step=1.0, cpu_step=0.25):
    return StageProfiler(
        clock=FakeClock(step), cpu_clock=FakeClock(cpu_step),
        trace_allocations=False,
    )


class TestStageProfile:
    def test_record_accumulates(self):
        stage = StageProfile()
        stage.record(1.0, 0.5, rss=100, alloc=10)
        stage.record(2.0, 0.5, rss=50, alloc=30)
        assert stage.wall_s == 3.0
        assert stage.cpu_s == 1.0
        assert stage.calls == 2
        assert stage.max_rss_bytes == 100  # max, not sum
        assert stage.alloc_peak_bytes == 30

    def test_merge_is_associative(self):
        def part(wall, rss):
            p = StageProfile()
            p.record(wall, wall / 2, rss=rss, alloc=rss)
            return p

        left = part(1.0, 10).merge(part(2.0, 30).merge(part(4.0, 20)))
        right = part(1.0, 10).merge(part(2.0, 30)).merge(part(4.0, 20))
        assert left.to_dict() == right.to_dict()
        assert left.calls == 3
        assert left.wall_s == 7.0
        assert left.max_rss_bytes == 30

    def test_dict_round_trip(self):
        stage = StageProfile()
        stage.record(1.5, 0.75, rss=2048, alloc=512)
        assert StageProfile.from_dict(stage.to_dict()).to_dict() == stage.to_dict()

    def test_from_dict_tolerates_missing_fields(self):
        stage = StageProfile.from_dict({"wall_s": 2.0})
        assert stage.wall_s == 2.0
        assert stage.calls == 0
        assert stage.max_rss_bytes == 0


class TestStageProfiler:
    def test_profile_records_wall_and_cpu(self):
        profiler = make_profiler(step=1.0, cpu_step=0.25)
        with profiler.profile("assemble"):
            pass
        stage = profiler.stages["assemble"]
        assert stage.calls == 1
        assert stage.wall_s == pytest.approx(1.0)
        assert stage.cpu_s == pytest.approx(0.25)

    def test_nested_stages_record_separately(self):
        profiler = make_profiler()
        with profiler.profile("train"):
            with profiler.profile("train.assemble"):
                pass
        assert set(profiler.stages) == {"train", "train.assemble"}
        assert profiler.stages["train"].wall_s > profiler.stages["train.assemble"].wall_s

    def test_shard_sample_fields(self):
        profiler = make_profiler()
        with profiler.shard("assemble", shard_index=3, items=7):
            pass
        (sample,) = profiler.shards
        assert sample["stage"] == "assemble"
        assert sample["shard"] == 3
        assert sample["items"] == 7
        assert sample["wall_s"] == pytest.approx(1.0)
        assert sample["epoch_end"] >= sample["epoch_start"]

    def test_merge_dict_folds_stages_and_concatenates_shards(self):
        worker = make_profiler()
        with worker.profile("assemble"):
            pass
        with worker.shard("assemble", 0, items=3):
            pass
        coordinator = make_profiler()
        with coordinator.profile("assemble"):
            pass
        coordinator.merge_dict(worker.to_dict())
        assert coordinator.stages["assemble"].calls == 2
        assert len(coordinator.shards) == 1
        # The worker's meta/anchor never overwrite the coordinator's.
        assert coordinator.meta["pid"] != 0

    def test_merge_order_independent(self):
        snapshots = []
        for index in range(3):
            worker = make_profiler(step=float(index + 1))
            with worker.profile("assemble"):
                pass
            with worker.shard("assemble", index, items=index):
                pass
            snapshots.append(worker.to_dict())

        forward = make_profiler()
        backward = make_profiler()
        for snap in snapshots:
            forward.merge_dict(snap)
        for snap in reversed(snapshots):
            backward.merge_dict(snap)
        assert (forward.to_dict()["stages"] == backward.to_dict()["stages"])
        assert len(forward.shards) == len(backward.shards) == 3

    def test_digest_deterministic_and_content_sensitive(self):
        a, b = make_profiler(), make_profiler()
        with a.profile("x"):
            pass
        with b.profile("x"):
            pass
        assert a.digest() == b.digest()
        with b.profile("y"):
            pass
        assert a.digest() != b.digest()

    def test_tracemalloc_peak_recorded(self):
        profiler = StageProfiler().start()
        try:
            with profiler.profile("alloc"):
                blob = [bytes(64 * 1024) for _ in range(16)]  # ~1 MB
            assert blob
            assert profiler.stages["alloc"].alloc_peak_bytes > 256 * 1024
        finally:
            profiler.stop()

    def test_installed_profiler_taps_span_boundary(self):
        profiler = make_profiler()
        with scope(profiler=profiler), span("infer"):
            pass
        assert profiler.stages["infer"].calls == 1
        assert profiler.stages["infer"].wall_s == pytest.approx(1.0)

    def test_span_error_still_records_and_annotates(self):
        profiler = make_profiler()
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with scope(profiler=profiler, tracer=tracer), span("detect"):
                raise RuntimeError("boom")
        assert profiler.stages["detect"].calls == 1
        (root,) = tracer.roots
        assert root.attributes["error"] == "RuntimeError"
        assert root.end is not None  # closed despite the raise

    def test_merge_snapshot_noop_without_active_profiler(self):
        worker = make_profiler()
        with worker.profile("check"):
            pass
        telemetry = Telemetry()
        telemetry.merge({"profile": worker.to_dict()})  # nothing to fold into
        assert telemetry.profiler is None
        assert telemetry.registry.names() == []

    def test_merge_snapshot_folds_into_active(self):
        worker = make_profiler()
        with worker.profile("check"):
            pass
        coordinator = make_profiler()
        Telemetry(profiler=coordinator).merge({"profile": worker.to_dict()})
        assert coordinator.stages["check"].calls == 1


class TestTrainProfileParity:
    """Serial and sharded --profile runs agree on the deterministic surface."""

    @pytest.fixture(scope="class")
    def images(self):
        return Ec2CorpusGenerator(seed=53).generate(20)

    def profiled_train(self, images, workers):
        profiler = StageProfiler(trace_allocations=False).start()
        try:
            with scope(profiler=profiler):
                model = EnCore().train(images, workers=workers)
        finally:
            profiler.stop()
        return model, profiler

    def test_stage_coverage_and_calls_match_serial(self, images):
        serial_model, serial = self.profiled_train(images, workers=1)
        sharded_model, sharded = self.profiled_train(images, workers=2)
        assert serial_model.rules.to_json() == sharded_model.rules.to_json()
        # Stages common to both paths appear in both profiles with
        # identical call counts; wall time legitimately differs.
        common = set(serial.stages) & set(sharded.stages)
        assert {"train", "train.assemble", "train.infer", "infer"} <= common
        for name in common:
            assert serial.stages[name].calls == sharded.stages[name].calls, name
            assert sharded.stages[name].wall_s > 0
        if sharded.shards:  # empty ⇒ pool unavailable, serial fallback
            assert sum(s["items"] for s in sharded.shards) == len(images)
            assert {s["stage"] for s in sharded.shards} == {"assemble"}


class TestChromeTrace:
    def make_doc(self):
        profiler = make_profiler()
        tracer = Tracer(clock=profiler.clock)
        with scope(profiler=profiler, tracer=tracer):
            with span("train"):
                with span("train.assemble", images=4):
                    pass
                with span("train.infer"):
                    pass
        with profiler.shard("assemble", 0, items=2):
            pass
        with profiler.shard("assemble", 1, items=2):
            pass
        return profile_document(profiler, tracer, command="train")

    def test_events_are_monotonic_and_paired(self):
        trace = chrome_trace(self.make_doc())
        events = trace["traceEvents"]
        stamps = [e["ts"] for e in events if e["ph"] in "BEX"]
        assert stamps == sorted(stamps)
        assert all(ts >= 0 for ts in stamps)
        # Every B has a matching E, well-nested per pid/tid.
        stacks = {}
        for event in events:
            key = (event["pid"], event.get("tid"))
            if event["ph"] == "B":
                stacks.setdefault(key, []).append(event["name"])
            elif event["ph"] == "E":
                assert stacks[key], f"E without B on {key}"
                assert stacks[key].pop() == event["name"]
        assert all(not stack for stack in stacks.values())

    def test_span_nesting_preserved(self):
        trace = chrome_trace(self.make_doc())
        names = [e["name"] for e in trace["traceEvents"]
                 if e["ph"] == "B" and e["pid"] == COORDINATOR_PID]
        assert names == ["train", "train.assemble", "train.infer"]

    def test_shard_pids_deterministic(self):
        doc = self.make_doc()
        trace = chrome_trace(doc)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert sorted(e["pid"] for e in xs) == [SHARD_PID_BASE, SHARD_PID_BASE + 1]
        # Re-export of the identical document is byte-stable.
        assert chrome_trace(doc) == trace
        for event in xs:
            assert event["args"]["items"] == 2
            assert "worker_pid" in event["args"]

    def test_process_metadata_named(self):
        trace = chrome_trace(self.make_doc())
        named = {e["pid"]: e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert named[COORDINATOR_PID] == "coordinator"
        assert named[SHARD_PID_BASE] == "shard-0"

    def test_empty_document(self):
        trace = chrome_trace({"stages": {}, "shards": [], "spans": []})
        assert [e["ph"] for e in trace["traceEvents"]] == ["M"]


class TestRenderProfile:
    def test_table_contents(self):
        profiler = make_profiler()
        with profiler.profile("train"):
            with profiler.profile("train.assemble"):
                pass
        with profiler.shard("assemble", 0, items=5):
            pass
        text = render_profile(profiler.to_dict())
        assert "per-stage resources" in text
        assert "train.assemble" in text
        assert "shard skew" in text
        assert "5 item(s)" in text

    def test_top_limits_rows(self):
        profiler = make_profiler()
        for index in range(6):
            with profiler.profile(f"stage-{index}"):
                pass
        text = render_profile(profiler.to_dict(), top=2)
        assert "top 2 by wall time" in text
        assert sum(line.strip().startswith("stage-") for line in text.splitlines()) == 2

    def test_empty_profile(self):
        assert render_profile({}) == "no profile samples recorded\n"


@pytest.fixture(scope="module")
def profile_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile-corpus")
    assert main(["generate", "--out", str(out), "--count", "16", "--seed", "11"]) == 0
    return out


class TestProfileCli:
    def test_train_profile_end_to_end(self, profile_corpus, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        rc = main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"),
            "--profile", str(profile_path), "--workers", "2", "--no-ledger",
        ])
        assert rc == 0
        doc = load_profile(profile_path)
        assert doc["meta"]["command"] == "train"
        assert doc["meta"]["workers"] == 2
        assert {"train", "train.assemble", "train.infer"} <= set(doc["stages"])
        assert all(s["wall_s"] > 0 for s in doc["stages"].values())
        assert doc["spans"], "profiling implies an in-memory span tree"

        capsys.readouterr()
        assert main(["profile", str(profile_path)]) == 0
        table = capsys.readouterr().out
        assert "per-stage resources" in table
        assert "train.infer" in table

        chrome_path = tmp_path / "trace.json"
        assert main(["profile", str(profile_path),
                     "--format", "chrome", "--out", str(chrome_path)]) == 0
        trace = json.loads(chrome_path.read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "B" in phases and "E" in phases

    def test_profile_json_format(self, profile_corpus, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"),
            "--profile", str(profile_path), "--no-ledger",
        ])
        capsys.readouterr()
        assert main(["profile", str(profile_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "stages" in doc

    def test_profile_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["profile", str(tmp_path / "nope.json")])

    def test_ledger_records_profile_digest(self, profile_corpus, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        rc = main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"),
            "--profile", str(tmp_path / "profile.json"),
            "--ledger", str(ledger_path),
        ])
        assert rc == 0
        entry = json.loads(ledger_path.read_text().splitlines()[-1])
        assert len(entry["profile"]["digest"]) == 64
        assert entry["profile"]["stages"] > 0

    def test_unprofiled_run_leaves_no_profiler(self, profile_corpus, tmp_path):
        rc = main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"), "--no-ledger",
        ])
        assert rc == 0
        assert current().profiler is None
