"""Tests for per-stage resource profiling (repro.obs.profile)."""

import json
import os
import tracemalloc
from itertools import permutations

import pytest

from repro.cli import main
from repro.core.pipeline import EnCore
from repro.corpus.generator import Ec2CorpusGenerator
from repro.engine import codec
from repro.obs import profile
from repro.obs.ledger import fingerprint_payload
from repro.obs.profile import (
    COORDINATOR_PID,
    SHARD_PID_BASE,
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


@pytest.fixture
def fake_resources(monkeypatch):
    """Every span costs 0.25 CPU seconds and sees a 4 MiB RSS peak."""
    monkeypatch.setattr(profile, "process_cpu_seconds", FakeClock(0.25))
    monkeypatch.setattr(profile, "max_rss_bytes", lambda: 4 << 20)


def make_profiler(step=1.0, **kwargs):
    return StageProfiler(clock=FakeClock(step), **kwargs)


def wire(name, dur, ts=0.0, **attributes):
    """A wire-form span, as a worker snapshot carries it."""
    node = {"name": name, "ts": ts, "dur": dur}
    if attributes:
        node["attributes"] = attributes
    return node


def remote(shard, *roots, anchor=None, pid=4242):
    """A worker span snapshot (``Tracer.snapshot`` shape)."""
    return {
        "trace_id": "1111111111111111", "parent_id": "", "shard": shard,
        "pid": pid, "anchor": anchor or {"epoch": 1000.0, "clock": 10.0},
        "spans": list(roots),
    }


def fold(*snapshots):
    """The profile document of a coordinator that adopted *snapshots*."""
    tracer = Tracer()
    for snapshot in snapshots:
        tracer.merge_remote(snapshot)
    return profile_document(tracer)


def worker_snapshot(shard, step=1.0, items=2, context=None):
    """What a profiled shard ships back: one ``assemble.shard`` root."""
    worker = make_profiler(step, context=context, seed=f"shard{shard}")
    with worker.span("assemble.shard", shard=shard, items=items):
        with worker.span("assemble.image"):
            pass
    return Telemetry(tracer=worker).snapshot(shard=shard, pid=os.getpid())


class TestStageProfile:
    """The per-stage fold: spans folded by name into the ``stages`` rows."""

    def test_record_accumulates(self):
        doc = fold(remote(
            0,
            wire("assemble.image", 1.0, cpu_s=0.5, max_rss_bytes=100,
                 alloc_peak_bytes=10),
            wire("assemble.image", 2.0, cpu_s=0.5, max_rss_bytes=50,
                 alloc_peak_bytes=30),
        ))
        assert doc["stages"]["assemble.image"] == {
            "wall_s": 3.0, "cpu_s": 1.0, "calls": 2,
            "max_rss_bytes": 100,  # max, not sum
            "alloc_peak_bytes": 30,
        }

    def test_merge_is_associative(self):
        def part(shard, wall, rss):
            return remote(shard, wire("infer", wall, cpu_s=wall / 2,
                                      max_rss_bytes=rss, alloc_peak_bytes=rss))

        parts = [part(0, 1.0, 10), part(1, 2.0, 30), part(2, 4.0, 20)]
        folds = [fold(*order)["stages"] for order in permutations(parts)]
        assert all(stages == folds[0] for stages in folds)
        assert folds[0]["infer"] == {
            "wall_s": 7.0, "cpu_s": 3.5, "calls": 3,
            "max_rss_bytes": 30, "alloc_peak_bytes": 30,
        }

    def test_dict_round_trip(self, fake_resources):
        """Resource attributes cross the ENCB hop inside ``spans``."""
        snapshot = worker_snapshot(0)
        assert set(snapshot) == {"metrics", "spans"}
        decoded = codec.decode(codec.encode(snapshot))
        coordinator = Tracer()
        Telemetry(tracer=coordinator).merge(decoded)
        assert profile_document(coordinator)["stages"] == fold(snapshot["spans"])["stages"]
        shard_root = decoded["spans"]["spans"][0]
        assert shard_root["attributes"]["cpu_s"] == pytest.approx(0.75)
        assert shard_root["attributes"]["max_rss_bytes"] == 4 << 20

    def test_from_dict_tolerates_missing_fields(self):
        """A plain tracer's spans fold with zero resource columns."""
        doc = fold(remote(0, wire("check.shard", 2.0, shard=0)))
        assert doc["stages"]["check.shard"] == {
            "wall_s": 2.0, "cpu_s": 0.0, "calls": 1,
            "max_rss_bytes": 0, "alloc_peak_bytes": 0,
        }
        (row,) = doc["shards"]
        assert row["items"] == 0 and row["cpu_s"] == 0.0


class TestStageProfiler:
    def test_profile_records_wall_and_cpu(self, fake_resources):
        profiler = make_profiler(step=1.0)
        with profiler.span("assemble") as opened:
            pass
        assert opened.attributes == {"cpu_s": 0.25, "max_rss_bytes": 4 << 20}
        stage = profile_document(profiler)["stages"]["assemble"]
        assert stage["calls"] == 1
        assert stage["wall_s"] == pytest.approx(1.0)
        assert stage["cpu_s"] == pytest.approx(0.25)

    def test_nested_stages_record_separately(self, fake_resources):
        profiler = make_profiler()
        with profiler.span("train"):
            with profiler.span("train.assemble"):
                pass
        stages = profile_document(profiler)["stages"]
        assert set(stages) == {"train", "train.assemble"}
        assert stages["train"]["wall_s"] > stages["train.assemble"]["wall_s"]
        assert stages["train"]["cpu_s"] > stages["train.assemble"]["cpu_s"]

    def test_shard_sample_fields(self):
        doc = fold(remote(
            3,
            wire("assemble.shard", 1.5, ts=12.0, shard=3, items=7, cpu_s=0.5,
                 max_rss_bytes=2048, alloc_peak_bytes=512),
            wire("assemble.image", 0.5, ts=14.0),
            anchor={"epoch": 1000.0, "clock": 10.0}, pid=77,
        ))
        # Only <kind>.shard roots become shard rows.
        (row,) = doc["shards"]
        assert row == {
            "stage": "assemble", "shard": 3, "pid": 77, "items": 7,
            "wall_s": 1.5, "cpu_s": 0.5, "max_rss_bytes": 2048,
            "alloc_peak_bytes": 512,
            # the worker's clock 12.0 is epoch 1002.0 through its anchor
            "epoch_start": 1002.0, "epoch_end": 1003.5,
        }

    def test_merge_dict_folds_stages_and_concatenates_shards(self, fake_resources):
        coordinator = make_profiler()
        with coordinator.span("assemble.image"):
            pass
        coordinator.merge_remote(worker_snapshot(0)["spans"])
        doc = profile_document(coordinator, command="train")
        assert doc["stages"]["assemble.image"]["calls"] == 2
        assert doc["stages"]["assemble.shard"]["calls"] == 1
        assert [(s["stage"], s["shard"], s["items"]) for s in doc["shards"]] == [
            ("assemble", 0, 2),
        ]
        # The worker's pid/anchor never overwrite the coordinator's.
        assert doc["meta"] == {"pid": os.getpid(), "command": "train"}
        assert doc["anchor"] == coordinator.anchor

    def test_merge_order_independent(self, fake_resources):
        snapshots = [worker_snapshot(index, step=float(index + 1), items=index)
                     for index in range(3)]
        forward, backward = make_profiler(), make_profiler()
        for snap in snapshots:
            forward.merge_remote(snap["spans"])
        for snap in reversed(snapshots):
            backward.merge_remote(snap["spans"])
        forward_doc = profile_document(forward)
        backward_doc = profile_document(backward)
        assert forward_doc["stages"] == backward_doc["stages"]
        assert forward_doc["shards"] == backward_doc["shards"]
        assert [s["shard"] for s in forward_doc["shards"]] == [0, 1, 2]
        assert forward_doc["stages"]["assemble.shard"]["wall_s"] == pytest.approx(
            3 * 1.0 + 3 * 2.0 + 3 * 3.0
        )

    def test_digest_deterministic_and_content_sensitive(self, fake_resources):
        """The ledger digest of identical runs agrees; a new stage moves it."""

        def digest(profiler):
            doc = profile_document(profiler)
            return fingerprint_payload({"stages": doc["stages"],
                                        "shards": doc["shards"]})

        a, b = make_profiler(), make_profiler()
        with a.span("x"):
            pass
        with b.span("x"):
            pass
        assert digest(a) == digest(b)
        with b.span("y"):
            pass
        assert digest(a) != digest(b)

    def test_tracemalloc_peak_recorded(self):
        assert not tracemalloc.is_tracing()
        profiler = StageProfiler().start()
        try:
            with profiler.span("alloc") as opened:
                blob = [bytes(64 * 1024) for _ in range(16)]  # ~1 MB
            assert blob
            assert opened.attributes["alloc_peak_bytes"] > 256 * 1024
            stage = profile_document(profiler)["stages"]["alloc"]
            assert stage["alloc_peak_bytes"] > 256 * 1024
            # A nested span never resets the peak its parent measures.
            with profiler.span("outer") as outer:
                with profiler.span("inner"):
                    blob = [bytes(64 * 1024) for _ in range(16)]
                del blob
                with profiler.span("inner"):
                    pass
            assert outer.attributes["alloc_peak_bytes"] > 512 * 1024
        finally:
            profiler.stop()
        assert not tracemalloc.is_tracing()
        # Outside start()/stop() no allocation peak is recorded.
        with profiler.span("untraced") as opened:
            pass
        assert "alloc_peak_bytes" not in opened.attributes
        assert "cpu_s" in opened.attributes

    def test_installed_profiler_taps_span_boundary(self, fake_resources):
        profiler = make_profiler()
        with scope(tracer=profiler), span("infer"):
            pass
        (root,) = profiler.roots
        assert root.attributes["cpu_s"] == pytest.approx(0.25)
        stage = profile_document(profiler)["stages"]["infer"]
        assert stage["calls"] == 1
        assert stage["wall_s"] == pytest.approx(1.0)

    def test_span_error_still_records_and_annotates(self, fake_resources):
        profiler = make_profiler()
        with pytest.raises(RuntimeError):
            with scope(tracer=profiler), span("detect"):
                raise RuntimeError("boom")
        (root,) = profiler.roots
        assert root.end is not None  # closed despite the raise
        assert root.attributes["error"] == "RuntimeError"
        assert root.attributes["cpu_s"] == pytest.approx(0.25)
        assert profile_document(profiler)["stages"]["detect"]["calls"] == 1

    def test_merge_snapshot_noop_without_active_profiler(self, fake_resources):
        telemetry = Telemetry()
        telemetry.merge(worker_snapshot(0))  # nothing to fold into
        assert telemetry.tracer is None
        assert telemetry.registry.names() == []

    def test_merge_snapshot_folds_into_active(self, fake_resources):
        coordinator = make_profiler()
        Telemetry(tracer=coordinator).merge(worker_snapshot(0))
        doc = profile_document(coordinator)
        assert doc["stages"]["assemble.image"]["calls"] == 1
        assert len(doc["shards"]) == 1

    def test_spec_asks_workers_for_a_profiler(self):
        profiler = make_profiler()
        spec = Telemetry(tracer=profiler).spec()
        assert spec["profile"] is True
        assert "profile" not in Telemetry(tracer=Tracer()).spec()
        worker = Telemetry.from_spec(spec, seed="shard0")
        try:
            assert isinstance(worker.tracer, StageProfiler)
            assert worker.tracer.trace_id == profiler.trace_id
        finally:
            worker.tracer.stop()
        assert type(Telemetry.from_spec({"trace": spec["trace"]}).tracer) is Tracer


class TestTrainProfileParity:
    """Serial and sharded --profile runs agree on the deterministic surface."""

    @pytest.fixture(scope="class")
    def images(self):
        return Ec2CorpusGenerator(seed=53).generate(20)

    def profiled_train(self, images, workers):
        profiler = StageProfiler()
        with scope(tracer=profiler):
            model = EnCore().train(images, workers=workers)
        return model, profile_document(profiler)

    def test_stage_coverage_and_calls_match_serial(self, images):
        serial_model, serial = self.profiled_train(images, workers=1)
        sharded_model, sharded = self.profiled_train(images, workers=2)
        assert serial_model.rules.to_json() == sharded_model.rules.to_json()
        # Stages common to both paths appear in both profiles with
        # identical call counts; wall time legitimately differs.
        common = set(serial["stages"]) & set(sharded["stages"])
        assert {"train", "train.assemble", "train.infer", "infer"} <= common
        for name in common:
            assert serial["stages"][name]["calls"] == sharded["stages"][name]["calls"], name
            assert sharded["stages"][name]["wall_s"] > 0
        shards = sharded["shards"]
        if shards:  # empty ⇒ pool unavailable, serial fallback
            assert sum(s["items"] for s in shards) == len(images)
            assert {s["stage"] for s in shards} == {"assemble"}
            assert sharded["stages"]["assemble.shard"]["calls"] == len(shards)
            assert all(s["max_rss_bytes"] > 0 for s in shards)
        assert not serial["shards"]


class TestChromeTrace:
    def make_doc(self):
        profiler = make_profiler()
        with scope(tracer=profiler):
            with span("train"):
                with span("train.assemble", images=4):
                    context = profiler.propagated_context()
                    for shard in (0, 1):
                        profiler.merge_remote(
                            worker_snapshot(shard, context=context)["spans"]
                        )
                with span("train.infer"):
                    pass
        return profile_document(profiler, command="train")

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
        with profiler.span("train"):
            with profiler.span("train.assemble"):
                pass
        profiler.merge_remote(worker_snapshot(0, items=5)["spans"])
        text = render_profile(profile_document(profiler))
        assert "per-stage resources" in text
        assert "train.assemble" in text
        assert "shard skew" in text
        assert "5 item(s)" in text

    def test_top_limits_rows(self):
        profiler = make_profiler()
        for index in range(6):
            with profiler.span(f"stage-{index}"):
                pass
        stages = profile_document(profiler)["stages"]
        text = render_profile({"stages": stages}, top=2)
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
        shards = doc["shards"]
        if shards:  # empty ⇒ pool unavailable, serial fallback
            assert sum(s["items"] for s in shards) == 16
            assert doc["stages"]["assemble.shard"]["calls"] == len(shards)
            assert all(s["max_rss_bytes"] > 0 for s in shards)
            assert all(s["pid"] > 0 for s in shards)

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

    def test_trace_file_carries_resource_attributes(self, profile_corpus, tmp_path):
        trace_path = tmp_path / "trace.json"
        rc = main([
            "train", "--training", str(profile_corpus),
            "--model", str(tmp_path / "model.json"), "--no-ledger",
            "--profile", str(tmp_path / "profile.json"),
            "--trace", str(trace_path),
        ])
        assert rc == 0
        (root,) = json.loads(trace_path.read_text())["spans"]
        assert root["name"] == "train"
        assert {"cpu_s", "max_rss_bytes", "alloc_peak_bytes"} <= set(root["attributes"])

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
        assert current().tracer is None
