"""Spans around each layer's public entry points, installed from outside.

:class:`SpanRecorder` wraps a fixed list of public functions and methods
(see ``_layers``) so every call records a span: name, start, end,
parent span and the run id shared by the whole run.  Nothing under
``src/`` knows about it; :meth:`SpanRecorder.install` patches the
attributes callers look up and :meth:`SpanRecorder.uninstall` restores
them, so one process can alternate traced and untraced measurements.

The recorder keeps one span stack, so traced work must run on one
thread.  Calls made inside pool workers are not seen; the workloads
time those layers on an in-process pass instead (see ``README.md``).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List


def _len_result(args, result):
    return len(result)


def _len_arg(args, result):
    return len(args[0])


def _inference_counts(args, result):
    return (result.candidate_pairs, len(result.rules))


def _layers():
    """``(owner, attribute, span name, measure)`` for every traced layer."""
    from repro.core import augment, assembler, detector, inference, report, types
    from repro.engine import batch, cache, codec
    from repro.obs import model
    from repro.parsers import registry
    from repro.sysmodel import snapshot

    return [
        (registry.ParserRegistry, "parse", "parsers.parse", _len_result),
        (types.TypeInferencer, "infer", "types.infer", None),
        (augment.Augmenter, "environment_attributes", "augment.env", None),
        (assembler.DataAssembler, "assemble", "assembler.assemble", None),
        (inference.RuleInferencer, "infer", "inference.infer", _inference_counts),
        (detector.AnomalyDetector, "detect", "detector.detect", _len_result),
        (model.DriftMonitor, "observe", "drift.observe", None),
        (report.Report, "to_dict", "report.to_dict", None),
        (snapshot, "image_from_dict", "snapshot.image_from_dict", None),
        (codec, "encode", "codec.encode", _len_result),
        (codec, "decode", "codec.decode", _len_arg),
        (cache.ResultCache, "lookup", "cache.lookup", None),
        (cache.ResultCache, "store", "cache.store", None),
        (batch.BatchChecker, "stream", "batch.stream", None),
    ]


def new_layer() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "measures": []}


def merge_layers(items) -> Dict[str, dict]:
    """Sum several :meth:`SpanRecorder.layers` results."""
    out: Dict[str, dict] = defaultdict(new_layer)
    for layers in items:
        for name, entry in layers.items():
            mine = out[name]
            mine["calls"] += entry["calls"]
            mine["total_s"] += entry["total_s"]
            mine["self_s"] += entry["self_s"]
            mine["measures"].extend(entry["measures"])
    return out


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent, measure]``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, measure) -> Callable:
        recorder = self

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: time spent suspended at ``yield``
            # belongs to the consumer, not to this layer.
            @functools.wraps(fn)
            def generator_shim(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = recorder.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(index)
                    yield item

            return generator_shim

        skip = 1 if _is_method(fn) else 0

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if measure is not None:
                recorder.spans[index][4] = measure(args[skip:], result)
            return result

        return shim

    def install(self) -> "SpanRecorder":
        for owner, attribute, name, measure in _layers():
            raw = inspect.getattr_static(owner, attribute)
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(name, raw.__func__, measure))
            else:
                patched = self._wrap(name, raw, measure)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, patched)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    # -- analysis --------------------------------------------------------------

    def layers(self, since: int = 0) -> Dict[str, dict]:
        """Per span name: calls, total and self seconds, measures.

        Only spans recorded from index *since* on are counted.  A span's
        self time is its duration minus the durations of its children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[since:]:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, dict] = defaultdict(new_layer)
        for index in range(since, len(self.spans)):
            name, start, end, _parent, measure = self.spans[index]
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            if measure is not None:
                entry["measures"].append(measure)
        return out

    def write(self, path: Path) -> Path:
        """Write every span as ``[name, start, end, parent]`` with the run id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "run_id": self.run_id,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[s[0], round(s[1], 7), round(s[2], 7), s[3]] for s in self.spans],
        }
        path.write_text(json.dumps(document, separators=(",", ":")))
        return path


def _is_method(fn: Callable) -> bool:
    params = list(inspect.signature(fn).parameters)
    return bool(params) and params[0] == "self"

