"""The serve daemon as a subprocess, and the load that drives it.

The daemon (``python -m repro serve --cache --no-ledger``) runs in its
own process, so the generator's threads never share its interpreter
lock.  The open loop sends on a fixed due-time schedule from at most
two sender threads and times each request from when it was *due*, so a
stall also charges the requests queued behind it; lateness of the
sender itself is recorded separately.  Latency quantiles are taken from
the raw samples.  Response bodies are kept and checked after the phase,
so verification never delays a send.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 30.0
SENDERS = min(2, os.cpu_count() or 1)


class Daemon:
    """One ``repro serve`` subprocess, stopped and reaped by :meth:`stop`."""

    def __init__(self, root: Path, snapshot: Path, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        env["PYTHONUNBUFFERED"] = "1"
        cache = workdir / "serve-cache"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "-q",
             "--snapshot", str(snapshot), "--port", "0",
             "--cache", str(cache), "--no-ledger"],
            cwd=str(workdir), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = self.process.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"serve did not report its port: {line!r}")
            self.port = int(match.group(1))
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("serve exited before /readyz")
            try:
                status, _ = self.get("/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("serve not ready in time")

    def get(self, path: str):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> str:
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        return body.decode()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class Phase:
    """What one load phase sent and got back."""

    latencies_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    #: ``(target index, status, body)`` for every completed request.
    responses: List[tuple] = field(default_factory=list)
    errors: int = 0
    elapsed_s: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.responses) + self.errors

    @property
    def shed(self) -> int:
        return sum(1 for _, status, _ in self.responses if status == 429)

    def summary(self) -> str:
        succeeded = sum(1 for _, status, _ in self.responses if status == 200)
        return (f"sent={self.sent} succeeded={succeeded} "
                f"failed={self.sent - succeeded} shed={self.shed}")


class _Sender:
    def __init__(self, port: int) -> None:
        self.port = port
        self.connection: Optional[http.client.HTTPConnection] = None

    def post(self, body: bytes):
        if self.connection is None:
            self.connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        try:
            self.connection.request(
                "POST", "/v1/check", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def open_loop(port: int, bodies: Sequence[bytes], rate: float,
              duration_s: float) -> Phase:
    """Send ``rate * duration_s`` requests on a fixed schedule.

    Request *k* is due at ``start + k / rate`` and carries target
    ``k % len(bodies)``.  Free senders take the next due
    request; when both are busy the schedule runs late and the latency
    (measured from the due time) grows.
    """
    total = max(1, int(rate * duration_s))
    phase = Phase()
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def run() -> None:
        sender = _Sender(port)
        try:
            while True:
                with lock:
                    k = cursor[0]
                    cursor[0] += 1
                if k >= total:
                    return
                due = start + k / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent_at = time.perf_counter()
                target = k % len(bodies)
                try:
                    status, body = sender.post(bodies[target])
                except (OSError, http.client.HTTPException):
                    with lock:
                        phase.errors += 1
                    continue
                done = time.perf_counter()
                with lock:
                    phase.latencies_s.append(done - due)
                    phase.late_s.append(sent_at - due)
                    phase.responses.append((target, status, body))
        finally:
            sender.close()

    _run_threads(run, SENDERS)
    phase.elapsed_s = time.perf_counter() - start
    return phase


def closed_loop(port: int, bodies: Sequence[bytes], duration_s: float,
                connections: int = 2) -> Phase:
    """*connections* clients, each sending its next request on a reply."""
    phase = Phase()
    lock = threading.Lock()
    offsets = iter(range(connections))
    start = time.perf_counter()
    deadline = start + duration_s

    def run() -> None:
        sender = _Sender(port)
        with lock:
            k = next(offsets)
        try:
            while time.perf_counter() < deadline:
                target = k % len(bodies)
                k += connections
                sent_at = time.perf_counter()
                try:
                    status, body = sender.post(bodies[target])
                except (OSError, http.client.HTTPException):
                    with lock:
                        phase.errors += 1
                    continue
                with lock:
                    phase.latencies_s.append(time.perf_counter() - sent_at)
                    phase.responses.append((target, status, body))
        finally:
            sender.close()

    _run_threads(run, connections)
    phase.elapsed_s = time.perf_counter() - start
    return phase


def one_pass(port: int, bodies: Sequence[bytes]) -> Phase:
    """One request per target, in order, on one connection."""
    phase = Phase()
    sender = _Sender(port)
    try:
        for target, body in enumerate(bodies):
            try:
                status, reply = sender.post(body)
            except (OSError, http.client.HTTPException):
                phase.errors += 1
                continue
            phase.responses.append((target, status, reply))
    finally:
        sender.close()
    return phase


def _run_threads(fn, count: int) -> None:
    threads = [threading.Thread(target=fn) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class QueuePoller:
    """Samples the daemon's ``serve.queue.depth`` gauge while running."""

    def __init__(self, daemon: Daemon, interval_s: float = 0.25) -> None:
        self.daemon = daemon
        self.interval_s = interval_s
        self.depths: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run)

    def __enter__(self) -> "QueuePoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            scrape = parse_metrics(self.daemon.metrics())
            self.depths.append(scrape.get("serve_queue_depth", 0.0))


_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> Dict[str, float]:
    """Flatten a Prometheus exposition into ``name{labels} -> value``.

    Unlabelled series are keyed by bare name.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            out[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return out
