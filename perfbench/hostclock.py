"""Timings adjusted for the speed of a shared host.

On a VM that shares its cores with other tenants, one training of one
corpus read 3.5 s in one minute and 6.3 s in the next, with CPU time
moving with wall time, in phases of tens of seconds: no statistic taken
inside a 30-second run removes a slow phase that covers most of it.

:func:`timed` therefore samples the host's speed while the
operation runs: an interval timer interrupts it every
``INTERVAL_S`` and runs a fixed piece of pure-Python work (dicts,
strings, sorting, small objects; no code of the program), the probe.
The probes' time is taken out of the operation's wall time, and what is
left is scaled by ``REFERENCE_PROBE_S`` over the probes' mean: the
operation's time on a host that runs the probe in ``REFERENCE_PROBE_S``.
Latencies and rates measured during the operation scale the same way.
Probes timed only before and after a 5-second operation did not track
it; probes interleaved with the work do, because they share its moments.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Seconds one probe takes on the host the adjusted figures refer to
#: (about the median of probes run alone on the 2-vCPU measuring VM in a
#: quiet phase; probes inside an operation read 6 to 8 ms there).
REFERENCE_PROBE_S = 0.004
#: Seconds between probes while an operation runs (a probe costs about
#: 2% of the operation's time).
INTERVAL_S = 0.25

_WORDS = [f"k{(index * 7919) % 5003}" for index in range(6000)]


class _Holder:
    __slots__ = ("word", "size")

    def __init__(self, word: str, size: int) -> None:
        self.word = word
        self.size = size


def probe() -> float:
    """Seconds for one fixed piece of pure-Python work.

    The collector is off while it runs: a collection would traverse the
    caller's heap, and the probe is to measure the host, not the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        groups: dict = {}
        for word in _WORDS:
            groups.setdefault(word[:3], []).append(word.upper())
        ordered = sorted(_WORDS, key=lambda word: word[::-1])
        holders = [_Holder(word, len(word)) for word in ordered[:2000]]
        sum(holder.size for holder in holders)
        "".join(ordered).split("k")
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """``(result, seconds, factor)`` of one call of *fn*.

    *seconds* is the wall time without the probes run inside it;
    *factor* is ``REFERENCE_PROBE_S`` over the probes' mean, so that a
    time taken during the call, times *factor*, is that time on the
    reference host (a rate is divided by it).
    """
    probes: List[float] = [probe()]

    def on_timer(signum, frame) -> None:
        probes.append(probe())

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    seconds = wall - sum(probes[1:])
    probes.append(probe())
    return result, seconds, REFERENCE_PROBE_S / statistics.fmean(probes)
