"""Host-speed calibration for wall times measured on a shared machine.

On a small share of a shared host the speed of a core changes by up to
~1.8x within seconds (other tenants contend for the same physical core), so
the raw wall time of a fixed piece of work varies far more between runs than
any change worth detecting.  `Sampler` runs a fixed pure-Python calibration
chunk from a SIGALRM handler every INTERVAL_S while the work runs, so the
chunks see the same host states as the work.  `normalised` then scales the
work's wall time, the chunks' own time taken out, by CHUNK_REF_S over the
chunks' mean duration: the wall time the work would have taken on a host
that runs the chunk in CHUNK_REF_S.

The chunk uses only the interpreter and `math`, and this module imports
nothing else, so it can time the import of `twrelay` and its dependencies.
The chunk touches no state of the measured program (no random generator, no
mpmath precision, no numpy error state); a signal handler runs between
bytecodes of the main thread, never inside a C call.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
# duration of one chunk on the host where the benchmark was defined
# (x86_64, 2 vCPUs, CPython 3.11) in its faster state
CHUNK_REF_S = 0.002


def chunk(n: int = 4000) -> float:
    """Fixed interpreter work: integer and float arithmetic, calls, list and
    dict traffic."""
    acc, table, items = 0.0, {}, []
    for i in range(n):
        x = (i * 2654435761) % 1013
        table[x] = table.get(x, 0) + 1
        items.append(math.sqrt(x + 1.0) * 0.5)
        if len(items) > 32:
            acc += sum(items) / len(items)
            items.clear()
    return acc + len(table)


class Sampler:
    """Context manager: while active, times one chunk every INTERVAL_S;
    `samples` holds the chunk durations."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def normalised(wall: float, samples: list) -> float:
    """Wall time without the chunks, at the reference chunk speed.  With no
    sample (work shorter than one interval) a chunk is timed afterwards."""
    if not samples:
        t0 = time.perf_counter()
        chunk()
        return wall * CHUNK_REF_S / (time.perf_counter() - t0)
    busy = math.fsum(samples)
    return (wall - busy) * CHUNK_REF_S * len(samples) / busy


def timed(fn):
    """(raw wall seconds, normalised seconds, chunk samples, fn's result)
    of one call of fn."""
    with Sampler() as s:
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
    return wall, normalised(wall, s.samples), s.samples, result
