"""Open-loop load for the serving layer, from one process and one thread.

Requests are due on a fixed schedule whether or not earlier ones have
been answered (independent users), so a slow engine builds a queue.
Each planned batch is handed to ``lookup_batch`` once it is due; a
request's latency runs from its own due time to the end of its batch,
which counts both the batching delay and any wait a stall imposed.

A rung's p99 is the median of the p99s of ten consecutive windows of
its requests, and a growing backlog compares median lateness of the
first and last quarter: on a shared host one stall from outside the
process spoils one window, while an engine that cannot keep up spoils
them all.  The pooled p99 is reported beside it.

Each batch's service is also timed in thread CPU time, and the rung is
replayed as a single-server queue over those service times
(``cpu_latencies``): a batch starts at its dispatch time or when the
previous one finished, whichever is later.  That replay is what the
engine alone would give on an idle host; it cannot see an engine that
blocks without computing, which the wall-clock figures do see.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.batcher import plan_batches

from perfbench.stats import median, percentile

LIMIT_S = 0.025             # latency limit on the p99
BACKLOG_TOLERANCE_S = 0.002  # lateness growth below this is noise, not a queue
MAX_BATCH = 64
MAX_DELAY_S = 0.005
WINDOWS = 10


@dataclass
class RungResult:
    """One rate's open-loop run."""

    rate: float
    sent: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)   # s; inf = failed
    cpu_latencies: List[float] = field(default_factory=list)  # CPU replay
    lateness: List[float] = field(default_factory=list)    # per batch, s
    batch_sizes: List[int] = field(default_factory=list)
    busy_s: float = 0.0
    cpu_s: float = 0.0

    @property
    def growing_backlog(self) -> bool:
        """Median lateness of the last quarter exceeds the first's."""
        q = len(self.lateness) // 4
        return q > 0 and median(self.lateness[-q:]) > \
            median(self.lateness[:q]) + BACKLOG_TOLERANCE_S

    def _window_p99(self, values: List[float]) -> float:
        """Median over consecutive windows of each window's p99.

        Failed requests are infinite latencies, so they miss the limit;
        more than 1% of them fails the p99 whatever window they sit in.
        """
        n = len(values)
        if self.failed * 100 > n:
            return float("inf")
        if n < WINDOWS:
            return percentile(values, 99) if n else float("inf")
        bounds = [n * i // WINDOWS for i in range(WINDOWS + 1)]
        return median([percentile(values[a:b], 99)
                       for a, b in zip(bounds, bounds[1:])])

    @property
    def p99_s(self) -> float:
        return self._window_p99(self.latencies)

    @property
    def cpu_p99_s(self) -> float:
        return self._window_p99(self.cpu_latencies)

    @property
    def pooled_p99_s(self) -> float:
        return percentile(self.latencies, 99) if self.latencies \
            else float("inf")

    @property
    def passed(self) -> bool:
        return self.sent > 0 and self.p99_s <= LIMIT_S \
            and not self.growing_backlog

    def summary(self) -> Dict[str, object]:
        return {"rate": self.rate, "sent": self.sent, "failed": self.failed,
                "p50_ms": median(self.latencies) * 1e3,
                "p99_ms": self.p99_s * 1e3,
                "pooled_p99_ms": self.pooled_p99_s * 1e3,
                "cpu_p99_ms": self.cpu_p99_s * 1e3,
                "growing_backlog": self.growing_backlog,
                "passed": self.passed}


def run_rung(engine, requests: Sequence[Tuple[float, str]], gen_rate: float,
             rate: float,
             check: Callable[[Sequence[str], list], Sequence[int]],
             sleep: Callable[[float], None] = time.sleep,
             cpu_clock: Callable[[], float] = time.thread_time,
             on_batch: Optional[Callable[[int], object]] = None) -> RungResult:
    """Serve ``requests`` (arrivals generated at ``gen_rate``) at ``rate``.

    Arrival times are rescaled by ``gen_rate / rate`` and planned with
    ``plan_batches``.  ``check(names, verdicts)`` returns the positions
    of wrong verdicts; a batch that raises fails all its requests.
    ``on_batch(index)`` may return a context manager entered around each
    dispatch (the traced run opens a request span there).  ``sleep`` and
    ``cpu_clock`` are parameters so tests can drive the loop with fakes.
    """
    scale = gen_rate / rate
    batches = plan_batches(((at * scale, name) for at, name in requests),
                           MAX_BATCH, MAX_DELAY_S)
    result = RungResult(rate=rate)
    answered: List[Tuple[int, Sequence[str], list]] = []
    clock = time.perf_counter
    start = clock() + 0.002
    finished = 0.0                      # CPU replay: when the server frees
    for index, batch in enumerate(batches):
        due = start + batch.dispatch_at
        now = clock()
        if now < due:
            sleep(due - now)
        began = clock()
        cpu_began = cpu_clock()
        try:
            if on_batch is None:
                verdicts = engine.lookup_batch(batch.names,
                                               now=batch.dispatch_at)
            else:
                with on_batch(index):
                    verdicts = engine.lookup_batch(batch.names,
                                                   now=batch.dispatch_at)
        except Exception:  # a failed batch is counted, the load goes on
            verdicts = None
        done = clock()
        service = cpu_clock() - cpu_began
        finished = max(batch.dispatch_at, finished) + service
        result.busy_s += done - began
        result.cpu_s += service
        result.sent += len(batch)
        result.lateness.append(began - due)
        result.batch_sizes.append(len(batch))
        if verdicts is None or len(verdicts) != len(batch):
            result.failed += len(batch)
            result.latencies.extend([float("inf")] * len(batch))
            result.cpu_latencies.extend([float("inf")] * len(batch))
            continue
        answered.append((len(result.latencies), batch.names, verdicts))
        result.latencies.extend(done - (start + at) for at in batch.arrivals)
        result.cpu_latencies.extend(finished - at for at in batch.arrivals)
    for offset, names, verdicts in answered:
        for i in check(names, verdicts):
            result.failed += 1
            result.latencies[offset + i] = float("inf")
            result.cpu_latencies[offset + i] = float("inf")
    return result


def walk_ladder(run: Callable[[float], RungResult], ladder: Sequence[float],
                refine_steps: int) -> Tuple[float, List[RungResult]]:
    """Highest rate meeting the limit without a growing backlog.

    Every ladder rate is run; then the gap between the highest passing
    rate and the next failing one above it is bisected ``refine_steps``
    times, so the answer moves smoothly instead of jumping a whole rung.
    Returns (max rate or 0.0, every rung run in order).
    """
    results = [run(rate) for rate in ladder]
    passing = [r.rate for r in results if r.passed]
    best = max(passing) if passing else 0.0
    above = [r.rate for r in results if not r.passed and r.rate > best]
    if above:
        low, high = best, min(above)
        for _ in range(refine_steps):
            mid = (low + high) / 2.0
            probe = run(mid)
            results.append(probe)
            if probe.passed:
                low = mid
            else:
                high = mid
        best = low
    return best, results
