"""Thread-safe span tracer used by the benchmark's traced run.

A span is one call of a wrapped function.  Each thread keeps its own stack
of open spans, so a span's parent is always the innermost open span of the
thread that made the call: work a worker thread does is never subtracted
from the self time of the main thread that waits for it.  A span's self
time is its duration minus the durations of its direct children.

Spans are aggregated as they close, per thread and name (calls, total
seconds, self seconds), because the engine's drift function is called once
per lockstep step and keeping every span would cost hundreds of MB.

Run this file directly to self-test the bookkeeping on a synthetic call
tree that spans two threads:

    python3 perfbench/tracer.py
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class ThreadRecord:
    """Everything one thread recorded; only that thread writes to it."""

    name: str
    stack: list = field(default_factory=list)        # open spans: [start, child_s]
    stats: dict = field(default_factory=lambda: defaultdict(Stat))
    counts: dict = field(default_factory=lambda: defaultdict(int))   # name -> sum
    root_s: float = 0.0                                # summed root-span time


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[ThreadRecord] = []

    def _record(self) -> ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = ThreadRecord(threading.current_thread().name)
            self._local.rec = rec
            with self._lock:
                self.threads.append(rec)
        return rec

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call is recorded as a span `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._record()
            frame = [time.perf_counter(), 0.0]
            rec.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                rec.stack.pop()
                stat = rec.stats[name]
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[1]
                if rec.stack:
                    rec.stack[-1][1] += dur
                else:
                    rec.root_s += dur

        return traced

    def count(self, name: str, amount: float) -> None:
        self._record().counts[name] += amount

    def merged(self) -> dict:
        """Per-name stats summed over all threads."""
        out = defaultdict(Stat)
        for rec in self.threads:
            for name, s in rec.stats.items():
                m = out[name]
                m.calls += s.calls
                m.total_s += s.total_s
                m.self_s += s.self_s
        return out

    def counts(self) -> dict:
        out = defaultdict(int)
        for rec in self.threads:
            for name, n in rec.counts.items():
                out[name] += n
        return out

    def problems(self) -> list:
        """Bookkeeping violations: negative self time, self sums != root spans."""
        found = []
        for rec in self.threads:
            if rec.stack:
                found.append(f"{rec.name}: {len(rec.stack)} span(s) never closed")
            for name, s in rec.stats.items():
                if s.self_s < -1e-9:
                    found.append(f"{rec.name}: {name} self time {s.self_s:.3g} s < 0")
            self_sum = sum(s.self_s for s in rec.stats.values())
            if abs(self_sum - rec.root_s) > 1e-6 * max(1.0, rec.root_s):
                found.append(f"{rec.name}: self times sum to {self_sum:.6f} s, "
                             f"root spans to {rec.root_s:.6f} s")
        return found


def self_test() -> list:
    """Trace a small call tree over two threads; return the problems found.

    The main thread's root span waits on a worker whose spans overlap it in
    time; those spans must not reduce the main thread's self time.
    """
    tracer = Tracer()
    leaf = tracer.wrap("leaf", time.sleep)

    def middle():
        leaf(0.01)
        leaf(0.01)

    def worker_root():
        middle()
        time.sleep(0.02)

    def main_root():
        middle()
        t = threading.Thread(target=worker_root, name="worker")
        t.start()
        t.join(timeout=10)
        if t.is_alive():
            raise RuntimeError("tracer self-test worker did not finish")

    middle = tracer.wrap("middle", middle)
    worker_root = tracer.wrap("worker_root", worker_root)
    tracer.wrap("main_root", main_root)()
    found = tracer.problems()
    by_thread = {rec.name: rec for rec in tracer.threads}
    if sorted(by_thread) != ["MainThread", "worker"]:
        return found + [f"expected spans on MainThread and worker, got {sorted(by_thread)}"]
    main = by_thread["MainThread"].stats
    # the join waits ~0.04 s of worker time, which must stay main_root self time
    if main["main_root"].self_s < 0.03:
        found.append(f"main_root self time {main['main_root'].self_s:.4f} s lost "
                     "the time spent waiting on the worker")
    for name, calls in (("leaf", 2), ("middle", 1)):
        for rec in by_thread.values():
            if rec.stats[name].calls != calls:
                found.append(f"{rec.name}: {name} called {rec.stats[name].calls}, "
                             f"expected {calls}")
    return found


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(f"FAIL {line}")
    print("tracer self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
