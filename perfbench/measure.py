"""Measurement helpers: CPU accounting, percentiles, spans and lookup
bookkeeping. Nothing here imports the program under test."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

# /proc/stat cpu line: user nice system idle iowait irq softirq steal
_BUSY = (0, 1, 2, 5, 6)
_IDLE = (3, 4)
_STEAL = 7


def read_proc_stat(path: str = "/proc/stat") -> tuple[int, ...]:
    """Aggregate cpu jiffies (user..steal) of the whole VM."""
    with open(path, encoding="ascii") as fh:
        fields = fh.readline().split()
    if not fields or fields[0] != "cpu":
        raise ValueError(f"unexpected first line in {path}: {fields[:1]}")
    return tuple(int(x) for x in fields[1:9])


@dataclass
class CpuDelta:
    """Jiffy deltas between two /proc/stat samples."""

    busy: int
    idle: int
    steal: int

    @property
    def total(self) -> int:
        return self.busy + self.idle + self.steal

    def busy_s(self, hz: int = 100) -> float:
        return self.busy / hz

    def share(self, part: int) -> float:
        return part / self.total if self.total else 0.0


def cpu_delta(s0: tuple[int, ...], s1: tuple[int, ...]) -> CpuDelta:
    d = [b - a for a, b in zip(s0, s1)]
    if any(x < 0 for x in d):
        raise ValueError("/proc/stat counters went backwards")
    return CpuDelta(
        busy=sum(d[i] for i in _BUSY),
        idle=sum(d[i] for i in _IDLE),
        steal=d[_STEAL],
    )


def highest_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> float:
    """The highest candidate percentile with at least ten samples beyond
    it in a sample of ``n`` (p99 needs 1,000, p90 needs 100); 50 when
    even the median has fewer than ten above it."""
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_query_medians(by_query: dict[str, list[float]], min_repeats: int = 1) -> list[float]:
    """Each query's median over its timed repeats, for queries timed at
    least ``min_repeats`` times. Latency percentiles are taken over
    these, so a percentile ranks queries by their typical cost rather
    than single ops by the host's jitter (one query's CPU time moves by
    up to 1.6x between back-to-back repeats on a shared 4-vCPU VM)."""
    return [statistics.median(v) for v in by_query.values() if v and len(v) >= min_repeats]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    cpu0: float = 0.0  # process CPU seconds
    cpu1: float = 0.0
    busy0: tuple[int, ...] | None = None  # /proc/stat, pipeline spans only
    busy1: tuple[int, ...] | None = None
    counts: dict[str, float] = field(default_factory=dict)
    kids: list[int] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu1 - self.cpu0

    @property
    def busy_cpu(self) -> float:
        if self.busy0 is None or self.busy1 is None:
            return 0.0
        return cpu_delta(self.busy0, self.busy1).busy_s()


class Tracer:
    """In-memory span recorder. Spans nest through a stack: the open
    span on top is the parent of the next one. ``request`` groups the
    spans of one client operation."""

    def __init__(self, vm_cpu_names: frozenset[str] = frozenset()):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: int | None = None
        self._vm_cpu_names = vm_cpu_names

    def open(self, name: str) -> int:
        sp = Span(
            name=name,
            start=time.perf_counter(),
            parent=self._stack[-1] if self._stack else None,
            request=self.request,
            cpu0=time.process_time(),
        )
        if name in self._vm_cpu_names:
            sp.busy0 = read_proc_stat()
        idx = len(self.spans)
        self.spans.append(sp)
        if sp.parent is not None:
            self.spans[sp.parent].kids.append(idx)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        sp = self.spans[idx]
        if sp.busy0 is not None:
            sp.busy1 = read_proc_stat()
        sp.cpu1 = time.process_time()
        sp.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {sp.name} closed out of order")
        return sp


def self_time(spans: list[Span], idx: int, attr: str = "wall") -> float:
    """A span's ``attr`` (wall, cpu or busy_cpu) minus what its direct
    children cover. Children run on the same thread inside the parent,
    so their intervals are disjoint and their sum is the covered part."""
    own = getattr(spans[idx], attr)
    kids = sum(getattr(spans[k], attr) for k in spans[idx].kids)
    return max(0.0, own - kids)


class LookupBook:
    """Row-cache miss bookkeeping seen from outside the searcher: a term
    misses the first time it reaches ``lookup`` on a searcher and hits
    afterwards (the cache holds 50k terms, more than any run asks)."""

    def __init__(self):
        self._seen: set[str] = set()

    def record(self, terms) -> int:
        """Number of ``terms`` not seen before; all are seen afterwards."""
        fresh = {t for t in terms if t not in self._seen}
        self._seen |= fresh
        return sum(1 for t in terms if t in fresh)


class Calibrator:
    """A fixed, program-independent CPU kernel (pure-Python integer work
    plus a float sort), timed in process CPU ms. The host is a shared VM
    whose CPU speed drifts within seconds; probing it next to the
    measured work tells host drift from a code change."""

    def __init__(self, n: int = 60_000):
        import random

        rng = random.Random(12345)
        self._xs = [rng.random() for _ in range(n)]

    def probe_ms(self) -> float:
        t0 = time.process_time()
        acc = 0
        for i in range(len(self._xs)):
            acc = (acc * 31 + i) % 1_000_003
        sorted(self._xs)
        return (time.process_time() - t0) * 1000.0
