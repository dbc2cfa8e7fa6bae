"""The closed loop every workload shares: one caller runs the workload's
fixed job (a list of operations) again and again, timing each operation
and checking its output outside the timed region.

Host-speed correction. On the shared 2-vCPU hosts this benchmark was
built on, the same code runs at two speeds about 1.7x apart, and a
host stays in one of them for seconds to minutes (bench/README.md,
"Host noise"). Raw run medians therefore spread 25-45% between runs,
more than any regression bound worth having. So every operation is
bracketed by a fixed calibration kernel (benchmark code, never
foldvote), and each latency is scaled by the kernel's reference time
over the mean of the two calibrations around it: the time the operation
would take on this host in its fast state. Raw times are kept alongside.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

# Every run completes at least this many jobs, so the tail percentile is
# fixed per workload (see tail_percentile) and never depends on how many
# jobs a fast or slow run happened to fit in.
MIN_JOBS = 3

@dataclass(frozen=True)
class _Pair:
    first: str
    second: str


# Kernel shapes, each with its time on the host's fast state (only the
# scale of corrected times depends on it). Python-level hashing of
# frozen dataclasses tracks the rules and audit hot paths (rankings are
# dicts keyed by InteractionClass); C-level tuple hashing tracks parsing,
# contact loops and interpreter start-up better. Each workload names its
# kind; bench/README.md has the measurements behind the choice.
KERNELS = {
    # kind: (key type, tables, passes, reference seconds)
    "dataclass": (_Pair, 50, 1, 0.002),
    "tuple": (lambda a, b: (a, b), 100, 2, 0.003),
}


class Calibration:
    """A few milliseconds of dict lookups over a working set of about a
    megabyte, timed before and after every operation."""

    def __init__(self, kind: str):
        make_key, n_tables, self.passes, self.reference = KERNELS[kind]
        rng = random.Random(0)
        self.keys = [make_key(chr(65 + i % 20), chr(65 + i // 20)) for i in range(210)]
        self.tables = []
        for _ in range(n_tables):
            values = list(range(210))
            rng.shuffle(values)
            self.tables.append(dict(zip(self.keys, values)))
        self.probe = self.keys[rng.randrange(210)]

    def seconds(self) -> float:
        t0 = perf_counter()
        wins, probe = 0, self.probe
        for table in self.tables * self.passes:
            p = table[probe]
            for key in self.keys:
                if table[key] < p:
                    wins += 1
        return perf_counter() - t0

    def factor(self, before: float, after: float) -> float:
        """Scale from raw seconds to reference-host seconds. The two host
        states differ by under 2x, so a wider gap is an interrupt landing
        in one calibration: then only the faster one counts."""
        low, high = sorted((before, after))
        return self.reference / (low if high > 2 * low else (low + high) / 2)


@dataclass
class Op:
    label: str
    # run(tracer) -> output; everything it does is timed
    run: Callable[[Any], Any]
    # check(output, tracer) -> None when correct, else the mismatch cause
    check: Callable[[Any, Any], str | None]


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # corrected
    per_op: dict[int, list[float]] = field(default_factory=dict)  # corrected
    jobs: list[float] = field(default_factory=list)  # corrected
    raw_jobs: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    causes: Counter = field(default_factory=Counter)
    # op id -> host-speed factor, to correct that operation's spans too
    factors: dict[str, float] = field(default_factory=dict)


def run_job(ops: list[Op], tracer, tally: Tally, job: int, cal: Calibration) -> None:
    """Run each operation once, bracketed by calibrations; checks run
    after the second calibration and are never timed."""
    total = raw_total = 0.0
    for idx, op in enumerate(ops):
        tracer.op = f"{job}:{idx}"
        before = cal.seconds()
        t0 = perf_counter()
        try:
            out = op.run(tracer)
            cause = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, cause = None, f"error.{type(exc).__name__}"
        dt = perf_counter() - t0
        factor = cal.factor(before, cal.seconds())
        if cause is None:
            cause = op.check(out, tracer)
        tally.factors[tracer.op] = factor
        tally.latencies.append(dt * factor)
        tally.per_op.setdefault(idx, []).append(dt * factor)
        total += dt * factor
        raw_total += dt
        tally.attempted += 1
        if cause is not None:
            tally.failed += 1
            tally.causes[cause] += 1
    tally.jobs.append(total)
    tally.raw_jobs.append(raw_total)


def timed(cal: Calibration, fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """fn's result, its corrected duration and the host-speed factor."""
    before = cal.seconds()
    t0 = perf_counter()
    out = fn()
    dt = perf_counter() - t0
    factor = cal.factor(before, cal.seconds())
    return out, dt * factor, factor


def median(values: list[float]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    rank = p / 100 * (len(s) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def tail_percentile(ops_per_job: int) -> int:
    """Highest whole percentile with at least ten operations beyond it in
    the smallest run (MIN_JOBS jobs)."""
    n = ops_per_job * MIN_JOBS
    return max(50, math.floor(100 * (1 - 10 / n)))
