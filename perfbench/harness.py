"""Shared plumbing of the workloads: timing, checks, run metadata.

A workload is driven in four steps -- generate inputs from the seed,
set up (repeated, median reported), run the timed phase, check the
outputs -- and reports its numbers through a :class:`Outcome`.  Every
failed operation or failed check counts into ``failed``; the error rate
is ``failed / attempted``.

Reported times are rescaled to a reference host speed by
:class:`HostClock`: shared virtual machines change speed by up to ~1.8x
over tens of seconds (on a 2-vCPU VM one fixed computation took 9.5 ms
or 17 ms depending on its neighbours' load), which would swamp any
change worth detecting.  A fixed probe computation, independent of the
program, is timed between units of work, and every time of the run is
divided by the slowdown those probes measured: their mean after
dropping the slowest quarter, which are mostly brief stalls that a
whole unit of work averages away.  The speed flips faster than a unit
lasts, so one probe next to a unit says little about it; the run-level
figure tracks the slow drift that moves whole runs.  On a 2-vCPU VM,
ten seeds of dtpm_sweep run while the host was unsteady spread 0.35
raw (quartile distance over median) and 0.05 rescaled; the medians of
two such sets, one from a slow and one from a fast period, differed
1.7x raw and by at most 14% rescaled.  Raw wall times are kept in the
run record.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Directory (under the checkout) for scratch stores.
WORK_DIR = ".perfbench_work"

#: Directory (under the checkout) for run records and span dumps.
OUT_DIR = ".perfbench_out"


#: Probe duration on the reference host; rescaled times are in seconds
#: of a host that runs one probe in exactly this long.
REFERENCE_S = 0.005

_PROBE_MATRIX = np.random.default_rng(0).random((60, 60))


def _reference_work() -> float:
    """Fixed interpreter and small-array work (the program's mix)."""
    a = _PROBE_MATRIX
    s = 0.0
    for i in range(1000):
        s += float((a @ a[:, i % 60]).sum())
        s += sum(range(50))
    return s


class HostClock:
    """How much slower than the reference host this run executes.

    Call :meth:`tick` between units of work (never during one); the
    run's :attr:`slowdown` is the mean of its probes without the slowest
    quarter.
    """

    #: Reference computations timed per probe.
    SAMPLES = 3

    def __init__(self) -> None:
        self.slowdowns: List[float] = []
        self.tick()

    def tick(self) -> None:
        """Probe the host once (the mean of :attr:`SAMPLES` timings)."""
        total = 0.0
        for _ in range(self.SAMPLES):
            t0 = perf_counter()
            _reference_work()
            total += perf_counter() - t0
        self.slowdowns.append(total / self.SAMPLES / REFERENCE_S)

    @property
    def slowdown(self) -> float:
        kept = sorted(self.slowdowns)[: math.ceil(0.75 * len(self.slowdowns))]
        return statistics.fmean(kept)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (NaN on no samples)."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Checks:
    """Named output checks of one run (each counts as one operation)."""

    results: List[Tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> List[Tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Operations the timed phase attempted, and how many failed.
    attempted: int = 0
    failed: int = 0
    checks: Checks = field(default_factory=Checks)
    #: End-to-end metric values (trace 0) or per-layer values (trace 1).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific named figures printed for people (with units).
    named: List[Tuple[str, float, str]] = field(default_factory=list)
    #: Free-form facts recorded with the run (sizes, counts).
    facts: Dict[str, object] = field(default_factory=dict)

    def note(self, name: str, value: float, unit: str) -> None:
        self.named.append((name, float(value), unit))

    @property
    def total_attempted(self) -> int:
        return self.attempted + len(self.checks.results)

    @property
    def total_failed(self) -> int:
        return self.failed + len(self.checks.failed)

    @property
    def error_rate(self) -> float:
        return self.total_failed / max(1, self.total_attempted)


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------
def git_rev(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref:"):
            return head
        ref = head[4:].strip()
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> Dict[str, object]:
    """What must match before two runs' numbers may be compared."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "implementation": sys.implementation.name,
    }


def min_units_then_deadline(
    seconds: float, min_units: int, step: Callable[[int], None],
    max_units: Optional[int] = None,
) -> int:
    """Run ``step(i)`` until ``seconds`` passed and ``min_units`` ran.

    Returns the number of units run.  ``max_units`` instead runs exactly
    that many (the traced phase replays the untraced unit count).
    """
    t0 = perf_counter()
    i = 0
    while True:
        if max_units is not None:
            if i >= max_units:
                break
        elif i >= min_units and perf_counter() - t0 >= seconds:
            break
        step(i)
        i += 1
    return i
