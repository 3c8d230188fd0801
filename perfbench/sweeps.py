"""Cold experiment grids: ``dtpm_sweep`` and ``fan_chains``.

Both drive :class:`repro.runner.ParallelRunner` into an empty depth-2
on-disk store, one batch-sized chunk of fresh specs per timed unit, and
report simulated seconds per host second.

* ``dtpm_sweep`` runs 30 s (simulated) DTPM runs over synthesized high-
  and medium-intensity workloads with varied thermal constraints and
  guard bands, in process (``workers=1``).  Set-up includes the cold
  model identification into a fresh model store.
* ``fan_chains`` runs 3-position scheduled chains with idle gaps in
  ``with_fan`` / ``without_fan`` mode -- no DTPM at all -- dispatched to
  an in-process loopback :class:`~repro.distributed.worker.WorkerServer`
  through ``ParallelRunner(workers="127.0.0.1:<port>")``.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import SimulationConfig
from repro.distributed.worker import WorkerServer
from repro.runner import (
    DEFAULT_BATCH,
    ParallelRunner,
    ResultCache,
    RunSpec,
    execute_batch,
    model_store,
    result_bytes,
    spec_key,
)
from repro.sim.engine import ThermalMode
from repro.sim.models import ModelBundle
from repro.sim.run_result import RunResult
from repro.workloads.generator import synthesize

from perfbench.harness import (
    HostClock,
    Outcome,
    median,
    min_units_then_deadline,
    percentile,
)

#: Grid parameters cycled per batch slot so every chunk has one mix.
_CONSTRAINTS_C = (58.0, 60.0, 62.0, 64.0)
_GUARD_BANDS_K = (0.0, 0.5, 1.0, 2.0)
_IDLE_GAPS_S = (5.0, 15.0, 30.0, 60.0)
_CATEGORIES = ("low", "medium", "high")

#: Lanes re-executed serially after the timed phase.
_SAMPLE = 3


def _peak_temp_c(result: RunResult) -> float:
    return float(np.max(result.trace.column("true_max_temp_c")))


class _SweepBase:
    """One chunk (= one runner batch) of fresh specs per timed unit."""

    name = ""
    #: Random stream of this workload's inputs (``[seed, stream, chunk]``).
    stream = 0
    #: Chunks whose results feed the deterministic simulated statistics
    #: (the timed loop always runs at least this many).
    min_units = 3

    def __init__(self, seed: int, size: str, work_dir: str,
                 clock: HostClock) -> None:
        self.seed = seed
        self.tiny = size == "tiny"
        self.work_dir = work_dir
        self.clock = clock
        self.batch = DEFAULT_BATCH
        self.models: Optional[ModelBundle] = None
        self._chunks: Dict[int, List[RunSpec]] = {}
        self.phases: Dict[str, dict] = {}
        self.phase: dict = {}
        if self.tiny:
            self.min_units = 1

    # -- inputs ---------------------------------------------------------
    def chunk(self, i: int) -> List[RunSpec]:
        specs = self._chunks.get(i)
        if specs is None:
            rng = np.random.default_rng([self.seed, self.stream, i])
            specs = self._chunks[i] = [
                self._spec(rng, i, slot) for slot in range(self.batch)
            ]
        return specs

    def _spec(self, rng: np.random.Generator, i: int, slot: int) -> RunSpec:
        raise NotImplementedError

    def _workload(self, rng: np.random.Generator, category: str, label: str):
        return synthesize(
            category,
            duration_s=float(rng.uniform(45.0, 90.0)),
            seed=int(rng.integers(2**31)),
            name="pb-%s-%d-%s" % (self.name, self.seed, label),
        )

    def generate(self, outcome: Outcome) -> None:
        """Specs are drawn per chunk on first use (see :meth:`chunk`)."""

    # -- phases ---------------------------------------------------------
    def _runner(self, cache: ResultCache) -> ParallelRunner:
        raise NotImplementedError

    def run_phase(self, label: str, seconds: float,
                  replay: Optional[int]) -> Tuple[int, float]:
        """Timed units; returns (units run, their wall seconds)."""
        self.begin_phase(label)
        units = min_units_then_deadline(
            seconds, self.min_units, self.unit, max_units=replay
        )
        return units, sum(self.phase["unit_s"])

    def begin_phase(self, label: str) -> None:
        root = os.path.join(self.work_dir, label + "-store")
        cache = ResultCache(root=root, fanout=2)
        self.phase = self.phases[label] = {
            "root": root,
            "cache": cache,
            "runner": self._runner(cache),
            "specs": [],
            "results": [],
            "unit_s": [],
            "failed": 0,
        }

    def unit(self, i: int) -> None:
        phase = self.phase
        specs = self.chunk(i)
        t0 = perf_counter()
        try:
            results = phase["runner"].run(specs)
        except Exception:  # noqa: BLE001 - a failed chunk is counted, not fatal
            phase["failed"] += len(specs)
            return
        phase["unit_s"].append(perf_counter() - t0)
        self.clock.tick()
        phase["specs"].extend(specs)
        phase["results"].extend(results)

    def _key(self, spec: RunSpec) -> str:
        return spec_key(spec, self.models if spec.needs_models else None)

    def _simulated_s(self, specs: List[RunSpec], cache: ResultCache) -> float:
        """Control intervals actually simulated, plus the idle gaps.

        Counted from the traces rather than ``execution_time_s``: a
        scenario position's ``execution_time_s`` also includes the idle
        gap before it.
        """
        total = 0.0
        for spec in specs:
            period = (spec.config or SimulationConfig()).control_period_s
            for pos in spec.chain():
                hit = cache.get(self._key(pos))
                total += period * len(hit.trace) if hit is not None else 0.0
            total += spec.idle_gap_s * len(spec.history)
        return total

    # -- reporting ------------------------------------------------------
    def record(self, outcome: Outcome, label: str) -> None:
        phase = self.phases[label]
        outcome.attempted += len(phase["specs"]) + phase["failed"]
        outcome.failed += phase["failed"]

    def end_to_end(self, outcome: Outcome) -> None:
        phase = self.phases["untraced"]
        slowdown = self.clock.slowdown
        unit_s = [t / slowdown for t in phase["unit_s"]]
        simulated = self._simulated_s(phase["specs"], phase["cache"])
        rate = simulated / sum(unit_s)
        # deterministic physics over the fixed first chunks of the grid
        stats = self._stat_results(phase)
        outcome.metrics.update({
            "throughput": rate,
            "latency_p50_ms": 1e3 * median(unit_s),
            "latency_tail_ms": 1e3 * percentile(unit_s, 90),
            "sim_max_temp_c": median(
                [_peak_temp_c(r) for r in stats if len(r.trace)]
            ),
            "sim_power_w": float(
                np.mean([r.average_platform_power_w for r in stats])
            ),
        })
        outcome.note("sim_rate", rate, "sim-s/s")
        outcome.note("batch_p50_ms", 1e3 * median(unit_s), "ms")
        outcome.note("batch_p90_ms", 1e3 * percentile(unit_s, 90), "ms")
        outcome.note("raw_sim_rate", simulated / sum(phase["unit_s"]),
                     "sim-s/s")
        outcome.facts["runs"] = len(phase["specs"])
        outcome.facts["batches"] = len(unit_s)

    def _stat_results(self, phase: dict) -> List[RunResult]:
        out: List[RunResult] = []
        cache = phase["cache"]
        for i in range(self.min_units):
            for spec in self.chunk(i):
                for pos in spec.chain():
                    hit = cache.get(self._key(pos))
                    if hit is not None:
                        out.append(hit)
        return out

    # -- checks ---------------------------------------------------------
    def check(self, outcome: Outcome) -> None:
        checks = outcome.checks
        phase = self.phases["untraced"]
        specs = phase["specs"]
        if not specs:
            checks.add("timed phase produced results", False)
            return
        expected = {self._key(s): result_bytes(r)
                    for s, r in zip(specs, phase["results"])}

        # a warm re-run from disk executes nothing and returns equal bytes
        warm = ParallelRunner(
            workers=1, cache=ResultCache(root=phase["root"]),
            models=self.models, batch=self.batch,
        )
        again = warm.run(specs)
        checks.add(
            "warm re-run executes zero simulations",
            warm.last_stats.executed == 0,
            "%d executed" % warm.last_stats.executed,
        )
        checks.add(
            "warm re-run returns the stored bytes",
            all(result_bytes(r) == expected[self._key(s)]
                for s, r in zip(specs, again)),
        )

        # a seeded sample, re-executed serially outside the timed phase
        rng = np.random.default_rng([self.seed, 99])
        pick = sorted(rng.choice(len(specs), size=min(_SAMPLE, len(specs)),
                                 replace=False).tolist())
        sample = [specs[i] for i in pick]
        stored = ResultCache(root=phase["root"], memory=False)
        serial = execute_batch(sample, models=self.models, batch_size=1)
        checks.add(
            "serial batch_size=1 re-execution matches byte for byte",
            self._chains_match(sample, serial, stored),
        )
        self.extra_checks(outcome, sample, stored)

        traced = self.phases.get("traced")
        if traced is not None:
            checks.add(
                "traced result_bytes equal untraced result_bytes",
                len(traced["specs"]) == len(specs)
                and all(
                    result_bytes(r) == expected.get(self._key(s))
                    for s, r in zip(traced["specs"], traced["results"])
                ),
            )

    def _chains_match(
        self, sample: List[RunSpec], chains: List[List[RunResult]],
        stored: ResultCache,
    ) -> bool:
        for spec, chain in zip(sample, chains):
            for pos, result in zip(spec.chain(), chain):
                hit = stored.get(self._key(pos))
                if hit is None or result_bytes(hit) != result_bytes(result):
                    return False
        return True

    def extra_checks(
        self, outcome: Outcome, sample: List[RunSpec], stored: ResultCache
    ) -> None:
        pass

    def close(self) -> None:
        pass


class DtpmSweep(_SweepBase):
    name = "dtpm_sweep"
    stream = 1
    #: Cold identifications per run; setup_s reports their median.
    setup_repeats = 2

    def __init__(self, seed: int, size: str, work_dir: str,
                 clock: HostClock) -> None:
        super().__init__(seed, size, work_dir, clock)
        self.duration_s = 3.0 if self.tiny else 30.0
        # a short PRBS campaign keeps the smoke size quick; full runs
        # identify with the library defaults
        self.ident = {"prbs_duration_s": 60.0} if self.tiny else {}
        if self.tiny:
            self.setup_repeats = 1
        self._setups = 0

    def _spec(self, rng: np.random.Generator, i: int, slot: int) -> RunSpec:
        category = "high" if slot % 2 == 0 else "medium"
        return RunSpec(
            workload=self._workload(rng, category, "%d-%d" % (i, slot)),
            mode=ThermalMode.DTPM,
            config=SimulationConfig(
                t_constraint_c=_CONSTRAINTS_C[(slot // 2) % 4]
            ),
            guard_band_k=_GUARD_BANDS_K[(slot + i) % 4],
            max_duration_s=self.duration_s,
            seed=int(rng.integers(2**30)),
        )

    def setup(self, rep: int) -> None:
        """Cold identification into a fresh model store."""
        self._setups += 1
        root = os.path.join(self.work_dir, "models-%d" % self._setups)
        self.models = model_store.cached_build_models(root=root, **self.ident)

    def _runner(self, cache: ResultCache) -> ParallelRunner:
        return ParallelRunner(
            workers=1, cache=cache, models=self.models, batch=self.batch
        )


class FanChains(_SweepBase):
    name = "fan_chains"
    stream = 2
    setup_repeats = 3

    def __init__(self, seed: int, size: str, work_dir: str,
                 clock: HostClock) -> None:
        super().__init__(seed, size, work_dir, clock)
        self.duration_s = 2.0 if self.tiny else 20.0
        self.gap_scale = 0.05 if self.tiny else 1.0
        self.server: Optional[WorkerServer] = None

    def _spec(self, rng: np.random.Generator, i: int, slot: int) -> RunSpec:
        workloads = [
            self._workload(
                rng, _CATEGORIES[(slot + p) % 3], "%d-%d-%d" % (i, slot, p)
            )
            for p in range(3)
        ]
        return RunSpec(
            workload=workloads[-1],
            history=tuple(workloads[:-1]),
            mode=(
                ThermalMode.DEFAULT_WITH_FAN
                if slot % 2 == 0
                else ThermalMode.NO_FAN
            ),
            idle_gap_s=self.gap_scale * _IDLE_GAPS_S[(slot // 2) % 4],
            max_duration_s=self.duration_s,
            seed=int(rng.integers(2**30)),
        )

    def setup(self, rep: int) -> None:
        """Start the loopback worker (replacing an earlier one)."""
        self.close()
        self.server = WorkerServer(host="127.0.0.1", port=0).start()

    def _runner(self, cache: ResultCache) -> ParallelRunner:
        assert self.server is not None
        return ParallelRunner(
            workers=self.server.endpoint, cache=cache, batch=self.batch
        )

    def extra_checks(
        self, outcome: Outcome, sample: List[RunSpec], stored: ResultCache
    ) -> None:
        local = execute_batch(sample, batch_size=len(sample))
        outcome.checks.add(
            "loopback worker results equal an in-process batched run",
            self._chains_match(sample, local, stored),
        )

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
