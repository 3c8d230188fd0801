"""Back-to-back benchmark scenarios on one (warm) device.

The paper's measurements come from a board that had been running Android
and previous benchmarks -- its traces start well above ambient.  This
module makes that explicit: a :class:`ScenarioRunner` executes a sequence
of workloads on a *single* platform instance, so each run inherits the
thermal state the previous one left behind, with an optional idle gap in
between (the phone sitting in a pocket between apps).

Scenario chains ride the vectorised plant: a :class:`BatchScenarioRunner`
lock-steps ``B`` schedules position by position -- every lane's run at
position ``i`` advances through one :class:`~repro.sim.engine.BatchSimulator`,
and the between-run idle cooldowns advance through the same batched
zero-order-hold intervals (:class:`~repro.platform.state.BatchPlant`).
:class:`ScenarioRunner` is the ``B = 1`` view of that same code path, and
every batched kernel is elementwise over the batch axis, so a batch of
``N`` schedules produces chains byte-identical to ``N`` schedules
executed one at a time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import SimulationConfig
from repro.core.dtpm import DtpmGovernor
from repro.errors import ConfigurationError
from repro.platform.specs import PlatformSpec
from repro.platform.state import BatchPlant
from repro.sim.consumers import TraceConsumer
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.sim.run_result import RunResult
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.trace import WorkloadTrace

#: The near-idle load profile of a device sitting between apps: a trickle
#: of background work on the big cluster, idle little cores and GPU, and
#: residual memory traffic.  One entry per big core.
IDLE_BIG_UTILS = (0.03, 0.02, 0.02, 0.02)
IDLE_MEM_TRAFFIC = 0.03
#: Integration step of the idle-gap cooldown (s).
IDLE_STEP_S = 0.1
#: Idle steps per held-power interval of the cooldown (1 s at
#: ``IDLE_STEP_S``); the last interval of a gap is shorter when needed.
IDLE_INTERVAL_STEPS = 10


class ScenarioRunner:
    """Runs workloads consecutively, carrying thermal state across runs.

    ``base_seed`` pins run ``i`` of the sequence to seed ``base_seed + i``
    (defaults to the config's seed), which is what makes scenario
    schedules content-addressable through :mod:`repro.runner`.
    ``annotate=False`` suppresses the ``"scenario position i"`` result
    notes so a position's result is byte-identical however it was reached
    (the cache relies on this).  Streaming ``consumers`` are forwarded to
    every :class:`Simulator` in the sequence.

    ``mode`` is the default thermal configuration of every position;
    :meth:`run` accepts per-position ``modes`` for mixed schedules (e.g.
    a day under the stock governor followed by a DTPM-managed app).
    """

    def __init__(
        self,
        mode: ThermalMode,
        dtpm: Optional[DtpmGovernor] = None,
        spec: Optional[PlatformSpec] = None,
        config: Optional[SimulationConfig] = None,
        initial_temp_c: Optional[float] = 35.0,
        idle_gap_s: float = 0.0,
        max_duration_s: float = 900.0,
        base_seed: Optional[int] = None,
        annotate: bool = True,
        consumers: Optional[Sequence[TraceConsumer]] = None,
    ) -> None:
        if mode is ThermalMode.DTPM and dtpm is None:
            raise ConfigurationError("DTPM scenarios need a DtpmGovernor")
        if idle_gap_s < 0:
            raise ConfigurationError("idle gap must be >= 0")
        self.mode = mode
        self.dtpm = dtpm
        self.spec = spec or PlatformSpec()
        self.config = config or SimulationConfig()
        self.initial_temp_c = initial_temp_c
        self.idle_gap_s = idle_gap_s
        self.max_duration_s = max_duration_s
        self.base_seed = base_seed
        self.annotate = annotate
        self.consumers = list(consumers or ())
        self._carry_temps_k = None

    # ------------------------------------------------------------------
    def run(
        self,
        workloads: Sequence[WorkloadTrace],
        modes: Optional[Sequence[ThermalMode]] = None,
    ) -> List[RunResult]:
        """Execute the sequence; each run starts where the last ended.

        The B=1 view of :class:`BatchScenarioRunner`: one schedule goes
        through exactly the code path a batch of many does, which is what
        makes batched and serial scenario execution byte-identical.
        """
        return BatchScenarioRunner([self]).run(
            [workloads], None if modes is None else [modes]
        )[0]

    @property
    def device_temps_k(self):
        """Thermal state carried into the next run (None before any run)."""
        return (
            None if self._carry_temps_k is None else self._carry_temps_k.copy()
        )


class BatchScenarioRunner:
    """Lock-steps ``B`` scenario schedules through one batched plant.

    Chain positions stay aligned across lanes: every lane's position-``i``
    run advances through one :class:`~repro.sim.engine.BatchSimulator`
    (lanes that finish early drop out of the step loop, lanes with shorter
    schedules drop out of later positions), and the idle-gap cooldowns
    before carried runs advance through one batched plant.  Thermal
    state and the per-lane DTPM governor (with its identified models)
    carry across positions per lane, exactly as each lane's serial
    :class:`ScenarioRunner` would carry them.

    All lanes must share the plant "shape" (platform spec, thermal
    physics, control/substep timing -- the :class:`BatchSimulator`
    contract); modes, workloads, seeds, idle gaps and chain lengths are
    free to vary per lane.  Within that contract a batch of ``N``
    schedules is byte-identical to ``N`` serial schedules.

    Note that a :class:`~repro.sim.consumers.TraceConsumer` shared by
    several lanes observes their intervals interleaved (serial execution
    would play whole chains back to back); per-lane consumers see exactly
    the serial stream.
    """

    def __init__(self, runners: Sequence[ScenarioRunner]) -> None:
        if not runners:
            raise ConfigurationError(
                "a scenario batch needs at least one runner"
            )
        if len({id(r) for r in runners}) != len(runners):
            raise ConfigurationError(
                "a scenario runner cannot ride in one batch twice"
            )
        self.runners: List[ScenarioRunner] = list(runners)

    # ------------------------------------------------------------------
    def run(
        self,
        schedules: Sequence[Sequence[WorkloadTrace]],
        modes: Optional[Sequence[Optional[Sequence[ThermalMode]]]] = None,
    ) -> List[List[RunResult]]:
        """Execute one schedule per lane; chains come back in lane order.

        ``modes`` optionally gives per-position thermal modes per lane
        (``None`` entries fall back to that lane's default mode).
        """
        runners = self.runners
        schedules = [list(s) for s in schedules]
        if len(schedules) != len(runners):
            raise ConfigurationError(
                "got %d schedules for %d scenario lanes"
                % (len(schedules), len(runners))
            )
        if modes is not None and len(modes) != len(runners):
            raise ConfigurationError(
                "got %d mode sequences for %d scenario lanes"
                % (len(modes), len(runners))
            )
        lane_modes: List[List[ThermalMode]] = []
        for i, runner in enumerate(runners):
            if not schedules[i]:
                raise ConfigurationError(
                    "scenario needs at least one workload"
                )
            given = None if modes is None else modes[i]
            if given is None:
                lane_modes.append([runner.mode] * len(schedules[i]))
                continue
            given = list(given)
            if len(given) != len(schedules[i]):
                raise ConfigurationError(
                    "lane %d: %d modes for %d workloads"
                    % (i, len(given), len(schedules[i]))
                )
            for mode in given:
                if not isinstance(mode, ThermalMode):
                    raise ConfigurationError(
                        "modes must be ThermalModes (got %r)" % (mode,)
                    )
            if ThermalMode.DTPM in given and runner.dtpm is None:
                raise ConfigurationError("DTPM scenarios need a DtpmGovernor")
            lane_modes.append(given)

        results: List[List[RunResult]] = [[] for _ in runners]
        for pos in range(max(len(s) for s in schedules)):
            lane_ids = [
                i for i in range(len(runners)) if pos < len(schedules[i])
            ]
            sims: List[Simulator] = []
            idle_steps: List[int] = []
            for i in lane_ids:
                runner = runners[i]
                seed0 = (
                    runner.base_seed
                    if runner.base_seed is not None
                    else runner.config.seed
                )
                carrying = runner._carry_temps_k is not None
                sim = Simulator(
                    schedules[i][pos],
                    lane_modes[i][pos],
                    dtpm=runner.dtpm,
                    spec=runner.spec,
                    config=runner.config,
                    # the first run starts from the configured device state;
                    # later runs inherit the carried thermal state verbatim
                    warm_start_c=None if carrying else runner.initial_temp_c,
                    max_duration_s=runner.max_duration_s,
                    seed=seed0 + pos,
                    consumers=runner.consumers,
                )
                if carrying:
                    sim.board.network.set_temperatures_k(
                        runner._carry_temps_k
                    )
                sims.append(sim)
                idle_steps.append(
                    int(round(runner.idle_gap_s / IDLE_STEP_S))
                    if carrying and runner.idle_gap_s > 0
                    else 0
                )
            self._idle(sims, idle_steps)
            for k, result in enumerate(BatchSimulator(sims).run()):
                i = lane_ids[k]
                if runners[i].annotate:
                    result.notes.append("scenario position %d" % pos)
                results[i].append(result)
                runners[i]._carry_temps_k = (
                    sims[k].board.network.temperatures_k
                )
        return results

    # ------------------------------------------------------------------
    @staticmethod
    def _idle(sims: Sequence[Simulator], idle_steps: Sequence[int]) -> None:
        """Cool the carrying lanes at near-idle for their configured gaps.

        The cooldown runs on the engine's zero-order-hold intervals: each
        lane's gap splits into held-power intervals of
        ``IDLE_INTERVAL_STEPS`` idle steps, the last one shorter when the
        gap is not a whole number of intervals.  Every round advances
        each idling lane by its next interval, one batched advance per
        distinct interval length, so a lane's interval boundaries depend
        only on its own gap and the cooldown stays byte-identical to the
        same lane idling alone.  The idle gap is not part of any
        benchmark's accounting, so each lane's meter is reset afterwards.
        """
        lanes = [k for k, steps in enumerate(idle_steps) if steps > 0]
        if not lanes:
            return
        for k in lanes:
            board = sims[k].board
            board.soc.big.set_frequency(sims[k].spec.big_opp.f_min_hz)
            board.soc.gpu.set_utilisation(0.0)
            board.soc.mem.set_traffic(IDLE_MEM_TRAFFIC)
        plant = BatchPlant([sims[k].board for k in lanes])
        remaining = [idle_steps[k] for k in lanes]
        while any(remaining):
            groups: Dict[int, List[int]] = {}
            for i, left in enumerate(remaining):
                if left:
                    steps = min(left, IDLE_INTERVAL_STEPS)
                    groups.setdefault(steps, []).append(i)
            for steps, idx in sorted(groups.items()):
                state = plant.gather(idx)
                big = np.tile(np.asarray(IDLE_BIG_UTILS), (len(idx), 1))
                little = np.zeros((len(idx), len(IDLE_BIG_UTILS)))
                ones = np.ones(len(idx))
                plant.advance_interval(
                    state, idx, big, little, ones, ones, IDLE_STEP_S, steps
                )
                plant.scatter(state, idx)
                for i in idx:
                    remaining[i] -= steps
        for k in lanes:
            sims[k].board.meter.reset()


# ---------------------------------------------------------------------------
# schedule generators
# ---------------------------------------------------------------------------
ScheduleEntry = Union[WorkloadTrace, Tuple[WorkloadTrace, ThermalMode]]


def diurnal(
    day: Sequence[Union[WorkloadTrace, str, Tuple]],
    days: int = 2,
    night: Optional[WorkloadTrace] = None,
    night_s: float = 90.0,
    night_mode: Optional[ThermalMode] = None,
    night_seed: int = 2015,
) -> Tuple[ScheduleEntry, ...]:
    """A multi-day usage schedule: the day's apps repeated ``days`` times.

    Consecutive days are separated by an *overnight* position -- a
    low-intensity synthetic workload (``night_s`` nominal seconds of
    background/standby activity), so every later day starts from the
    realistic morning thermal state the night left behind rather than
    from the previous evening's peak.  Combine with the schedule's
    ``idle_gap_s`` (the pocket time between apps, applied before every
    carried position including the overnight ones) for full diurnal
    grids.

    ``day`` entries may be workloads, benchmark names, or
    ``(workload-or-name, mode)`` pairs (per-position thermal modes, as
    accepted by :class:`~repro.runner.ExperimentMatrix` schedules);
    ``night_mode`` attaches a mode to the overnight positions.  The
    flattened schedule is returned as a tuple suitable for the matrix's
    ``schedules`` axis or (workloads only) a spec's ``history``.
    """
    from repro.workloads.generator import synthesize

    entries = [resolve_schedule_entry(e) for e in day]
    if not entries:
        raise ConfigurationError("diurnal needs at least one workload per day")
    if days < 1:
        raise ConfigurationError("days must be >= 1")
    if night is None:
        night = synthesize(
            "low", night_s, threads=1, seed=night_seed, name="overnight"
        )
    night_entry: ScheduleEntry = (
        night if night_mode is None else (night, night_mode)
    )
    out: List[ScheduleEntry] = []
    for d in range(days):
        if d:
            out.append(night_entry)
        out.extend(entries)
    return tuple(out)


def resolve_schedule_entry(entry) -> ScheduleEntry:
    """Normalise one schedule entry to a workload or (workload, mode) pair."""
    if isinstance(entry, tuple):
        if len(entry) != 2:
            raise ConfigurationError(
                "schedule entries must be workloads or (workload, mode) "
                "pairs (got a %d-tuple)" % len(entry)
            )
        workload, mode = entry
        if isinstance(mode, str):
            try:
                mode = ThermalMode(mode)
            except ValueError:
                raise ConfigurationError(
                    "unknown thermal mode %r" % (mode,)
                ) from None
        if not isinstance(mode, ThermalMode):
            raise ConfigurationError(
                "schedule entry modes must be ThermalModes (got %r)" % (mode,)
            )
        return (_resolve_workload(workload), mode)
    return _resolve_workload(entry)


def _resolve_workload(workload) -> WorkloadTrace:
    if isinstance(workload, str):
        return get_benchmark(workload)
    if not isinstance(workload, WorkloadTrace):
        raise ConfigurationError(
            "schedule entries must be WorkloadTraces or benchmark names "
            "(got %r)" % type(workload).__name__
        )
    return workload
