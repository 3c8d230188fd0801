"""Executing :class:`RunSpec`\\ s -- the runner's units of work.

This is the single place that turns declarative specs into configured
:class:`Simulator`\\ s; the serial path, the process-pool workers and the
legacy ``repro.sim.experiment`` helpers all funnel through it, which is
what makes cached, serial and parallel execution byte-identical.

:func:`execute_batch` is the throughput path: it packs *compatible* specs
(same plant shape -- platform spec and control/substep/ambient timing)
into batches so one process advances many runs per control step.  Plain
specs lock-step through a :class:`~repro.sim.engine.BatchSimulator`;
scheduled (history-carrying) specs of the same plant shape and chain
length lock-step through a
:class:`~repro.sim.scenario.BatchScenarioRunner` with aligned chain
positions.  Because the batched engines are byte-identical to the serial
ones lane-for-lane, batching is purely an execution detail: results and
cache content keys do not depend on it.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.config import SimulationConfig
from repro.core.dtpm import DtpmGovernor
from repro.errors import ConfigurationError
from repro.platform.specs import PlatformSpec
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.sim.models import ModelBundle, default_models
from repro.sim.run_result import RunResult
from repro.sim.scenario import BatchScenarioRunner, ScenarioRunner
from repro.runner.spec import RunSpec, canonical_json

#: Environment knob for the in-worker batch width (``repro-dtpm --batch``
#: takes precedence when given on the command line).
BATCH_ENV = "REPRO_BATCH"

#: Default number of runs one worker advances per control step.
DEFAULT_BATCH = 8


def default_batch() -> int:
    """The batch width to use when the caller does not pick one.

    ``$REPRO_BATCH`` overrides the built-in default; ``1`` disables
    packing (every run steps alone, the pre-batching behaviour).
    """
    raw = os.environ.get(BATCH_ENV, "").strip()
    if not raw:
        return DEFAULT_BATCH
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            "%s must be a positive integer, got %r" % (BATCH_ENV, raw)
        ) from None
    if value < 1:
        raise ConfigurationError(
            "%s must be a positive integer, got %r" % (BATCH_ENV, raw)
        )
    return value


def make_dtpm_governor(
    models: Optional[ModelBundle] = None,
    spec: Optional[PlatformSpec] = None,
    config: Optional[SimulationConfig] = None,
    guard_band_k: Optional[float] = None,
) -> DtpmGovernor:
    """Assemble a DTPM governor from a model bundle.

    The power model is re-instantiated so each run starts with fresh
    alpha*C estimators (the leakage fits are shared -- they are static
    characterization products).
    """
    from repro.power.characterization import default_power_model

    models = models or default_models()
    spec = spec or PlatformSpec()
    power = default_power_model(spec)
    # carry over the characterized leakage fits
    for resource, fitted in models.power.models.items():
        power.models[resource].leakage = fitted.leakage
    kwargs = {}
    if guard_band_k is not None:
        kwargs["guard_band_k"] = guard_band_k
    return DtpmGovernor(models.thermal, power, spec=spec, config=config, **kwargs)


def build_simulator(
    spec: RunSpec, models: Optional[ModelBundle] = None
) -> Simulator:
    """Configure the :class:`Simulator` for one plain (no-history) spec."""
    dtpm = None
    if spec.mode is ThermalMode.DTPM:
        dtpm = make_dtpm_governor(
            models,
            spec=spec.platform,
            config=spec.config,
            guard_band_k=spec.guard_band_k,
        )
    return Simulator(
        spec.workload,
        spec.mode,
        dtpm=dtpm,
        spec=spec.platform,
        config=spec.config,
        warm_start_c=spec.warm_start_c,
        max_duration_s=spec.max_duration_s,
        seed=spec.seed,
    )


def execute_spec(
    spec: RunSpec, models: Optional[ModelBundle] = None
) -> RunResult:
    """Run one spec to completion.

    Pure given (spec, models): equal inputs produce equal results, which is
    the property the content-addressed cache and the parallel runner rely
    on.  A spec with scenario ``history`` simulates the whole sequence and
    returns the final position's result (use :func:`execute_schedule` to
    harvest every position).
    """
    if spec.history:
        return execute_schedule(spec, models)[-1]
    return build_simulator(spec, models).run()


def execute_schedule(
    spec: RunSpec, models: Optional[ModelBundle] = None
) -> List[RunResult]:
    """Run a spec's full scenario chain; result ``i`` is ``spec.chain()[i]``'s.

    Thermal state carries across the sequence through a
    :class:`ScenarioRunner` on one platform instance.  Position ``i``'s
    result is byte-identical whether that position is executed standalone
    (as its own chain) or harvested from a longer schedule, because the
    simulation up to position ``i`` is the same either way -- that is what
    lets every position share one content-addressed cache entry.
    """
    if not spec.history:
        return [execute_spec(spec, models)]
    return execute_schedules([spec], models)[0]


def _scenario_runner(
    spec: RunSpec, models: Optional[ModelBundle]
) -> ScenarioRunner:
    """One lane's (governor-equipped) scenario runner for a scheduled spec."""
    dtpm = None
    if spec.needs_models:
        dtpm = make_dtpm_governor(
            models,
            spec=spec.platform,
            config=spec.config,
            guard_band_k=spec.guard_band_k,
        )
    return ScenarioRunner(
        spec.mode,
        dtpm=dtpm,
        spec=spec.platform,
        config=spec.config,
        initial_temp_c=spec.warm_start_c,
        idle_gap_s=spec.idle_gap_s,
        max_duration_s=spec.max_duration_s,
        base_seed=spec.seed,
        annotate=False,
    )


def execute_schedules(
    specs: Sequence[RunSpec], models: Optional[ModelBundle] = None
) -> List[List[RunResult]]:
    """Run several scenario chains in lock-step; element ``i`` is spec
    ``i``'s full chain of results.

    All specs must be scheduled (non-empty ``history``) and share one
    plant shape (:func:`plant_shape_key`); chain lengths, modes, seeds
    and idle gaps are free to vary per lane.  The chains advance through
    one :class:`~repro.sim.scenario.BatchScenarioRunner` -- aligned
    positions, batched idle gaps, per-lane governor carry-over -- and a
    batch of ``N`` chains is byte-identical to ``N`` serial
    :func:`execute_schedule` calls.
    """
    runners = [_scenario_runner(spec, models) for spec in specs]
    return BatchScenarioRunner(runners).run(
        [list(spec.schedule) for spec in specs],
        [list(spec.schedule_modes) for spec in specs],
    )


# ---------------------------------------------------------------------------
# batched execution: many runs per control step inside one process
# ---------------------------------------------------------------------------
def plant_shape_key(spec: RunSpec) -> str:
    """Grouping key of specs whose plants can lock-step in one batch.

    Two runs can share a :class:`BatchSimulator` when their physical
    plants are identical: same platform spec and same control-period /
    thermal-substep / ambient timing.  Everything else (mode, workload,
    seed, duration, noise levels, constraint, guard band) stays per lane.
    """
    config = spec.config or SimulationConfig()
    return canonical_json(
        {
            "platform": spec.platform,
            "control_period_s": config.control_period_s,
            "thermal_substep_s": config.thermal_substep_s,
            "ambient_c": config.ambient_c,
        }
    )


def plan_batches(
    specs: Sequence[RunSpec], batch_size: int
) -> List[List[int]]:
    """Partition spec indices into executable jobs.

    Plain specs pack into same-plant-shape groups of at most
    ``batch_size``, in spec order.  Scheduled (history-carrying) specs
    pack likewise, but only with schedules of the same chain length --
    their chain positions lock-step through one
    :class:`~repro.sim.scenario.BatchScenarioRunner`, so aligned lanes
    keep every position of the batch busy.  Plain and scheduled specs
    never share a job (their execution engines differ).  Jobs come back
    ordered by their first spec index, so serial and pool execution walk
    the same deterministic plan.
    """
    if batch_size < 1:
        raise ConfigurationError("batch size must be >= 1")
    jobs: List[List[int]] = []
    open_groups: Dict[object, List[int]] = {}
    for i, spec in enumerate(specs):
        if batch_size == 1:
            jobs.append([i])
            continue
        if spec.history:
            key = ("schedule", plant_shape_key(spec), len(spec.schedule))
        else:
            key = ("plain", plant_shape_key(spec))
        group = open_groups.setdefault(key, [])
        group.append(i)
        if len(group) >= batch_size:
            jobs.append(group)
            del open_groups[key]
    jobs.extend(open_groups.values())
    jobs.sort(key=lambda job: job[0])
    return jobs


def execute_batch(
    specs: Sequence[RunSpec],
    models: Optional[ModelBundle] = None,
    batch_size: Optional[int] = None,
) -> List[List[RunResult]]:
    """Execute specs with in-process batching; chains come back in order.

    The drop-in batched equivalent of ``[execute_schedule(s) for s in
    specs]``: element ``i`` is spec ``i``'s full chain of results (a
    single-element list for plain specs).  Compatible plain specs advance
    together through one :class:`~repro.sim.engine.BatchSimulator`;
    compatible scheduled specs lock-step their chains through one
    :class:`~repro.sim.scenario.BatchScenarioRunner`.  Because the
    batched engines are lane-for-lane byte-identical to the serial ones,
    the batch width never changes any result.
    """
    specs = list(specs)
    if batch_size is None:
        batch_size = default_batch()
    results: List[Optional[List[RunResult]]] = [None] * len(specs)
    for job in plan_batches(specs, batch_size):
        if specs[job[0]].history:
            for i, chain in zip(
                job, execute_schedules([specs[i] for i in job], models)
            ):
                results[i] = chain
            continue
        sims = [build_simulator(specs[i], models) for i in job]
        for i, result in zip(job, BatchSimulator(sims).run()):
            results[i] = [result]
    return results
