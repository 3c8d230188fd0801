"""Span tracing installed around the program from the benchmark's side.

The traced run wraps public functions of every layer of ``repro`` at the
attribute its caller actually looks up -- the class attribute for
methods, the importing module's global for functions imported by name
-- records one span per call and restores every original afterwards.
Nothing under ``src/`` knows it is being traced.

A span is ``(id, name, start, end, parent id, run id, self seconds)``.
The run id is the id of the outermost span open on the thread, so all
spans of one request, batch or scan pass share it.  Spans live in
memory until the run ends (:meth:`Tracer.dump`).  Self
time is a span's duration minus the time its child spans cover; on one
thread children nest inside their parent, so that is the duration minus
the sum of the children's durations.  Cheap, very hot functions are
*counted* instead of spanned (a ``None`` span name in :data:`PATCHES`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.names: List[str] = []
        self._name_idx: Dict[str, int] = {}
        self.spans: List[Tuple[int, int, float, float, int, int, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._patched: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _frames(self) -> list:
        try:
            return self._local.frames
        except AttributeError:
            frames = self._local.frames = []
            return frames

    def _register(self, name: str) -> int:
        with self._lock:
            idx = self._name_idx.get(name)
            if idx is None:
                idx = self._name_idx[name] = len(self.names)
                self.names.append(name)
            return idx

    def innermost(self) -> Optional[str]:
        """Name of the calling thread's innermost open span."""
        frames = self._frames()
        return self.names[frames[-1][2]] if frames else None

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # ------------------------------------------------------------------
    def spanned(
        self,
        fn: Callable,
        name: str,
        name_of: Optional[Callable[[tuple, dict], str]] = None,
        after: Optional[Hook] = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call."""
        tracer = self
        fixed = self._register(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = fixed if name_of is None else tracer._register(
                name_of(args, kwargs)
            )
            frames = tracer._frames()
            frame = [next(tracer._ids), 0.0, idx]
            run = frames[0][0] if frames else frame[0]
            frames.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                dur = end - start
                parent = 0
                if frames:
                    frames[-1][1] += dur
                    parent = frames[-1][0]
                tracer.spans.append((
                    frame[0], idx, start, end, parent, run, dur - frame[1],
                ))
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def counted(self, fn: Callable, after: Hook) -> Callable:
        """``fn`` wrapped to feed counters only (no span, no clock)."""
        tracer = self

        @functools.wraps(fn)
        def counting(*args: Any, **kwargs: Any) -> Any:
            out = fn(*args, **kwargs)
            after(tracer, args, kwargs, out)
            return out

        return counting

    # ------------------------------------------------------------------
    def patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``"module:attr"`` / ``"module:Class.attr"`` by ``make(fn)``."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every patched original back (reverse order)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, busy seconds, self seconds)``."""
        calls = np.zeros(len(self.names), dtype=np.int64)
        busy = np.zeros(len(self.names))
        own = np.zeros(len(self.names))
        if self.spans:
            arr = np.array([(s[1], s[3] - s[2], s[6]) for s in self.spans])
            idx = arr[:, 0].astype(np.int64)
            np.add.at(calls, idx, 1)
            np.add.at(busy, idx, arr[:, 1])
            np.add.at(own, idx, arr[:, 2])
        return {
            name: (int(calls[i]), float(busy[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        """Write every span (times relative to the first) as one npz."""
        spans = self.spans
        origin = min((s[2] for s in spans), default=0.0)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.array([s[0] for s in spans], dtype=np.int64),
            name=np.array([s[1] for s in spans], dtype=np.int32),
            start_s=np.array([s[2] - origin for s in spans]),
            end_s=np.array([s[3] - origin for s in spans]),
            parent=np.array([s[4] for s in spans], dtype=np.int64),
            run=np.array([s[5] for s in spans], dtype=np.int64),
            self_s=np.array([s[6] for s in spans]),
        )


# ---------------------------------------------------------------------------
# what gets wrapped, and where the caller looks it up
# ---------------------------------------------------------------------------
def _on_control(tracer: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    tracer.count("core.dtpm.outcomes")
    if out.intervened:
        tracer.count("core.dtpm.interventions")


def _on_dirty(tracer: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    tracer.count("thermal.dirty_lanes", float(np.count_nonzero(out)))
    tracer.count("thermal.lanes", float(out.size))


def _on_get(tracer: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    if out is not None:
        tracer.count("runner.cache.hits")


def _on_write(tracer: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    if tracer.innermost() == "runner.cache.put":
        tracer.count("runner.cache.put.bytes", float(len(args[1])))


def _on_memo(tracer: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    tracer.count("service.memo_lookups")
    if out is not None:
        tracer.count("service.memo_hits")


def _on_run_job(tracer: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    job = args[1]
    if job.started_s is not None:
        tracer.count("service.jobs.jobs")
        tracer.count("service.jobs.wait_s", job.started_s - job.created_s)


def _calls(name: str) -> Hook:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
        tracer.count(name)

    return hook


def _on_recv(tracer: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    tracer.count("distributed.frames.bytes", float(len(out)))


def _plant_advance_name(args: tuple, kwargs: dict) -> str:
    # BatchPlant.advance_interval(self, state, lanes, big, little, cpu,
    # gpu, dt_s, substeps, power_every=None)
    every = kwargs.get("power_every", args[9] if len(args) > 9 else None)
    if every == 1:
        return "platform.plant.idle_advance"
    return "platform.plant.advance_interval"


#: (target looked up by the caller, span name or None, counter hook).
#: A ``None`` span name installs a count-only wrapper.
PATCHES: Tuple[Tuple[str, Optional[str], Optional[Hook]], ...] = (
    # core: the per-interval DTPM controller (Fig. 3.1)
    ("repro.core.dtpm:DtpmGovernor.control", "core.dtpm.control", _on_control),
    ("repro.core.predictor:ThermalPredictor.forecast", "core.predictor.forecast", None),
    ("repro.core.budget:PowerBudgetComputer.compute", "core.budget.compute", None),
    ("repro.core.policy:DtpmPolicy.assign", "core.policy.assign", None),
    ("repro.thermal.state_space:DiscreteThermalModel.horizon_matrices", None,
     _calls("core.state_space.horizon_matrices.calls")),
    # power
    ("repro.power.model:PowerModel.observe_vector", "power.model.observe_vector", None),
    ("repro.power.batch:BatchPowerModel.evaluate", "power.batch.evaluate", None),
    # platform
    ("repro.platform.sensors:SensorBank.read_all", "platform.sensors.read_all", None),
    ("repro.platform.state:BatchPlant.gather", "platform.plant.gather", None),
    ("repro.platform.state:BatchPlant.scatter", "platform.plant.scatter", None),
    # thermal (BatchPlant calls ``kernels.advance_held_interval``; the
    # kernel calls ``dirty_lanes`` through its module globals)
    ("repro.thermal.kernels:advance_held_interval",
     "thermal.kernels.advance_held_interval", None),
    ("repro.thermal.kernels:dirty_lanes", None, _on_dirty),
    ("repro.thermal.rc_network:ThermalRCNetwork.discretise_stack", None,
     _calls("thermal.rc.discretise_stack.calls")),
    # sim / governors
    ("repro.sim.engine:BatchSimulator.run", "sim.engine.batch_run", None),
    ("repro.sim.engine:Simulator._propose", "governors.propose", None),
    ("repro.sim.scheduler:LoadBalancer.assign", "sim.scheduler.assign", None),
    ("repro.sim.run_result:TraceRecorder.append", "sim.recorder.append", None),
    ("repro.sim.scenario:BatchScenarioRunner.run", "sim.scenario.run", None),
    # distributed (the runner imports run_batches inside the call, so
    # the coordinator module attribute is what it resolves)
    ("repro.distributed.coordinator:run_batches", "distributed.run_batches", None),
    ("repro.distributed.worker:execute_batch", "distributed.worker.execute_batch", None),
    ("repro.distributed.worker:chains_to_wire", "distributed.chains_to_wire", None),
    ("repro.distributed.coordinator:recv_frame", None, _calls("distributed.frames.count")),
    ("repro.distributed.worker:recv_frame", None, _calls("distributed.frames.count")),
    ("repro.distributed.protocol:_recv_exact", None, _on_recv),
    ("repro.distributed.protocol:spec_from_wire", "runner.wire.spec_from_wire", None),
    # runner
    ("repro.runner.runner:ParallelRunner.run", "runner.run", None),
    ("repro.runner.runner:spec_key", "runner.spec_key", None),
    ("repro.runner.cache:ResultCache.get", "runner.cache.get", _on_get),
    ("repro.runner.cache:ResultCache.put", "runner.cache.put", None),
    ("repro.runner.cache:ResultCache._atomic_write", None, _on_write),
    ("repro.runner.model_store:cached_build_models", "runner.models.build", None),
    # service
    ("repro.service.http:spec_from_wire", "runner.wire.spec_from_wire", None),
    ("repro.service.http:spec_key", "runner.spec_key", None),
    ("repro.service.http:EvaluationService.memo_get", None, _on_memo),
    ("repro.service.http:_Handler._post_run", "service.http.post_run", None),
    ("repro.service.http:_Handler._route_get", "service.http.get", None),
    ("repro.service.jobs:JobQueue.submit", "service.jobs.submit", None),
    ("repro.service.jobs:JobQueue._run_job", None, _on_run_job),
    # analysis and the bulk store indexes
    ("repro.analysis.suite:SuiteFrame.open_dir", "analysis.open_dir", None),
    ("repro.runner.cache:ResultCache.indexed_summaries",
     "runner.cache.indexed_summaries", None),
    ("repro.runner.cache:ResultCache.frame_chunks", "runner.cache.frame_chunks", None),
    ("repro.runner.cache:_build_shard_index", None, _calls("analysis.index_rebuilds")),
    ("repro.analysis.suite:SuiteFrame.groupby", "analysis.reduce", None),
    ("repro.analysis.suite:SuiteFrame.savings", "analysis.reduce", None),
    ("repro.analysis.suite:SuiteFrame.stability", "analysis.reduce", None),
    ("repro.analysis.suite:SuiteFrame.regulation", "analysis.reduce", None),
)

#: Wrapped separately: the span name depends on ``power_every``.
_PLANT_ADVANCE = "repro.platform.state:BatchPlant.advance_interval"


@contextlib.contextmanager
def installed(
    tracer: Tracer, only: Optional[Tuple[str, ...]] = None
) -> Iterator[Tracer]:
    """Wrap every :data:`PATCHES` target for the ``with`` body only.

    ``only`` restricts the wrapping to the spans of those names.
    """
    try:
        for target, name, hook in PATCHES:
            if only is not None and name not in only:
                continue
            if name is None:
                tracer.patch(target, lambda fn, h=hook: tracer.counted(fn, h))
            else:
                tracer.patch(
                    target,
                    lambda fn, n=name, h=hook: tracer.spanned(fn, n, after=h),
                )
        if only is None:
            tracer.patch(
                _PLANT_ADVANCE,
                lambda fn: tracer.spanned(
                    fn, "platform.plant.advance_interval",
                    name_of=_plant_advance_name,
                ),
            )
        yield tracer
    finally:
        tracer.restore()


# ---------------------------------------------------------------------------
# per-layer metrics (the names BENCHMARK.json lists under per_layer)
# ---------------------------------------------------------------------------
#: Spans reported as ``.calls`` and ``.busy_s`` (and ``.self_s`` when the
#: flag is set, i.e. where child spans exist).
SPAN_METRICS: Tuple[Tuple[str, bool], ...] = (
    ("core.dtpm.control", True),
    ("core.predictor.forecast", False),
    ("core.budget.compute", False),
    ("core.policy.assign", False),
    ("power.model.observe_vector", False),
    ("power.batch.evaluate", False),
    ("platform.sensors.read_all", False),
    ("platform.plant.gather", False),
    ("platform.plant.scatter", False),
    ("platform.plant.advance_interval", True),
    ("platform.plant.idle_advance", True),
    ("thermal.kernels.advance_held_interval", False),
    ("sim.engine.batch_run", True),
    ("sim.scheduler.assign", False),
    ("sim.recorder.append", False),
    ("sim.scenario.run", True),
    ("governors.propose", False),
    ("runner.run", True),
    ("distributed.run_batches", True),
    ("distributed.worker.execute_batch", True),
    ("distributed.chains_to_wire", False),
    ("runner.wire.spec_from_wire", False),
    ("runner.spec_key", False),
    ("runner.cache.get", False),
    ("runner.cache.put", False),
    ("runner.models.build", False),
    ("service.http.post_run", True),
    ("service.http.get", True),
    ("service.jobs.submit", False),
    ("analysis.open_dir", True),
    ("runner.cache.indexed_summaries", False),
    ("runner.cache.frame_chunks", False),
    ("analysis.reduce", False),
)

#: Derived per-layer metrics: name -> (unit, better).
DERIVED_METRICS: Dict[str, Tuple[str, str]] = {
    "core.dtpm.intervention_frac": ("ratio", "lower"),
    "core.state_space.horizon_matrices.calls": ("count", "lower"),
    "thermal.kernels.dirty_lane_frac": ("ratio", "lower"),
    "thermal.rc.discretise_stack.calls": ("count", "lower"),
    "distributed.overhead_s": ("s", "lower"),
    "distributed.frames.count": ("count", "lower"),
    "distributed.frames.bytes": ("bytes", "lower"),
    "runner.cache.get.hit_frac": ("ratio", "higher"),
    "runner.cache.put.bytes": ("bytes", "lower"),
    "service.memo_hit_frac": ("ratio", "higher"),
    "service.jobs.queue_wait_s": ("s", "lower"),
    "analysis.index_rebuilds": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_specs() -> List[Dict[str, str]]:
    """Every per-layer metric as a ``{"name", "unit", "better"}`` record."""
    out: List[Dict[str, str]] = []
    for name, has_self in SPAN_METRICS:
        out.append({"name": name + ".calls", "unit": "count", "better": "lower"})
        out.append({"name": name + ".busy_s", "unit": "s", "better": "lower"})
        if has_self:
            out.append(
                {"name": name + ".self_s", "unit": "s", "better": "lower"}
            )
    for name, (unit, better) in DERIVED_METRICS.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_s: float) -> Dict[str, float]:
    """Per-layer metric values of one traced phase (zeros where unused)."""
    totals = tracer.totals()
    c = tracer.counters
    values: Dict[str, float] = {}
    for name, has_self in SPAN_METRICS:
        calls, busy, own = totals.get(name, (0, 0.0, 0.0))
        values[name + ".calls"] = float(calls)
        values[name + ".busy_s"] = busy
        if has_self:
            values[name + ".self_s"] = own
    values.update({
        "core.dtpm.intervention_frac": _ratio(
            c["core.dtpm.interventions"], c["core.dtpm.outcomes"]
        ),
        "core.state_space.horizon_matrices.calls":
            c["core.state_space.horizon_matrices.calls"],
        "thermal.kernels.dirty_lane_frac": _ratio(
            c["thermal.dirty_lanes"], c["thermal.lanes"]
        ),
        "thermal.rc.discretise_stack.calls":
            c["thermal.rc.discretise_stack.calls"],
        "distributed.overhead_s": (
            values["distributed.run_batches.busy_s"]
            - values["distributed.worker.execute_batch.busy_s"]
        ),
        "distributed.frames.count": c["distributed.frames.count"],
        "distributed.frames.bytes": c["distributed.frames.bytes"],
        "runner.cache.get.hit_frac": _ratio(
            c["runner.cache.hits"], values["runner.cache.get.calls"]
        ),
        "runner.cache.put.bytes": c["runner.cache.put.bytes"],
        "service.memo_hit_frac": _ratio(
            c["service.memo_hits"], c["service.memo_lookups"]
        ),
        "service.jobs.queue_wait_s": _ratio(
            c["service.jobs.wait_s"], c["service.jobs.jobs"]
        ),
        "analysis.index_rebuilds": c["analysis.index_rebuilds"],
        "trace.overhead_s": overhead_s,
    })
    return values
