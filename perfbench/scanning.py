"""``store_scan``: suite analytics over a large sharded store.

The store is depth-2 sharded and holds tens of thousands of summaries
(written straight into the layout, like an archive of past sweeps) plus
a few hundred real runs with trace blobs, drawn from the seed.  One timed pass opens it with
``SuiteFrame.open_dir``, reduces every row (``groupby``, ``savings``)
and reduces the traces of the real rows (``stability``,
``regulation``).  Between passes a batch of ``ResultCache.put`` writes
lands in random shards, so their per-shard indexes are stale and
rebuild on the next open.

The archive part does not depend on the seed and is kept between runs
(under ``.perfbench_work/``): writing ~20k summaries into ~17k fresh
depth-2 directories, and deleting them again, on every run outpaces the
disk's writeback, so each run wrote slower than the last (2 s, then up
to 23 s, ten runs later).  A run removes everything it added (its real
runs, its writes, the index files) when it ends, and the next run also
removes what a crashed run left, so every run starts from the same
archive with no index built.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from time import perf_counter, time_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.suite import SuiteFrame
from repro.runner import (
    ARTIFACT_FORMAT,
    DEFAULT_BATCH,
    ParallelRunner,
    ResultCache,
    RunSpec,
    payload_bytes,
    spec_key,
)
from repro.sim.engine import ThermalMode
from repro.sim.run_result import RUN_COLUMNS, RunResult
from repro.workloads.generator import synthesize

from perfbench.harness import (
    HostClock,
    Outcome,
    median,
    min_units_then_deadline,
    percentile,
)

_CATEGORIES = ("low", "medium", "high")
_MODES = ("with_fan", "without_fan")
#: Thermal constraint the regulation reduction scores against.
_CONSTRAINT_C = 60.0
#: Rows compared against the per-entry walk after the timed phase.
_SAMPLE = 200
#: Bumped when the archive's contents change (part of its directory).
_ARCHIVE_VERSION = 1
#: Files at the store root listing what the current run added, and
#: marking a completely written archive.
_RUN_MANIFEST = ".perfbench-run.json"
_ARCHIVE_MARKER = ".perfbench-archive.json"


def _digest(*parts: object) -> str:
    text = "-".join(str(p) for p in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class StoreScan:
    name = "store_scan"
    setup_repeats = 3

    def __init__(self, seed: int, size: str, work_dir: str,
                 clock: HostClock) -> None:
        self.seed = seed
        self.tiny = size == "tiny"
        self.clock = clock
        self.summaries = 400 if self.tiny else 20000
        self.root = os.path.join(
            os.path.dirname(work_dir),
            "store_scan-archive-%d-v%d-a%d"
            % (self.summaries, _ARCHIVE_VERSION, ARTIFACT_FORMAT),
        )
        self._added: List[str] = []
        self.real_pairs = 4 if self.tiny else 100
        self.duration_s = 2.0 if self.tiny else 10.0
        #: Pairs of results written between passes (two puts each).
        self.write_pairs = 2 if self.tiny else 4
        self.real: List[Tuple[str, RunResult]] = []
        self.real_keys: set = set()
        self.phases: Dict[str, dict] = {}

    # -- inputs ---------------------------------------------------------
    def _ensure_archive(self, outcome: Outcome) -> None:
        """Write the seed-independent archive once per checkout."""
        if os.path.exists(os.path.join(self.root, _ARCHIVE_MARKER)):
            return
        shutil.rmtree(self.root, ignore_errors=True)
        t0 = perf_counter()
        rng = np.random.default_rng([0, 6])
        template = {
            "artifact": ARTIFACT_FORMAT,
            "violations_predicted": 0,
            "cluster_migrations": 0,
            "cores_offlined": 0,
            "notes": [],
            "trace": {"columns": list(RUN_COLUMNS), "length": 0},
        }
        for i in range(self.summaries):
            payload = dict(template)
            payload.update({
                "benchmark": "pb-archive-%d" % (i // 2),
                "mode": _MODES[i % 2],
                "completed": bool(rng.random() < 0.9),
                "execution_time_s": float(rng.uniform(20.0, 120.0)),
                "average_platform_power_w": float(rng.uniform(2.0, 7.0)),
                "energy_j": float(rng.uniform(50.0, 800.0)),
                "interventions": int(rng.integers(0, 40)),
            })
            key = _digest("perfbench-archive", i)
            entry = os.path.join(self.root, key[:2], key[2:4])
            os.makedirs(entry, exist_ok=True)
            with open(os.path.join(entry, key + ".json"), "wb") as fh:
                fh.write(payload_bytes(payload))
        with open(os.path.join(self.root, _ARCHIVE_MARKER), "w") as fh:
            json.dump({"summaries": self.summaries}, fh)
        outcome.facts["archive_write_s"] = perf_counter() - t0

    def _note_added(self, keys: List[str]) -> None:
        """Record keys before they are written (see :meth:`_forget_run`)."""
        self._added.extend(keys)
        with open(os.path.join(self.root, _RUN_MANIFEST), "w") as fh:
            json.dump(self._added, fh)

    def _forget_run(self) -> None:
        """Remove a run's additions and every index file from the store."""
        keys = set(self._added)
        try:
            with open(os.path.join(self.root, _RUN_MANIFEST)) as fh:
                keys.update(json.load(fh))
        except (OSError, ValueError):
            pass
        for key in keys:
            entry = os.path.join(self.root, key[:2], key[2:4])
            for suffix in (".json", ".npz"):
                try:
                    os.unlink(os.path.join(entry, key + suffix))
                except FileNotFoundError:
                    pass
            try:
                os.rmdir(entry)  # only when the run created it
            except OSError:
                pass
        shutil.rmtree(os.path.join(self.root, ".index"), ignore_errors=True)
        try:
            os.unlink(os.path.join(self.root, _RUN_MANIFEST))
        except FileNotFoundError:
            pass
        self._added = []

    def generate(self, outcome: Outcome) -> None:
        """The archive, then this seed's real runs with blobs (untimed)."""
        self._forget_run()
        self._ensure_archive(outcome)
        rng = np.random.default_rng([self.seed, 6])
        specs: List[RunSpec] = []
        for j in range(self.real_pairs):
            workload = synthesize(
                _CATEGORIES[j % 3],
                duration_s=float(rng.uniform(15.0, 30.0)),
                seed=int(rng.integers(2**31)),
                name="pb-scan-%d-%d" % (self.seed, j),
            )
            run_seed = int(rng.integers(2**30))
            for mode in (ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN):
                specs.append(RunSpec(
                    workload=workload, mode=mode,
                    max_duration_s=self.duration_s, seed=run_seed,
                ))
        keys = [spec_key(s) for s in specs]
        self._note_added(keys)
        t0 = perf_counter()
        results = ParallelRunner(
            workers=1, cache=ResultCache(root=self.root, fanout=2),
            batch=DEFAULT_BATCH,
        ).run(specs)
        self.real = list(zip(keys, results))
        self.real_keys = set(keys)
        outcome.facts["real_runs_s"] = perf_counter() - t0
        outcome.facts["rows"] = self.summaries + len(self.real)

    # -- set-up ---------------------------------------------------------
    def setup(self, rep: int) -> None:
        """First open of the store: every shard index built from scratch."""
        if rep > 0:
            # mark every shard as written since the last open
            stamp = time_ns() + rep
            for name in os.listdir(self.root):
                path = os.path.join(self.root, name)
                if len(name) == 2 and os.path.isdir(path):
                    os.utime(path, ns=(stamp, stamp))
        SuiteFrame.open_dir(self.root)

    # -- phases ---------------------------------------------------------
    def _write_batch(self, label: str, i: int, written: List[str]) -> None:
        keys = [
            _digest("perfbench-write", self.seed, label, i, w, m)
            for w in range(self.write_pairs) for m in range(2)
        ]
        self._note_added(keys)
        w0 = perf_counter()
        cache = ResultCache(root=self.root, memory=False)
        for n, key in enumerate(keys):
            j = (i * self.write_pairs + n // 2) % self.real_pairs
            cache.put(key, self.real[2 * j + n % 2][1])
        self.phases[label]["write_s"].append(perf_counter() - w0)
        written.extend(keys)

    def _pass(self) -> Tuple[SuiteFrame, dict, dict, dict]:
        frame = SuiteFrame.open_dir(self.root)
        modes = frame.groupby("mode")
        savings = frame.savings("with_fan", "without_fan")
        real = frame.select([
            i for i, key in enumerate(frame.keys) if key in self.real_keys
        ])
        traces = {
            "stability": real.stability(),
            "regulation": real.regulation(_CONSTRAINT_C),
        }
        return frame, modes, savings, traces

    def _step(self, label: str, phase: dict, i: int) -> None:
        """Writes (after the first pass), then one timed scan pass."""
        try:
            if i > 0:
                self._write_batch(label, i, phase["written"])
            p0 = perf_counter()
            frame, modes, savings, traces = self._pass()
            phase["pass_s"].append(perf_counter() - p0)
        except Exception:  # noqa: BLE001 - a failed pass is counted
            phase["failed"] += 1
            return
        self.clock.tick()
        phase["rows"] += len(frame)
        phase["frame"] = frame
        phase["traces"].append(traces)
        phase["pairs"] = len(savings["baseline"])
        phase["modes"] = {m: len(ix) for m, ix in modes.items()}

    def run_phase(self, label: str, seconds: float,
                  replay: Optional[int]) -> Tuple[int, float]:
        """Timed passes; returns (passes run, their wall seconds)."""
        phase = self.phases[label] = {
            "pass_s": [], "write_s": [], "rows": 0, "written": [],
            "traces": [], "failed": 0, "frame": None,
        }
        passes = min_units_then_deadline(
            seconds, 2, lambda i: self._step(label, phase, i),
            max_units=replay,
        )
        return passes, sum(phase["pass_s"])

    def record(self, outcome: Outcome, label: str) -> None:
        phase = self.phases[label]
        outcome.attempted += len(phase["pass_s"]) + phase["failed"]
        outcome.failed += phase["failed"]

    def end_to_end(self, outcome: Outcome) -> None:
        phase = self.phases["untraced"]
        slowdown = self.clock.slowdown
        pass_s = [t / slowdown for t in phase["pass_s"]]
        rate = phase["rows"] / sum(pass_s)
        outcome.metrics.update({
            "throughput": rate,
            "latency_p50_ms": 1e3 * median(pass_s),
            "latency_tail_ms": 1e3 * percentile(pass_s, 90),
            "sim_max_temp_c": median([
                float(np.max(r.trace.column("true_max_temp_c")))
                for _, r in self.real
            ]),
            "sim_power_w": float(
                np.mean([r.average_platform_power_w for _, r in self.real])
            ),
        })
        outcome.note("scan_p50_ms", 1e3 * median(pass_s), "ms")
        outcome.note("scan_p90_ms", 1e3 * percentile(pass_s, 90), "ms")
        outcome.note("rows_per_s", rate, "rows/s")
        outcome.note("raw_rows_per_s", phase["rows"] / sum(phase["pass_s"]),
                     "rows/s")
        outcome.note("write_batch_p50_ms", 1e3 * median(phase["write_s"]), "ms")
        outcome.facts["passes"] = len(pass_s)

    # -- checks ---------------------------------------------------------
    def check(self, outcome: Outcome) -> None:
        checks = outcome.checks
        phase = self.phases["untraced"]
        frame: Optional[SuiteFrame] = phase["frame"]
        if frame is None:
            checks.add("timed phase produced a frame", False)
            return
        index = {key: i for i, key in enumerate(frame.keys)}
        written = phase["written"]
        checks.add(
            "the frame contains every key written between passes",
            all(key in index for key in written)
            and len(frame) == self.summaries + len(self.real) + len(written),
        )
        checks.add(
            "groupby and savings cover every row",
            sum(phase["modes"].values()) == len(frame)
            and 2 * phase["pairs"] == len(frame),
        )

        # the index-backed frame against the per-entry walk on a sample
        rng = np.random.default_rng([self.seed, 7])
        pick = rng.choice(len(frame), size=min(_SAMPLE, len(frame)),
                          replace=False)
        sample = sorted({frame.keys[i] for i in pick} | set(written[:4]))
        walk = SuiteFrame.from_cache(
            ResultCache(root=self.root, memory=False), keys=sample,
            use_index=False,
        )
        rows = [index[k] for k in sample]
        same = (
            walk.keys == sample
            and walk.benchmark == [frame.benchmark[i] for i in rows]
            and walk.mode == [frame.mode[i] for i in rows]
        )
        for name in ("execution_time_s", "average_platform_power_w",
                     "energy_j", "interventions", "completed"):
            same = same and np.array_equal(
                walk.column(name), frame.column(name)[rows]
            )
        checks.add("indexed columns equal the per-entry walk on a sample", same)

        first = phase["traces"][0]
        checks.add(
            "trace reductions are identical on every pass",
            all(_same_reductions(first, t) for t in phase["traces"]),
        )
        traced = self.phases.get("traced")
        if traced is not None:
            checks.add(
                "traced reductions equal untraced reductions",
                bool(traced["traces"]) and all(
                    _same_reductions(first, t) for t in traced["traces"]
                ),
            )

    def close(self) -> None:
        self._forget_run()


def _same_reductions(a: dict, b: dict) -> bool:
    for name in a:
        if set(a[name]) != set(b[name]):
            return False
        for field in a[name]:
            x, y = np.asarray(a[name][field]), np.asarray(b[name][field])
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
    return True
