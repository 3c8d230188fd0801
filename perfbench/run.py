"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dtpm_sweep --seed 1 --seconds 10 --trace 0

The program under test is imported from ``src/`` of the checkout this
file lives in; without it the script exits with status 2 before
measuring anything.  Run as a script, it first unsets the program's
``REPRO_*`` environment settings so every run measures the defaults.
Inputs come only from ``--seed``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the same work untraced, traced
and untraced again, and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A run record with
the host fingerprint and git revision goes to ``.perfbench_out/``;
scratch stores live under ``.perfbench_work/`` and are removed (only
store_scan's seed-independent archive is kept there between runs).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the import clock starts above
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from typing import Optional, Tuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Settings the program reads from the environment (unset by the script).
_PROGRAM_ENV = ("REPRO_BATCH", "REPRO_CACHE_DIR", "REPRO_KERNEL", "REPRO_WORKERS")


def _import_program() -> None:
    """Put this checkout's ``src`` first and refuse any other ``repro``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program at %s\n" % SRC)
        raise SystemExit(2)
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(
            "perfbench: imported repro from %s, not %s\n" % (where, SRC)
        )
        raise SystemExit(2)


_import_program()

from perfbench import harness  # noqa: E402
from perfbench.scanning import StoreScan  # noqa: E402
from perfbench.serving import ServeMixed  # noqa: E402
from perfbench.sweeps import DtpmSweep, FanChains  # noqa: E402
from perfbench.tracing import Tracer, installed, layer_metrics  # noqa: E402

#: Seconds spent importing the program and the benchmark (part of setup_s).
IMPORT_S = time.perf_counter() - _T0

WORKLOADS = {
    cls.name: cls for cls in (DtpmSweep, FanChains, ServeMixed, StoreScan)
}

#: Span names traced during set-up (the rest only in the traced phase).
SETUP_SPANS = ("runner.models.build",)

WORKLOADS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "workloads.json")


def _metric_units() -> dict:
    """``name -> unit`` of every declared metric (BENCHMARK.json)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {
        m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> Tuple[harness.Outcome, Optional[Tracer]]:
    """Generate, set up, measure and check one workload.

    Returns the outcome and, for a traced run, the tracer holding its
    spans.
    """
    work = os.path.join(ROOT, harness.WORK_DIR,
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    outcome = harness.Outcome()
    clock = harness.HostClock()
    wl = WORKLOADS[workload](seed, size, work, clock)
    tracer = Tracer()
    try:
        wl.generate(outcome)
        setup_raw = []
        with installed(tracer, only=SETUP_SPANS if trace else ()):
            for rep in range(1 if trace else wl.setup_repeats):
                t0 = time.perf_counter()
                wl.setup(rep)
                setup_raw.append(time.perf_counter() - t0)
                clock.tick()
        units, busy = wl.run_phase("untraced", seconds, None)
        wl.record(outcome, "untraced")
        if trace:
            with installed(tracer):
                _, traced_busy = wl.run_phase("traced", seconds, units)
            wl.record(outcome, "traced")
            # untraced again after the traced replay, so first-run costs
            # and drift do not land on one side of the overhead
            _, after_busy = wl.run_phase("untraced-again", seconds, units)
            wl.record(outcome, "untraced-again")
            untraced_busy = (busy + after_busy) / 2
            outcome.metrics = layer_metrics(
                tracer, (traced_busy - untraced_busy) / clock.slowdown
            )
            outcome.facts["untraced_s"] = [busy, after_busy]
            outcome.facts["traced_s"] = traced_busy
        else:
            wl.end_to_end(outcome)
            raw_setup_s = IMPORT_S + harness.median(setup_raw)
            outcome.metrics["setup_s"] = raw_setup_s / clock.slowdown
            outcome.metrics["peak_rss_mb"] = harness.peak_rss_mb()
            outcome.note("setup_s", outcome.metrics["setup_s"], "s")
            outcome.note("raw_setup_s", raw_setup_s, "s")
            outcome.note("host_slowdown", clock.slowdown, "x")
            outcome.note("peak_rss_mb", outcome.metrics["peak_rss_mb"], "MiB")
        outcome.facts["import_s"] = IMPORT_S
        outcome.facts["setup_raw_s"] = setup_raw
        outcome.facts["units"] = units
        outcome.facts["host_slowdowns"] = clock.slowdowns
        wl.check(outcome)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
    outcome.note("error_rate", outcome.error_rate, "ratio")
    return outcome, tracer if trace else None


def _write_record(args: argparse.Namespace, outcome: harness.Outcome,
                  tracer: Optional[Tracer], result: dict) -> str:
    os.makedirs(args.record_dir, exist_ok=True)
    stem = os.path.join(args.record_dir, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    with open(WORKLOADS_FILE) as fh:
        meta = json.load(fh)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": harness.host_fingerprint(),
        "git_rev": harness.git_rev(ROOT),
        "workload_info": meta["workloads"].get(args.workload),
        "held_out_seed": meta["held_out_seed"],
        "named": [
            {"name": n, "value": v, "unit": u} for n, v, u in outcome.named
        ],
        "facts": outcome.facts,
        "checks": [
            {"name": n, "ok": ok, "detail": d}
            for n, ok, d in outcome.checks.results
        ],
        "result": result,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    if tracer is not None:
        tracer.dump(stem + "-spans.npz")
    return stem + ".json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input (the benchmark's own smoke test)",
    )
    parser.add_argument(
        "--record-dir", default=os.path.join(ROOT, harness.OUT_DIR),
        help="where the run record (and span dump) is written",
    )
    args = parser.parse_args(argv)

    outcome, tracer = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size
    )
    units = _metric_units()
    result = {
        "correct": outcome.total_failed == 0,
        "attempted": outcome.total_attempted,
        "failed": outcome.total_failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    }
    path = _write_record(args, outcome, tracer, result)

    host = harness.host_fingerprint()
    print("perfbench %s seed=%d seconds=%g trace=%d size=%s" % (
        args.workload, args.seed, args.seconds, args.trace, args.size))
    print("  host: nproc=%s python=%s numpy=%s  rev: %s" % (
        host["nproc"], host["python"], host["numpy"],
        harness.git_rev(ROOT)[:12]))
    for name, value, unit in outcome.named:
        print("  %-24s %14.6g %s" % (name, value, unit))
    for name, ok, detail in outcome.checks.results:
        print("  check %-4s %s%s" % ("ok" if ok else "FAIL", name,
                                     " (%s)" % detail if detail else ""))
    print("  record: %s" % path)
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    for _name in _PROGRAM_ENV:
        os.environ.pop(_name, None)
    raise SystemExit(main())
