"""Perf: batched plant core vs the serial per-run loop.

Tracks the wall-clock advantage of advancing a whole sweep's plants
through one struct-of-arrays NumPy kernel per control step
(:class:`~repro.sim.engine.BatchSimulator` via
:func:`~repro.runner.execute.execute_batch`) over stepping the same runs
one at a time.  The acceptance bar of the batching refactor is a >= 3x
end-to-end win on a 16-run sweep -- with byte-identical results, which
this benchmark also re-asserts so the perf number can never drift away
from the equivalence contract.  Serial and batched sweeps run as
interleaved pairs and each side keeps its best of :data:`PAIRS`.  The
artifact records the measured numbers so the perf trajectory stays
visible across PRs.
"""

from conftest import best_of_interleaved, save_artifact
from repro.runner import execute_batch, result_bytes
from repro.runner.spec import RunSpec
from repro.sim.engine import ThermalMode
from repro.workloads.generator import synthesize

#: The sweep: 4 synthetic workloads x 2 cooling modes x 2 seeds.
N_RUNS = 16
#: Simulated seconds per run (~200 control intervals each).
DURATION_S = 20.0
FLOOR = 3.0
#: Interleaved serial/batched pairs; each side keeps its fastest run.
PAIRS = 3


def _sweep_specs(modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN)):
    specs = []
    for index in range(N_RUNS):
        category = ("high", "medium")[index % 2]
        mode = modes[(index // 2) % 2]
        workload = synthesize(
            category, DURATION_S, threads=2, seed=index % 4
        )
        specs.append(
            RunSpec(
                workload=workload,
                mode=mode,
                max_duration_s=2.0 * DURATION_S,
                seed=1000 + index,
            )
        )
    return specs


def measure_sweep(specs, models=None):
    """Best-of-:data:`PAIRS` serial and batched seconds; asserts equality."""
    (serial_s, batched_s), (serial, batched) = best_of_interleaved(
        PAIRS,
        lambda: execute_batch(specs, models=models, batch_size=1),
        lambda: execute_batch(specs, models=models, batch_size=N_RUNS),
    )
    # the speedup must never buy a different answer
    for one, many in zip(serial, batched):
        assert [result_bytes(r) for r in one] == [
            result_bytes(r) for r in many
        ]
    return serial_s, batched_s


def test_batched_sweep_is_3x_faster_than_serial_loop():
    serial_s, batched_s = measure_sweep(_sweep_specs())
    speedup = serial_s / batched_s
    save_artifact(
        "perf_batch.txt",
        "batched plant core, %d-run sweep x %.0f simulated seconds\n"
        "serial per-run loop (batch=1):  %8.2f s  (best of %d)\n"
        "batched lock-step (batch=%d):   %8.2f s  (best of %d)\n"
        "speedup: %.1fx (floor %.0fx, results byte-identical)"
        % (N_RUNS, DURATION_S, serial_s, PAIRS, N_RUNS, batched_s, PAIRS,
           speedup, FLOOR),
    )
    assert speedup >= FLOOR, "batched sweep only %.1fx faster" % speedup
