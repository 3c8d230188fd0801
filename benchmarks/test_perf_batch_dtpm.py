"""Perf: batched DTPM control plane vs the serial per-run loop.

The :mod:`test_perf_batch` sweep with every run in DTPM mode.  Besides
the plant, each control interval now reads the sensors, updates the
alpha*C power model and forecasts the horizon temperature of all lanes
in one batched call (:meth:`~repro.core.dtpm.DtpmGovernor.control_batch`),
so the batched sweep must beat the serial loop by the same >= 3x as the
plant-only sweep -- with byte-identical results.  Timing is best of
interleaved pairs, as in :mod:`test_perf_batch`.
"""

from conftest import save_artifact
from repro.sim.engine import ThermalMode
from test_perf_batch import (
    DURATION_S,
    FLOOR,
    N_RUNS,
    PAIRS,
    _sweep_specs,
    measure_sweep,
)


def test_batched_dtpm_sweep_is_3x_faster_than_serial_loop(models):
    specs = _sweep_specs(modes=(ThermalMode.DTPM, ThermalMode.DTPM))
    serial_s, batched_s = measure_sweep(specs, models)
    speedup = serial_s / batched_s
    save_artifact(
        "perf_batch_dtpm.txt",
        "batched DTPM control plane, %d-run sweep x %.0f simulated seconds\n"
        "serial per-run loop (batch=1):  %8.2f s  (best of %d)\n"
        "batched lock-step (batch=%d):   %8.2f s  (best of %d)\n"
        "speedup: %.1fx (floor %.0fx, results byte-identical)"
        % (N_RUNS, DURATION_S, serial_s, PAIRS, N_RUNS, batched_s, PAIRS,
           speedup, FLOOR),
    )
    assert speedup >= FLOOR, (
        "batched DTPM sweep only %.1fx faster" % speedup
    )
