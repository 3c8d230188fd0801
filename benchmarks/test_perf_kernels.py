"""Perf: fused interval kernels vs the per-substep-power batched loop.

Tracks the wall-clock win of the fused exponential-integrator kernels
(:mod:`repro.thermal.kernels`): one zero-order-hold power evaluation and
one propagator chain per control interval, against the previous batched
hot loop that re-evaluated power, regrouped discretisations and stepped
the fan automaton at every thermal substep.  That loop is no longer part
of the plant, so the baseline below is a self-contained transcription of
it.  The floor is a >= 3x kernel-level win on a 16-lane plant, timed as
the best of interleaved pairs; the artifact records the measured numbers
so the perf trajectory stays visible across PRs.

The benchmark also re-asserts the fused path's parity contract (fused ==
the per-substep :func:`~repro.thermal.kernels.substep_loop` reference,
byte-for-byte) on the exact states it times, so the perf number can
never drift away from correctness.
"""

import functools
import time

import numpy as np
from conftest import save_artifact

from repro.platform.board import OdroidBoard
from repro.platform.specs import PlatformSpec
from repro.platform.state import BatchPlant
from repro.thermal import kernels
from repro.units import celsius_to_kelvin

#: Lanes in the batched plant (matches the perf_batch sweep width).
BATCH = 16
#: Control intervals advanced per timed leg (x10 substeps each).
INTERVALS = 400
#: Interleaved (baseline, fused) timing pairs; the best of each counts.
PAIRS = 3


def _plant():
    spec = PlatformSpec()
    boards = [
        OdroidBoard(spec, rng=np.random.default_rng(100 + b))
        for b in range(BATCH)
    ]
    for b, board in enumerate(boards):
        board.warm_start(40.0 + 2.0 * b)  # spread across the fan bands
    return BatchPlant(boards), boards


def _per_substep_power_interval(
    plant, state, lanes, big, little, cpu, gpu, dt_s, substeps
):
    """The removed per-substep-power interval, transcribed.

    Power is re-evaluated at every substep's temperatures and the RC
    network steps through ``step_batch`` with the current cooling gain;
    the fan automaton and the meter run after every substep.
    """
    batch = state.batch
    noise = np.zeros((batch, substeps))
    for i, lane in enumerate(lanes):
        meter = plant.boards[lane].meter
        if meter.relative_noise > 0:
            noise[i] = plant.boards[lane].rng.normal(
                0.0, meter.relative_noise, size=substeps
            )
    inputs = plant.power.interval_inputs(
        state.active_is_big, state.big_freq_hz, state.little_freq_hz,
        state.gpu_freq_hz, state.big_online, state.little_online,
        big, little, state.gpu_util, state.mem_traffic, cpu, gpu,
    )
    network = plant.network
    temps = state.temps_k
    for k in range(substeps):
        ps = plant.power.evaluate(
            inputs,
            np.mean(temps[:, plant._hot_idx], axis=1),
            temps[:, plant._little_idx],
            temps[:, plant._gpu_idx],
            temps[:, plant._mem_idx],
        )
        node_p = np.zeros((batch, network.num_nodes))
        node_p[:, plant._hot_idx] = ps.big_core_powers_w
        node_p[:, plant._little_idx] = ps.powers_w[:, 1]
        node_p[:, plant._gpu_idx] = ps.powers_w[:, 2]
        node_p[:, plant._mem_idx] = ps.powers_w[:, 3]
        temps = network.step_batch(temps, node_p, dt_s, state.cooling_gain)

        max_hot = np.max(temps[:, plant._hot_idx], axis=1)
        state.fan_speed = kernels.fan_step(
            state.fan_speed, state.fan_enabled, max_hot,
            plant._fan_up_k, plant._fan_hyst_k,
        )
        state.cooling_gain = plant._fan_gain[state.fan_speed]

        true_platform = (
            ps.soc_total_w
            + plant._fan_power_w[state.fan_speed]
            + plant._static_w
        )
        reading = np.maximum(0.0, true_platform * (1.0 + noise[:, k]))
        state.energy_j = state.energy_j + reading * dt_s
        state.meter_elapsed_s = state.meter_elapsed_s + dt_s
        state.last_reading_w = reading
        state.time_s = state.time_s + dt_s
    state.temps_k = temps


def _advance(plant, intervals, per_substep_power=False):
    state = plant.gather(range(BATCH))
    rng = np.random.default_rng(7)
    big = 0.5 + 0.5 * rng.random((BATCH, 4))
    little = np.zeros((BATCH, 4))
    ones = np.ones(BATCH)
    step = (
        functools.partial(_per_substep_power_interval, plant)
        if per_substep_power
        else plant.advance_interval
    )
    for _ in range(intervals):
        step(state, range(BATCH), big, little, ones, ones, 0.01, 10)
    return state


def _timed(plant, per_substep_power):
    t0 = time.perf_counter()
    state = _advance(plant, INTERVALS, per_substep_power)
    return time.perf_counter() - t0, state


def test_fused_kernels_are_3x_faster_than_substep_loop(monkeypatch):
    # parity on the timed configuration: fused == per-substep reference
    # kernel (fresh plants per leg so the meter-noise RNG streams line up)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "advance_held_interval", kernels.substep_loop)
        reference = _advance(_plant()[0], 50)
    fused = _advance(_plant()[0], 50)
    assert np.array_equal(fused.temps_k, reference.temps_k)
    assert np.array_equal(fused.energy_j, reference.energy_j)
    assert np.array_equal(fused.fan_speed, reference.fan_speed)

    plant, _ = _plant()
    # warm both paths (discretisation caches, allocator) before timing
    _advance(plant, 10)
    _advance(plant, 10, per_substep_power=True)

    legacy_s = fused_s = float("inf")
    for _ in range(PAIRS):
        legacy_s = min(legacy_s, _timed(plant, True)[0])
        elapsed, fused_state = _timed(plant, False)
        fused_s = min(fused_s, elapsed)
    assert np.all(fused_state.temps_k > celsius_to_kelvin(25.0))

    speedup = legacy_s / fused_s
    save_artifact(
        "perf_kernels.txt",
        "fused interval kernels, %d-lane plant x %d control intervals, "
        "best of %d interleaved pairs\n"
        "per-substep-power batched loop (transcribed): %8.3f s\n"
        "fused ZOH propagator chain:                   %8.3f s\n"
        "speedup: %.1fx (fused == per-substep reference, byte-identical)"
        % (BATCH, INTERVALS, PAIRS, legacy_s, fused_s, speedup),
    )
    assert speedup >= 3.0, "fused kernels only %.1fx faster" % speedup
