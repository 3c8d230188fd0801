"""Batch/serial equivalence: the batched plant's core contract.

A :class:`BatchSimulator` over a mixed batch of modes, workloads, seeds
and durations must produce traces *byte-identical* to the same runs
executed one at a time -- which also keeps cache content byte-identical,
so batching can never change what lands in (or comes out of) the
content-addressed store.  These tests pin that contract end-to-end and
per kernel (thermal step, power evaluation, fan controller, sensors).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.platform.fan import Fan, FanSpeed, FanThresholds
from repro.platform.soc import ExynosSoc
from repro.platform.specs import POWER_RESOURCES, PlatformSpec, Resource
from repro.platform.state import BatchPlant, PlantState
from repro.power.batch import BatchPowerModel
from repro.runner import (
    ExperimentMatrix,
    ParallelRunner,
    ResultCache,
    execute_batch,
    plan_batches,
    result_bytes,
)
from repro.runner.execute import default_batch
from repro.runner.spec import RunSpec
from repro.sim.engine import BatchSimulator, Simulator, ThermalMode
from repro.thermal import floorplan, kernels
from repro.units import celsius_to_kelvin
from repro.workloads.generator import synthesize


def _mixed_sims():
    """A deliberately heterogeneous batch: modes, seeds, durations, warm
    starts -- including a lane that hits its duration cap early."""
    recipes = [
        ("high", ThermalMode.DEFAULT_WITH_FAN, 1, 40.0, None),
        ("high", ThermalMode.NO_FAN, 2, 30.0, 48.0),
        ("medium", ThermalMode.REACTIVE, 3, 25.0, 52.0),
        ("low", ThermalMode.DEFAULT_WITH_FAN, 4, 35.0, 52.0),
        ("high", ThermalMode.NO_FAN, 5, 8.0, 60.0),  # duration-capped
    ]
    sims = []
    for category, mode, seed, duration, warm in recipes:
        workload = synthesize(category, 18.0, threads=2, seed=seed)
        sims.append(
            Simulator(
                workload,
                mode,
                max_duration_s=duration,
                seed=seed * 11,
                warm_start_c=warm,
            )
        )
    return sims


def test_mixed_batch_byte_identical_to_serial_runs():
    serial = [sim.run() for sim in _mixed_sims()]
    batched = BatchSimulator(_mixed_sims()).run()
    assert len(serial) == len(batched)
    for one, many in zip(serial, batched):
        assert result_bytes(one) == result_bytes(many)


def test_dtpm_lane_in_batch_byte_identical(models):
    """DTPM lanes of one batch differ in constraint, guard band, sensor
    noise (so the per-lane RNG draw sizes differ) and in what the control
    plane does -- intervene, migrate to little, return to big -- and still
    match their standalone runs byte for byte."""
    from repro.config import SimulationConfig
    from repro.runner import make_dtpm_governor

    recipes = [
        # (category, seed, t_constraint_c, guard_band_k, warm, noise)
        ("high", 3, 58.0, 0.75, 60.0, {}),
        ("high", 3, 60.0, 2.0, 62.0, {"temp_sensor_noise_c": 0.0}),
        ("medium", 3, 56.0, 0.0, 62.0, {"power_sensor_noise_rel": 0.0}),
        ("high", 1, 63.0, 0.75, 52.0, {}),
        ("high", 2, 63.0, 0.75, 52.0, {}),
    ]

    def sims():
        out = []
        for category, seed, t_c, guard, warm, noise in recipes:
            config = SimulationConfig(t_constraint_c=t_c, **noise)
            out.append(
                Simulator(
                    synthesize(category, 12.0, threads=2, seed=seed),
                    ThermalMode.DTPM,
                    dtpm=make_dtpm_governor(
                        models, config=config, guard_band_k=guard
                    ),
                    config=config,
                    max_duration_s=25.0,
                    seed=seed,
                    warm_start_c=warm,
                )
            )
        out.append(
            Simulator(
                synthesize("medium", 12.0, threads=2, seed=9),
                ThermalMode.NO_FAN,
                max_duration_s=20.0,
                seed=9,
            )
        )
        return out

    serial = [sim.run() for sim in sims()]
    batched = BatchSimulator(sims()).run()
    for one, many in zip(serial, batched):
        assert result_bytes(one) == result_bytes(many)

    # the batch really exercised every branch of the control plane
    steps = [np.diff(r.trace.column("cluster_is_big")) for r in batched[:5]]
    assert all(r.interventions > 0 for r in batched[:3])
    assert any(r.violations_predicted < len(r.trace) for r in batched[:5])
    assert any(np.any(d < 0) for d in steps), "no lane migrated to little"
    assert any(np.any(d > 0) for d in steps), "no lane returned to big"


def test_batch_validation_errors():
    sims = _mixed_sims()
    with pytest.raises(ConfigurationError):
        BatchSimulator([])
    with pytest.raises(ConfigurationError):
        BatchSimulator([sims[0], sims[0]])  # one sim, twice
    slower = Simulator(
        synthesize("high", 10.0, seed=1),
        ThermalMode.NO_FAN,
        config=sims[0].config.with_(control_period_s=0.2),
    )
    with pytest.raises(ConfigurationError):
        BatchSimulator([sims[0], slower])


# ---------------------------------------------------------------------------
# kernels, lane for lane
# ---------------------------------------------------------------------------
def test_thermal_step_batch_is_lane_independent(rng):
    network = floorplan.build_exynos_network(298.15)
    n = network.num_nodes
    batch = 13
    temps = 295.0 + 60.0 * rng.random((batch, n))
    powers = 3.0 * rng.random((batch, n))
    gains = np.array([1.0, 1.15, 2.6, 3.6])[rng.integers(0, 4, size=batch)]
    full = network.step_batch(temps, powers, 0.01, gains)
    for lane in range(batch):
        alone = network.step_batch(
            temps[lane : lane + 1],
            powers[lane : lane + 1],
            0.01,
            gains[lane : lane + 1],
        )
        assert np.array_equal(alone[0], full[lane])


def test_scalar_network_step_is_b1_view(rng):
    a = floorplan.build_exynos_network(298.15)
    b = floorplan.build_exynos_network(298.15)
    temps = 295.0 + 60.0 * rng.random(a.num_nodes)
    a.set_temperatures_k(temps)
    powers = 3.0 * rng.random(a.num_nodes)
    stepped = a.step(powers, 0.01)
    batched = b.step_batch(
        temps[np.newaxis, :], powers[np.newaxis, :], 0.01, np.array([1.0])
    )
    assert np.array_equal(stepped, batched[0])


def test_batch_power_matches_scalar_soc(rng):
    spec = PlatformSpec()
    model = BatchPowerModel(spec)
    lanes = []
    for _ in range(10):
        soc = ExynosSoc(spec)
        if rng.integers(0, 2):
            soc.switch_cluster(Resource.LITTLE)
        cluster = soc.active_cpu()
        cluster.set_num_online(int(rng.integers(1, 5)))
        soc.big.set_frequency(float(rng.choice(spec.big_opp.frequencies_hz)))
        soc.little.set_frequency(
            float(rng.choice(spec.little_opp.frequencies_hz))
        )
        soc.gpu.set_frequency(float(rng.choice(spec.gpu_opp.frequencies_hz)))
        soc.gpu.set_utilisation(float(rng.random()))
        soc.mem.set_traffic(float(rng.random()))
        lanes.append(
            (soc, rng.random(4), rng.random(4), 0.5 + float(rng.random()),
             0.5 + float(rng.random()))
        )
    temps = {k: 300.0 + 60.0 * rng.random(len(lanes))
             for k in ("big", "little", "gpu", "mem")}
    cores = spec.cores_per_cluster
    inputs = model.interval_inputs(
        np.array([soc.big.active for soc, *_ in lanes]),
        np.array([soc.big.frequency_hz for soc, *_ in lanes]),
        np.array([soc.little.frequency_hz for soc, *_ in lanes]),
        np.array([soc.gpu.frequency_hz for soc, *_ in lanes]),
        np.array([[soc.big.is_online(c) for c in range(cores)]
                  for soc, *_ in lanes]),
        np.array([[soc.little.is_online(c) for c in range(cores)]
                  for soc, *_ in lanes]),
        np.array([bu for _, bu, *_ in lanes]),
        np.array([lu for _, _, lu, *_ in lanes]),
        np.array([soc.gpu.utilisation for soc, *_ in lanes]),
        np.array([soc.mem.traffic for soc, *_ in lanes]),
        np.array([ca for *_, ca, _ in lanes]),
        np.array([ga for *_, ga in lanes]),
    )
    out = model.evaluate(
        inputs, temps["big"], temps["little"], temps["gpu"], temps["mem"]
    )
    for b, (soc, big_u, little_u, cpu_act, gpu_act) in enumerate(lanes):
        ref = soc.power_state(
            {k: float(v[b]) for k, v in temps.items()},
            tuple(big_u),
            tuple(little_u),
            cpu_act,
            gpu_act,
        )
        assert np.array_equal(ref.resource_vector_w(), out.powers_w[b])
        assert np.array_equal(
            ref.big_core_powers_w, out.big_core_powers_w[b]
        )
        assert ref.total_w == out.soc_total_w[b]


def test_batched_fan_controller_matches_scalar(rng):
    spec = PlatformSpec()
    batch = 8
    fans = [
        Fan(spec.fan_power_w, spec.fan_conductance_gain, FanThresholds(),
            enabled=(lane % 4 != 3))
        for lane in range(batch)
    ]

    from repro.platform.board import OdroidBoard

    boards = [OdroidBoard(spec) for _ in range(batch)]
    plant = BatchPlant(boards)
    state = PlantState.gather(boards)
    state.fan_enabled = np.array([f.enabled for f in fans])
    state.fan_speed = np.array([int(f.speed) for f in fans])
    # a hot ramp up and back down sweeps every threshold + hysteresis edge
    ramp_c = np.concatenate([np.linspace(40, 80, 30), np.linspace(80, 40, 30)])
    for base_c in ramp_c:
        max_hot_k = celsius_to_kelvin(base_c) + 3.0 * rng.random(batch)
        expected = [f.update(float(t)) for f, t in zip(fans, max_hot_k)]
        state.fan_speed = kernels.fan_step(
            state.fan_speed, state.fan_enabled, max_hot_k,
            plant._fan_up_k, plant._fan_hyst_k,
        )
        assert [FanSpeed(int(s)) for s in state.fan_speed] == expected


def test_sensor_read_all_matches_scalar_reads(rng):
    from repro.platform.sensors import SensorBank

    for sigma, quantum, rel in [(0.15, 0.25, 0.01), (0.0, 0.25, 0.0),
                                (0.15, 0.0, 0.01), (0.0, 0.0, 0.0)]:
        scalar_bank = SensorBank(
            np.random.default_rng(42), temp_noise_k=sigma,
            temp_quantum_k=quantum, power_noise_rel=rel,
        )
        vector_bank = SensorBank(
            np.random.default_rng(42), temp_noise_k=sigma,
            temp_quantum_k=quantum, power_noise_rel=rel,
        )
        for _ in range(20):
            temps = 300.0 + 50.0 * rng.random(4)
            powers = 4.0 * rng.random(4)
            expected_t = scalar_bank.read_temperatures(temps)
            expected_p = scalar_bank.read_powers(powers)
            got_t, got_p = vector_bank.read_all(temps, powers)
            assert np.array_equal(expected_t, got_t)
            assert np.array_equal(expected_p, got_p)


def test_state_space_batched_prediction_matches_scalar(models, rng):
    thermal = models.thermal
    temps = 300.0 + 40.0 * rng.random((7, thermal.num_states))
    powers = 4.0 * rng.random((7, thermal.num_inputs))
    batched = thermal.predict_next_batch(temps, powers)
    for lane in range(temps.shape[0]):
        assert np.array_equal(
            thermal.predict_next(temps[lane], powers[lane]), batched[lane]
        )


def _sensor_banks(seed):
    from repro.platform.sensors import SensorBank

    settings = [(0.15, 0.25, 0.01), (0.0, 0.25, 0.01), (0.15, 0.25, 0.0),
                (0.0, 0.0, 0.0), (0.3, 0.0, 0.02)]
    return [
        SensorBank(
            np.random.default_rng(seed + lane), temp_noise_k=sigma,
            temp_quantum_k=quantum, power_noise_rel=rel,
        )
        for lane, (sigma, quantum, rel) in enumerate(settings)
    ]


def test_sensor_read_all_batch_matches_per_lane_reads(rng):
    from repro.platform.sensors import SensorBank

    batch_banks, lane_banks = _sensor_banks(7), _sensor_banks(7)
    for _ in range(20):
        temps = 300.0 + 50.0 * rng.random((len(batch_banks), 4))
        powers = 4.0 * rng.random((len(batch_banks), 4))
        got_t, got_p = SensorBank.read_all_batch(batch_banks, temps, powers)
        for lane, bank in enumerate(lane_banks):
            want_t, want_p = bank.read_all(temps[lane], powers[lane])
            assert np.array_equal(got_t[lane], want_t)
            assert np.array_equal(got_p[lane], want_p)
    with pytest.raises(ConfigurationError):
        SensorBank.read_all_batch(batch_banks, temps[:, :3], powers)
    with pytest.raises(ConfigurationError):
        SensorBank.read_all_batch(batch_banks[:2], temps, powers)


def _lane_configs(rng, n):
    from repro.governors.base import PlatformConfig

    spec = PlatformSpec()
    return [
        PlatformConfig(
            cluster=(Resource.BIG, Resource.LITTLE)[int(rng.random() < 0.3)],
            big_freq_hz=float(rng.choice(spec.big_opp.frequencies_hz)),
            little_freq_hz=float(rng.choice(spec.little_opp.frequencies_hz)),
            gpu_freq_hz=float(rng.choice(spec.gpu_opp.frequencies_hz)),
            big_online=int(rng.integers(3, 5)),
            little_online=4,
        )
        for _ in range(n)
    ]


def test_observe_vector_batch_matches_scalar(models, rng):
    from repro.core.dtpm import DtpmGovernor
    from repro.power.model import PowerModel
    from repro.runner import make_dtpm_governor

    lanes = 6
    batch_govs = [make_dtpm_governor(models) for _ in range(lanes)]
    lane_govs = [make_dtpm_governor(models) for _ in range(lanes)]
    for _ in range(15):
        configs = _lane_configs(rng, lanes)
        powers = 3.0 * rng.random((lanes, 4)) + 0.01
        t_hot = 310.0 + 40.0 * rng.random(lanes)
        vdd, freq, active = DtpmGovernor.operating_arrays(batch_govs, configs)
        leak, dynamic = PowerModel.observe_vector_batch(
            [g.power_model for g in batch_govs], powers, t_hot, vdd, freq,
            active,
        )
        for lane, gov in enumerate(lane_govs):
            out = gov.power_model.observe_vector(
                powers[lane], float(t_hot[lane]),
                gov.operating_point(configs[lane]),
            )
            for i, resource in enumerate(POWER_RESOURCES):
                if not active[lane, i]:
                    assert resource not in out
                    continue
                assert out[resource].leakage_w == leak[lane, i]
                assert out[resource].dynamic_w == dynamic[lane, i]
    for batch_gov, lane_gov in zip(batch_govs, lane_govs):
        for resource in POWER_RESOURCES:
            a = batch_gov.power_model[resource].dynamic.estimator
            b = lane_gov.power_model[resource].dynamic.estimator
            assert (a.alpha_c_f, a.sample_count) == (b.alpha_c_f, b.sample_count)


def test_observe_vector_equals_per_resource_update_on_opp_voltages(
    models, rng
):
    """The batched EWMA squares vdd with NumPy (``vdd * vdd``); the scalar
    estimator with Python's ``pow``.  The two agree on every OPP voltage
    of the platform, which is what keeps the alpha*C stream unchanged."""
    from repro.runner import make_dtpm_governor

    spec = PlatformSpec()
    for table in (spec.big_opp, spec.little_opp, spec.gpu_opp):
        volts = [table.voltage(f) for f in table.frequencies_hz]
        assert [v ** 2 for v in volts] == (np.array(volts) ** 2).tolist()
    assert spec.mem_vdd ** 2 == float(np.array(spec.mem_vdd) ** 2)

    vector_gov, scalar_gov = make_dtpm_governor(models), make_dtpm_governor(models)
    for config in _lane_configs(rng, 20):
        powers = 3.0 * rng.random(4) + 0.01
        t_hot = 310.0 + 40.0 * float(rng.random())
        point = vector_gov.operating_point(config)
        vector_gov.power_model.observe_vector(powers, t_hot, point)
        for i, resource in enumerate(POWER_RESOURCES):
            if point.for_resource(resource) is not None:
                vdd, freq = point.for_resource(resource)
                scalar_gov.power_model[resource].observe(
                    float(powers[i]), t_hot, vdd, freq
                )
        for resource in POWER_RESOURCES:
            assert (
                vector_gov.power_model[resource].dynamic.estimator.alpha_c_f
                == scalar_gov.power_model[resource].dynamic.estimator.alpha_c_f
            )


def test_predict_n_constant_batch_matches_scalar(models, rng):
    thermal = models.thermal
    temps = 300.0 + 40.0 * rng.random((9, thermal.num_states))
    powers = 4.0 * rng.random((9, thermal.num_inputs))
    for n in (1, 3, 10):
        batched = thermal.predict_n_constant_batch(temps, powers, n)
        for lane in range(temps.shape[0]):
            assert np.array_equal(
                thermal.predict_n_constant(temps[lane], powers[lane], n),
                batched[lane],
            )
            # the B=1 view equals the pre-batching scalar formula
            a_n, m_n, s_n = thermal.horizon_matrices(n)
            assert np.array_equal(
                a_n @ temps[lane] + m_n @ powers[lane] + s_n @ thermal.offset,
                batched[lane],
            )


def test_horizon_matrices_memoised_and_read_only(models):
    thermal = models.thermal
    first = thermal.horizon_matrices(7)
    again = thermal.horizon_matrices(7)
    for a, b in zip(first, again):
        assert a is b
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    assert thermal.horizon_matrices(8)[0] is not first[0]


def test_forecast_batch_matches_scalar(models, rng):
    from repro.core.predictor import ThermalPredictor

    thermal = models.thermal
    predictors = [
        ThermalPredictor(thermal, horizon_steps=h, guard_band_k=g)
        for h, g in [(10, 0.0), (10, 0.75), (5, 2.0), (10, 0.5), (1, 0.0)]
    ]
    lanes = len(predictors)
    for _ in range(10):
        temps = 320.0 + 20.0 * rng.random((lanes, 4))
        powers = 3.0 * rng.random((lanes, 4))
        limits = 330.0 + 10.0 * rng.random(lanes)
        batched = ThermalPredictor.forecast_batch(
            predictors, temps, powers, limits
        )
        for lane, predictor in enumerate(predictors):
            want = predictor.forecast(temps[lane], powers[lane], limits[lane])
            got = batched[lane]
            assert np.array_equal(want.temps_k, got.temps_k)
            assert (want.max_temp_k, want.hottest_core, want.violation,
                    want.margin_k) == (got.max_temp_k, got.hottest_core,
                                       got.violation, got.margin_k)


def test_control_batch_matches_scalar(models, rng):
    from repro.config import SimulationConfig
    from repro.core.dtpm import DtpmGovernor
    from repro.platform.board import SensorSnapshot
    from repro.runner import make_dtpm_governor

    recipes = [(63.0, 0.75), (58.0, 0.0), (60.0, 2.0), (55.0, 0.5)]

    def governors():
        return [
            make_dtpm_governor(
                models, config=SimulationConfig(t_constraint_c=t_c),
                guard_band_k=guard,
            )
            for t_c, guard in recipes
        ]

    batch_govs, lane_govs = governors(), governors()
    lanes = len(recipes)
    intervened = quiet = 0
    for step in range(40):
        currents = _lane_configs(rng, lanes)
        proposals = _lane_configs(rng, lanes)
        snapshots = [
            SensorSnapshot(
                time_s=0.1 * step,
                temperatures_k=celsius_to_kelvin(50.0 + 15.0 * rng.random(4)),
                powers_w=np.array([2.5, 0.3, 0.4, 0.3]) * rng.random(4) + 0.01,
                platform_power_w=4.0,
            )
            for _ in range(lanes)
        ]
        gpu = [bool(rng.random() < 0.5) for _ in range(lanes)]
        batched = DtpmGovernor.control_batch(
            batch_govs, snapshots, currents, proposals, gpu
        )
        for lane, gov in enumerate(lane_govs):
            want = gov.control(
                snapshots[lane], currents[lane], proposals[lane], gpu[lane]
            )
            got = batched[lane]
            assert want.config == got.config
            assert want.violation_predicted == got.violation_predicted
            assert want.forecast.margin_k == got.forecast.margin_k
            assert want.budget == got.budget
            assert (want.decision is None) == (got.decision is None)
            if want.decision is not None:
                assert want.decision.actions == got.decision.actions
            intervened += int(got.intervened)
            quiet += int(not got.violation_predicted)
    assert intervened > 0 and quiet > 0


# ---------------------------------------------------------------------------
# runner-level packing
# ---------------------------------------------------------------------------
def _grid_specs():
    workloads = [synthesize(c, 15.0, threads=2, seed=s)
                 for s, c in enumerate(("high", "medium", "low"))]
    matrix = ExperimentMatrix(
        workloads=tuple(workloads),
        modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
        max_duration_s=25.0,
        base_seed=100,
    )
    return matrix.specs()


def test_execute_batch_byte_identical_to_unbatched():
    specs = _grid_specs()
    unbatched = execute_batch(specs, batch_size=1)
    batched = execute_batch(specs, batch_size=4)
    assert len(unbatched) == len(batched) == len(specs)
    for one, many in zip(unbatched, batched):
        assert [result_bytes(r) for r in one] == [result_bytes(r) for r in many]


def test_batched_runner_fills_cache_identically(tmp_path):
    specs = _grid_specs()
    cache = ResultCache(root=str(tmp_path))
    batched = ParallelRunner(cache=cache, batch=4)
    batched_results = batched.run(specs)
    assert batched.last_stats.executed == len(specs)

    # a serial, unbatched runner answers the same grid entirely from the
    # cache the batched one filled: batching changed no content keys
    serial = ParallelRunner(cache=ResultCache(root=str(tmp_path)), batch=1)
    cached_results = serial.run(specs)
    assert serial.last_stats.executed == 0
    assert serial.last_stats.cache_hits == len(specs)
    for fresh, cached in zip(batched_results, cached_results):
        assert result_bytes(fresh) == result_bytes(cached)


def test_plan_batches_groups_only_compatible_specs():
    workload = synthesize("high", 10.0, seed=1)
    other = synthesize("medium", 10.0, seed=2)
    plain = [
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=i)
        for i in range(3)
    ]
    scheduled = [
        RunSpec(
            workload=other, mode=ThermalMode.NO_FAN, history=(workload,),
            seed=i,
        )
        for i in range(2)
    ]
    longer = RunSpec(
        workload=other,
        mode=ThermalMode.NO_FAN,
        history=(workload, workload),
    )
    from repro.config import SimulationConfig

    different_shape = RunSpec(
        workload=other,
        mode=ThermalMode.NO_FAN,
        config=SimulationConfig(ambient_c=30.0),
    )
    specs = [
        plain[0], scheduled[0], plain[1], different_shape, plain[2],
        scheduled[1], longer,
    ]
    jobs = plan_batches(specs, batch_size=8)
    assert [0, 2, 4] in jobs  # compatible plain specs pack together
    assert [1, 5] in jobs  # same-shape same-length schedules lock-step
    assert [3] in jobs  # a different plant shape cannot lock-step
    assert [6] in jobs  # a different chain length keeps positions aligned
    # chunking respects the batch width
    jobs = plan_batches([plain[0], plain[1], plain[2]], batch_size=2)
    assert jobs == [[0, 1], [2]]
    # batch_size=1 disables packing entirely (the pre-batching behaviour)
    assert plan_batches(specs, batch_size=1) == [[i] for i in range(len(specs))]


def _scheduled_matrix():
    a = synthesize("medium", 10.0, threads=2, seed=31)
    b = synthesize("high", 10.0, threads=4, seed=32)
    return ExperimentMatrix(
        schedules=((a, b), (b, a)),
        modes=(ThermalMode.DEFAULT_WITH_FAN, ThermalMode.NO_FAN),
        idle_gap_s=3.0,
        max_duration_s=20.0,
        base_seed=500,
    )


def test_scheduled_matrix_batched_equals_serial_with_dtpm(models):
    """Mixed chain positions with DTPM lanes: batch width changes nothing."""
    a = synthesize("medium", 10.0, threads=2, seed=31)
    b = synthesize("high", 10.0, threads=4, seed=32)
    specs = [
        RunSpec(workload=b, mode=ThermalMode.DTPM, history=(a,),
                idle_gap_s=4.0, seed=61, max_duration_s=20.0),
        RunSpec(workload=a, mode=ThermalMode.DTPM, history=(b,),
                seed=62, max_duration_s=20.0),
        RunSpec(workload=a, mode=ThermalMode.NO_FAN, history=(a,),
                idle_gap_s=4.0, seed=63, max_duration_s=20.0),
        # a mixed-mode chain: stock governor first, DTPM-managed second
        RunSpec(workload=b, mode=ThermalMode.DTPM, history=(a,),
                history_modes=(ThermalMode.NO_FAN,), seed=64,
                max_duration_s=20.0),
    ]
    serial = execute_batch(specs, models=models, batch_size=1)
    batched = execute_batch(specs, models=models, batch_size=8)
    for one, many in zip(serial, batched):
        assert [result_bytes(r) for r in one] == [
            result_bytes(r) for r in many
        ]


def test_warm_batched_scheduled_matrix_executes_zero_sims(tmp_path):
    matrix = _scheduled_matrix()
    cold = ParallelRunner(cache=ResultCache(root=str(tmp_path)), batch=4)
    cold_results = cold.run(matrix)
    assert cold.last_stats.executed == len(matrix)

    warm = ParallelRunner(cache=ResultCache(root=str(tmp_path)), batch=4)
    warm_results = warm.run(matrix)
    assert warm.last_stats.executed == 0
    assert warm.last_stats.cache_hits == len(matrix)

    # the serial, unbatched chain path reads the very same entries back:
    # scheduled batching changed no content keys
    serial = ParallelRunner(cache=ResultCache(root=str(tmp_path)), batch=1)
    serial_results = serial.run(matrix)
    assert serial.last_stats.executed == 0
    for fresh, cached, lone in zip(
        cold_results, warm_results, serial_results
    ):
        assert result_bytes(fresh) == result_bytes(cached)
        assert result_bytes(fresh) == result_bytes(lone)


def test_board_power_state_restored_after_batched_run():
    serial_sim, batch_sim = _mixed_sims()[0], _mixed_sims()[0]
    serial_sim.run()
    BatchSimulator([batch_sim]).run()
    for sim in (serial_sim, batch_sim):
        state = sim.board._last_power_state
        assert state is not None and state.total_w > 0
        assert sim.board.true_platform_power_w() > sim.spec.platform_static_power_w
    assert np.array_equal(
        serial_sim.board._last_power_state.resource_vector_w(),
        batch_sim.board._last_power_state.resource_vector_w(),
    )
    assert np.array_equal(
        serial_sim.board._last_power_state.big_core_powers_w,
        batch_sim.board._last_power_state.big_core_powers_w,
    )


def test_pool_path_caps_batch_to_keep_workers_busy(monkeypatch):
    import repro.runner.runner as runner_mod

    captured = {}
    real_plan = runner_mod.plan_batches

    def spy(specs, batch_size):
        captured["batch"] = batch_size
        return real_plan(specs, batch_size)

    monkeypatch.setattr(runner_mod, "plan_batches", spy)
    workload = synthesize("low", 8.0, threads=1, seed=5)
    specs = [
        RunSpec(workload=workload, mode=ThermalMode.NO_FAN, seed=s,
                max_duration_s=12.0)
        for s in range(4)
    ]
    pooled = ParallelRunner(workers=2, batch=8)
    pooled_results = pooled.run(specs)
    # 4 specs over 2 workers: the plan must hand each worker work
    assert captured["batch"] == 2
    serial = ParallelRunner(batch=1)
    for fresh, lone in zip(pooled_results, serial.run(specs)):
        assert result_bytes(fresh) == result_bytes(lone)


def test_default_batch_env_knob(monkeypatch):
    from repro.runner.execute import BATCH_ENV, DEFAULT_BATCH

    monkeypatch.delenv(BATCH_ENV, raising=False)
    assert default_batch() == DEFAULT_BATCH
    monkeypatch.setenv(BATCH_ENV, "3")
    assert default_batch() == 3
    assert ParallelRunner().batch == 3
    monkeypatch.setenv(BATCH_ENV, "zero")
    with pytest.raises(ConfigurationError):
        default_batch()
    monkeypatch.setenv(BATCH_ENV, "0")
    with pytest.raises(ConfigurationError):
        default_batch()
