"""DTPM policy: budget-to-configuration mapping (Section 5.2)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.budget import PowerBudgetComputer
from repro.core.policy import DtpmPolicy
from repro.errors import BudgetError
from repro.governors.base import PlatformConfig
from repro.platform.specs import PlatformSpec, Resource
from repro.power.characterization import default_power_model
from repro.thermal.state_space import DiscreteThermalModel
from repro.units import celsius_to_kelvin as c2k, mhz


@pytest.fixture()
def setup():
    spec = PlatformSpec()
    config = SimulationConfig()
    policy = DtpmPolicy(spec, config)
    a = 0.90 * np.eye(4) + 0.02 * (np.ones((4, 4)) - np.eye(4))
    b = np.tile(np.array([0.30, 0.05, 0.10, 0.08]), (4, 1))
    offset = (np.eye(4) - a) @ np.full(4, c2k(25.0))
    model = DiscreteThermalModel(a=a, b=b, offset=offset, ts_s=0.1)
    computer = PowerBudgetComputer(model, horizon_steps=10)
    power_model = default_power_model(spec)
    # give the alpha*C trackers a realistic busy-cluster operating point
    t = c2k(55.0)
    power_model[Resource.BIG].observe(2.3, t, 1.25, 1.6e9)
    power_model[Resource.LITTLE].observe(0.35, t, 1.10, 1.2e9)
    power_model[Resource.GPU].observe(0.3, t, 0.9, 1.77e8)
    return spec, config, policy, computer, power_model


FULL_BIG = PlatformConfig(
    cluster=Resource.BIG,
    big_freq_hz=mhz(1600),
    little_freq_hz=mhz(1200),
    gpu_freq_hz=mhz(533),
    big_online=4,
    little_online=4,
)
TEMPS = np.full(4, c2k(58.0))
POWERS = np.array([2.3, 0.01, 0.3, 0.25])


def _assign(setup, budget_w, proposal=FULL_BIG, temps=TEMPS, gpu_active=False):
    spec, config, policy, computer, power_model = setup

    class _FakeBudget:
        resource = Resource.BIG
        total_budget_w = budget_w

    return policy.assign(
        _FakeBudget(),
        computer,
        power_model,
        temps,
        POWERS,
        proposal,
        c2k(63.0),
        gpu_active,
    )


def test_generous_budget_keeps_proposal(setup):
    decision = _assign(setup, budget_w=10.0)
    assert decision.config == FULL_BIG
    assert not decision.migrated_to_little


def test_moderate_budget_caps_frequency(setup):
    decision = _assign(setup, budget_w=1.6)
    assert decision.config.cluster is Resource.BIG
    assert decision.config.big_freq_hz < mhz(1600)
    assert decision.config.big_freq_hz >= mhz(800)
    assert decision.config.big_online == 4


def test_budget_frequency_is_maximal(setup):
    """The policy picks the *largest* frequency that fits (performance)."""
    spec, config, policy, computer, power_model = setup
    decision = _assign(setup, budget_w=1.6)
    f = decision.config.big_freq_hz
    up = spec.big_opp.step_up(f)
    if up > f:
        power_up = policy.predicted_cluster_power_w(
            power_model, Resource.BIG, up, 4, 4, float(TEMPS.max())
        )
        assert power_up > 1.6


def test_tight_budget_drops_cores(setup):
    # imbalanced temps so Eq. 5.9 selects the hottest core
    temps = np.array([c2k(64.0), c2k(57.0), c2k(57.0), c2k(57.0)])
    decision = _assign(setup, budget_w=0.60, temps=temps)
    assert decision.config.cluster is Resource.BIG
    assert decision.config.big_online == 3
    assert decision.core_turned_off == 0  # hottest core
    assert decision.config.big_freq_hz == mhz(800)


def test_balanced_temps_drop_core_without_eq_5_9(setup):
    temps = np.full(4, c2k(58.0))
    decision = _assign(setup, budget_w=0.60, temps=temps)
    assert decision.config.big_online == 3
    assert decision.core_turned_off is None  # spread < Delta


def test_impossible_budget_migrates_to_little(setup):
    decision = _assign(setup, budget_w=0.05)
    assert decision.migrated_to_little
    assert decision.config.cluster is Resource.LITTLE
    assert decision.config.little_online == 4


def test_gpu_throttled_only_as_last_resort(setup):
    decision = _assign(setup, budget_w=0.05, gpu_active=True)
    assert decision.config.cluster is Resource.LITTLE
    # GPU stepped down one level from its proposal only in the last resort
    if decision.gpu_throttled:
        assert decision.config.gpu_freq_hz < FULL_BIG.gpu_freq_hz


def test_f_budget_closed_form(setup):
    spec, config, policy, computer, power_model = setup
    alpha_c = power_model[Resource.BIG].dynamic.estimator.alpha_c_f
    vdd = spec.big_opp.voltage(spec.big_opp.f_max_hz)
    budget = 1.0
    f = policy.f_budget_hz(power_model, Resource.BIG, budget)
    assert f == pytest.approx(budget / (alpha_c * vdd ** 2))


def test_best_frequency_none_when_budget_below_fmin_power(setup):
    spec, config, policy, computer, power_model = setup
    f = policy.best_frequency_for_budget(
        power_model, Resource.BIG, 0.01, 4, 4, c2k(58.0)
    )
    assert f is None


def test_return_to_big_requires_sustained_headroom(setup):
    spec, config, policy, computer, power_model = setup
    policy.return_hold_intervals = 3
    little_cfg = FULL_BIG.with_(cluster=Resource.LITTLE)
    cool = np.full(4, c2k(40.0))
    powers = np.array([0.01, 0.3, 0.2, 0.2])
    outcomes = [
        policy.consider_return_to_big(
            computer, power_model, cool, powers, little_cfg, c2k(63.0)
        )
        for _ in range(3)
    ]
    assert outcomes[0] is None and outcomes[1] is None
    assert outcomes[2] is not None
    assert outcomes[2].migrated_to_big
    assert outcomes[2].config.cluster is Resource.BIG
    assert outcomes[2].config.big_online == config.min_big_cores


def test_return_counter_resets_when_hot(setup):
    spec, config, policy, computer, power_model = setup
    policy.return_hold_intervals = 2
    little_cfg = FULL_BIG.with_(cluster=Resource.LITTLE)
    cool = np.full(4, c2k(40.0))
    hot = np.full(4, c2k(62.5))
    powers = np.array([0.01, 0.3, 0.2, 0.2])
    assert policy.consider_return_to_big(
        computer, power_model, cool, powers, little_cfg, c2k(63.0)
    ) is None
    # hot interval resets the counter
    policy.consider_return_to_big(
        computer, power_model, hot, powers, little_cfg, c2k(63.0)
    )
    assert policy.consider_return_to_big(
        computer, power_model, cool, powers, little_cfg, c2k(63.0)
    ) is None


class _RaisingComputer:
    """Budget computer stand-in whose ``compute`` raises ``error``."""

    def __init__(self, error):
        self.error = error

    def compute(self, *args, **kwargs):
        raise self.error


def test_unsolvable_return_budget_resets_counter(setup):
    spec, config, policy, computer, power_model = setup
    policy.return_hold_intervals = 2
    little_cfg = FULL_BIG.with_(cluster=Resource.LITTLE)
    cool = np.full(4, c2k(40.0))
    powers = np.array([0.01, 0.3, 0.2, 0.2])
    assert policy.consider_return_to_big(
        computer, power_model, cool, powers, little_cfg, c2k(63.0)
    ) is None
    # an unusable budget row counts as "not safe to return" ...
    assert policy.consider_return_to_big(
        _RaisingComputer(BudgetError("no usable row")),
        power_model, cool, powers, little_cfg, c2k(63.0),
    ) is None
    # ... and restarts the hold: one more cool interval is not enough
    assert policy.consider_return_to_big(
        computer, power_model, cool, powers, little_cfg, c2k(63.0)
    ) is None
    assert policy.consider_return_to_big(
        computer, power_model, cool, powers, little_cfg, c2k(63.0)
    ) is not None


def test_return_to_big_does_not_swallow_other_errors(setup):
    spec, config, policy, computer, power_model = setup
    little_cfg = FULL_BIG.with_(cluster=Resource.LITTLE)
    with pytest.raises(ZeroDivisionError):
        policy.consider_return_to_big(
            _RaisingComputer(ZeroDivisionError("a real bug")),
            power_model, np.full(4, c2k(40.0)), POWERS, little_cfg,
            c2k(63.0),
        )


def test_no_return_logic_when_on_big(setup):
    spec, config, policy, computer, power_model = setup
    assert policy.consider_return_to_big(
        computer, power_model, TEMPS, POWERS, FULL_BIG, c2k(63.0)
    ) is None


def test_decision_describe(setup):
    decision = _assign(setup, budget_w=1.6)
    assert "MHz" in decision.describe()
