"""The DTPM governor: prediction -> budget -> configuration (Fig. 3.1).

Runs once per control interval (100 ms, whenever the cpufreq driver runs).
It is deliberately *non-intrusive*: the stock governors' proposal passes
through untouched unless a thermal violation is predicted within the
1-second window, in which case the power budget machinery of Chapter 5
overwrites the proposal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimulationConfig
from repro.core.budget import BudgetResult, PowerBudgetComputer
from repro.core.policy import DtpmPolicy, PolicyDecision
from repro.core.predictor import ThermalForecast, ThermalPredictor
from repro.errors import BudgetError
from repro.governors.base import PlatformConfig
from repro.lanes import lane_groups
from repro.platform.board import SensorSnapshot
from repro.platform.specs import PlatformSpec, POWER_RESOURCES, Resource
from repro.power.model import OperatingPoint, PowerModel
from repro.thermal.state_space import DiscreteThermalModel


@dataclass
class DtpmOutcome:
    """Everything the DTPM governor did in one control interval."""

    config: PlatformConfig
    violation_predicted: bool
    forecast: ThermalForecast
    budget: Optional[BudgetResult] = None
    decision: Optional[PolicyDecision] = None

    @property
    def intervened(self) -> bool:
        """Whether the default proposal was overwritten."""
        return self.decision is not None


class DtpmGovernor:
    """Predictive dynamic thermal and power management controller."""

    def __init__(
        self,
        thermal_model: DiscreteThermalModel,
        power_model: PowerModel,
        spec: Optional[PlatformSpec] = None,
        config: Optional[SimulationConfig] = None,
        policy: Optional[DtpmPolicy] = None,
        guard_band_k: float = 0.75,
        observer=None,
    ) -> None:
        self.spec = spec or PlatformSpec()
        self.config = config or SimulationConfig()
        self.power_model = power_model
        #: Optional :class:`repro.thermal.observer.TemperatureObserver`.
        #: When set, sensor temperatures are Kalman-filtered through the
        #: identified model before prediction and budgeting (an extension;
        #: the paper feeds raw sensor values, which is the default here).
        self.observer = observer
        self.predictor = ThermalPredictor(
            thermal_model,
            horizon_steps=self.config.prediction_horizon_steps,
            guard_band_k=guard_band_k,
        )
        self.budget_computer = PowerBudgetComputer(
            thermal_model, horizon_steps=self.config.prediction_horizon_steps
        )
        self.policy = policy or DtpmPolicy(self.spec, self.config)

    def reset(self) -> None:
        """Clear run-scoped state."""
        self.policy.reset()
        if self.observer is not None:
            self.observer.reset()

    # ------------------------------------------------------------------
    def operating_point(self, config: PlatformConfig) -> OperatingPoint:
        """Voltage/frequency of each resource under a configuration."""
        vdd, freq, active = DtpmGovernor.operating_arrays([self], [config])
        return OperatingPoint(
            *[
                (float(v), float(f)) if on else None
                for v, f, on in zip(vdd[0], freq[0], active[0])
            ]
        )

    @staticmethod
    def operating_arrays(
        governors: Sequence["DtpmGovernor"],
        configs: Sequence[PlatformConfig],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vdd, frequency_hz, active)`` of every lane, each (B, 4).

        Columns follow [big, little, gpu, mem].  Only the cluster a
        configuration runs on is active.  Memory has no DVFS: it is
        modelled at its fixed rail with unit frequency, so the alpha*C
        tracker degenerates into a traffic tracker.  The V(f) curves are
        elementwise arithmetic, so each platform spec evaluates its lanes'
        frequency columns in one call.
        """
        on_big = np.array([c.cluster is Resource.BIG for c in configs])
        freq = np.array(
            [
                (c.big_freq_hz, c.little_freq_hz, c.gpu_freq_hz, 1.0)
                for c in configs
            ]
        )
        vdd = np.empty_like(freq)
        specs = [g.spec for g in governors]
        # specs built apart are distinct objects that still share their OPP
        # tables, so group on what the V(f) evaluation actually reads
        keys = [
            (id(s.big_opp), id(s.little_opp), id(s.gpu_opp), s.mem_vdd)
            for s in specs
        ]
        for first, lanes in lane_groups(keys):
            spec = specs[first]
            vdd[lanes, 0] = spec.big_opp.voltage(freq[lanes, 0])
            vdd[lanes, 1] = spec.little_opp.voltage(freq[lanes, 1])
            vdd[lanes, 2] = spec.gpu_opp.voltage(freq[lanes, 2])
            vdd[lanes, 3] = spec.mem_vdd
        active = np.ones(freq.shape, dtype=bool)
        active[:, 0] = on_big
        active[:, 1] = ~on_big
        return vdd, freq, active

    def predicted_power_vector(
        self,
        snapshot: SensorSnapshot,
        current: PlatformConfig,
        proposal: PlatformConfig,
    ) -> np.ndarray:
        """Power vector expected if the proposal is applied.

        Resources whose operating point is unchanged keep their measured
        power (best available estimate); changed resources are re-predicted
        through the power model (Section 3: "the proposed power model uses
        the choice made by the default configuration to predict the power
        consumption before taking any action").
        """
        t_hot = float(np.max(snapshot.temperatures_k))
        powers = snapshot.powers_w.astype(float).copy()
        idx = {r: i for i, r in enumerate(POWER_RESOURCES)}

        if proposal.cluster is Resource.BIG:
            same = (
                current.cluster is Resource.BIG
                and abs(current.big_freq_hz - proposal.big_freq_hz) < 0.5
                and current.big_online == proposal.big_online
            )
            if not same:
                online_now = (
                    current.big_online
                    if current.cluster is Resource.BIG
                    else proposal.big_online
                )
                powers[idx[Resource.BIG]] = self.policy.predicted_cluster_power_w(
                    self.power_model,
                    Resource.BIG,
                    proposal.big_freq_hz,
                    proposal.big_online,
                    online_now,
                    t_hot,
                )
                powers[idx[Resource.LITTLE]] = 0.0
        else:
            same = (
                current.cluster is Resource.LITTLE
                and abs(current.little_freq_hz - proposal.little_freq_hz) < 0.5
            )
            if not same:
                online_now = (
                    current.little_online
                    if current.cluster is Resource.LITTLE
                    else proposal.little_online
                )
                powers[idx[Resource.LITTLE]] = self.policy.predicted_cluster_power_w(
                    self.power_model,
                    Resource.LITTLE,
                    proposal.little_freq_hz,
                    proposal.little_online,
                    online_now,
                    t_hot,
                )
                powers[idx[Resource.BIG]] = 0.0

        if abs(current.gpu_freq_hz - proposal.gpu_freq_hz) >= 0.5:
            gpu_model = self.power_model[Resource.GPU]
            v_new = self.spec.gpu_opp.voltage(proposal.gpu_freq_hz)
            powers[idx[Resource.GPU]] = (
                gpu_model.dynamic.predict_w(proposal.gpu_freq_hz, v_new)
                + gpu_model.leakage.power_w(t_hot, v_new)
            )
        return powers

    # ------------------------------------------------------------------
    def control(
        self,
        snapshot: SensorSnapshot,
        current: PlatformConfig,
        proposal: PlatformConfig,
        gpu_active: bool = False,
    ) -> DtpmOutcome:
        """One DTPM control interval; the B=1 view of :meth:`control_batch`.

        Parameters
        ----------
        snapshot:
            The sensor readings of this interval.
        current:
            The configuration the platform actually ran during the interval
            (needed to attribute the measured powers to operating points).
        proposal:
            What the default governors want to run next.
        gpu_active:
            Whether the GPU is meaningfully loaded (drives the last-resort
            GPU throttle).
        """
        return DtpmGovernor.control_batch(
            [self], [snapshot], [current], [proposal], [gpu_active]
        )[0]

    @staticmethod
    def control_batch(
        governors: Sequence["DtpmGovernor"],
        snapshots: Sequence[SensorSnapshot],
        currents: Sequence[PlatformConfig],
        proposals: Sequence[PlatformConfig],
        gpu_active: Sequence[bool],
    ) -> List[DtpmOutcome]:
        """One control interval of ``B`` governors, one per lane.

        The alpha*C update and the horizon forecast run once over the
        (B, 4) batch; the budget and assignment of Ch. 5 run per lane, and
        only do real work where a violation is predicted (or a lane on
        the little cluster tests its way back to big).  Every stage is
        elementwise over the lanes, so outcome ``b`` equals
        ``governors[b].control(...)`` run alone.
        """
        temps = np.array([s.temperatures_k for s in snapshots], dtype=float)
        powers = np.array([s.powers_w for s in snapshots], dtype=float)

        # 1. feed the measurements into the power models (alpha*C tracking)
        vdd, freq, active = DtpmGovernor.operating_arrays(governors, currents)
        PowerModel.observe_vector_batch(
            [g.power_model for g in governors],
            powers,
            np.max(temps, axis=1),
            vdd,
            freq,
            active,
        )

        # optional state filtering through the identified model
        filtered = [
            s.temperatures_k if g.observer is None
            else g.observer.update(s.temperatures_k, s.powers_w)
            for g, s in zip(governors, snapshots)
        ]

        # 2. the power vector each lane's default proposal would draw
        p_vec = np.array(
            [
                g.predicted_power_vector(s, c, p)
                for g, s, c, p in zip(governors, snapshots, currents, proposals)
            ]
        )

        # 3. predict the thermal outcome of the default proposals
        forecasts = ThermalPredictor.forecast_batch(
            [g.predictor for g in governors],
            np.array(filtered, dtype=float),
            p_vec,
            [g.config.t_constraint_k for g in governors],
        )

        # 4. pass through, return to big, or budget and reassign
        outcomes = []
        for lane, governor in enumerate(governors):  # repro-lint: disable=RPR032 -- the budget/assignment tail is scalar per lane by design; quiet lanes return after one branch
            outcomes.append(
                governor._decide(
                    forecasts[lane],
                    filtered[lane],
                    snapshots[lane].powers_w,
                    proposals[lane],
                    gpu_active[lane],
                )
            )
        return outcomes

    def _decide(
        self,
        forecast: ThermalForecast,
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        proposal: PlatformConfig,
        gpu_active: bool,
    ) -> DtpmOutcome:
        """The per-lane tail of :meth:`control_batch` after the forecast."""
        if not forecast.violation:
            # non-intrusive path; possibly migrate back to big
            decision = self.policy.consider_return_to_big(
                self.budget_computer,
                self.power_model,
                temps_k,
                powers_w,
                proposal,
                self.config.t_constraint_k,
            )
            return DtpmOutcome(
                config=decision.config if decision else proposal,
                violation_predicted=False,
                forecast=forecast,
                decision=decision,
            )

        # violation predicted: compute the budget and reassign
        resource = (
            Resource.BIG if proposal.cluster is Resource.BIG else Resource.LITTLE
        )
        try:
            budget = self.budget_computer.compute(
                temps_k,
                powers_w,
                self.config.t_constraint_k,
                resource=resource,
            )
        except BudgetError:
            # Unusable row: fall back to the most conservative safe config.
            fallback = proposal.with_(
                big_freq_hz=self.spec.big_opp.f_min_hz,
                little_freq_hz=self.spec.little_opp.f_min_hz,
            )
            decision = PolicyDecision(config=fallback)
            decision.actions.append("budget unsolvable; pinned f_min")
            return DtpmOutcome(
                config=fallback,
                violation_predicted=True,
                forecast=forecast,
                decision=decision,
            )

        decision = self.policy.assign(
            budget,
            self.budget_computer,
            self.power_model,
            temps_k,
            powers_w,
            proposal,
            self.config.t_constraint_k,
            gpu_active,
        )
        return DtpmOutcome(
            config=decision.config,
            violation_predicted=True,
            forecast=forecast,
            budget=budget,
            decision=decision,
        )
