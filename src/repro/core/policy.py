"""DTPM configuration assignment (Section 5.2).

Once the power budget is known, the algorithm finds the configuration that
satisfies it while losing as little performance as possible, in the paper's
strict priority order:

1. stay on the big cluster and pick the largest frequency whose predicted
   total power fits the budget (Eq. 5.7 inverted, quantised to Table 6.1);
2. if even ``f_min`` does not fit, turn a big core off -- the *hottest*
   core when the inter-core temperature spread exceeds ``Delta``
   (Eq. 5.9), since some applications pin one core and heat it
   disproportionately;
3. only when the budget cannot be met with ``min_big_cores`` (paper: three)
   big cores at ``f_min`` does everything migrate to the little cluster;
4. reducing the GPU frequency (when the GPU is active) is the very last
   resort, because it has the biggest performance impact for the targeted
   game/video workloads.

The policy is stateful: it also implements the (paper-implicit) return path
from the little cluster back to big once the predicted temperature leaves
the danger zone for long enough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.core.budget import BudgetResult, PowerBudgetComputer
from repro.errors import BudgetError, ConfigurationError
from repro.governors.base import PlatformConfig
from repro.platform.specs import PlatformSpec, Resource
from repro.power.model import PowerModel


@dataclass
class PolicyDecision:
    """The configuration chosen by the policy, with its reasoning."""

    config: PlatformConfig
    actions: List[str] = field(default_factory=list)
    core_turned_off: Optional[int] = None
    migrated_to_little: bool = False
    migrated_to_big: bool = False
    gpu_throttled: bool = False

    def describe(self) -> str:
        """Human-readable summary of what the policy did."""
        return "; ".join(self.actions) if self.actions else "no action"


class DtpmPolicy:
    """Budget-to-configuration mapping with cluster/core/GPU knobs."""

    def __init__(
        self,
        spec: Optional[PlatformSpec] = None,
        config: Optional[SimulationConfig] = None,
        return_margin_k: float = 2.0,
        return_hold_intervals: int = 30,
    ) -> None:
        self.spec = spec or PlatformSpec()
        self.config = config or SimulationConfig()
        self.return_margin_k = return_margin_k
        self.return_hold_intervals = return_hold_intervals
        self._return_counter = 0

    def reset(self) -> None:
        """Clear cross-interval state (new run)."""
        self._return_counter = 0

    # ------------------------------------------------------------------
    # power prediction helpers (the controller-side model, Eq. 4.1)
    # ------------------------------------------------------------------
    def predicted_cluster_power_w(
        self,
        power_model: PowerModel,
        resource: Resource,
        frequency_hz: float,
        online: int,
        online_now: int,
        temperature_k: float,
    ) -> float:
        """Predicted total cluster power at a candidate operating point.

        The tracked alpha*C product reflects the *current* number of busy
        cores; scaling it by ``online / online_now`` models the load that
        each hotplug change adds or removes (the kernel migrates the
        displaced tasks onto the remaining cores, but a saturated cluster
        loses the offlined core's throughput and hence its switching
        activity).
        """
        table = self.spec.opp_table(resource)
        vdd = table.voltage(frequency_hz)
        model = power_model[resource]
        scale = online / max(1, online_now)
        p_dyn = model.dynamic.predict_w(frequency_hz, vdd) * scale
        p_leak = model.leakage.power_w(temperature_k, vdd)
        return p_dyn + p_leak

    def f_budget_hz(
        self,
        power_model: PowerModel,
        resource: Resource,
        dynamic_budget_w: float,
    ) -> float:
        """Eq. 5.7 closed form: continuous frequency for a dynamic budget.

        Uses the *current* supply voltage ("Since current Vdd is also known
        from measurements, f_budget is calculated using Equation 5.7").
        The full policy refines this with a table search that accounts for
        the voltage change at each OPP.
        """
        table = self.spec.opp_table(resource)
        vdd_now = table.voltage(table.f_max_hz)
        return power_model[resource].dynamic.frequency_for_budget_hz(
            dynamic_budget_w, vdd_now
        )

    def best_frequency_for_budget(
        self,
        power_model: PowerModel,
        resource: Resource,
        budget_w: float,
        online: int,
        online_now: int,
        temperature_k: float,
    ) -> Optional[float]:
        """Largest OPP frequency whose predicted total power fits the budget.

        Returns ``None`` when even ``f_min`` exceeds the budget.
        """
        table = self.spec.opp_table(resource)
        for f in reversed(table.frequencies_hz):
            power = self.predicted_cluster_power_w(
                power_model, resource, f, online, online_now, temperature_k
            )
            if power <= budget_w:
                return f
        return None

    # ------------------------------------------------------------------
    # the assignment algorithm
    # ------------------------------------------------------------------
    def assign(
        self,
        budget: BudgetResult,
        budget_computer: PowerBudgetComputer,
        power_model: PowerModel,
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        proposal: PlatformConfig,
        t_constraint_k: float,
        gpu_active: bool,
    ) -> PolicyDecision:
        """Map a power budget onto (cluster, cores, frequencies)."""
        if budget.resource is Resource.BIG and proposal.cluster is Resource.BIG:
            return self._assign_big(
                budget,
                budget_computer,
                power_model,
                temps_k,
                powers_w,
                proposal,
                t_constraint_k,
                gpu_active,
            )
        if proposal.cluster is Resource.LITTLE:
            return self._assign_little(
                budget_computer,
                power_model,
                temps_k,
                powers_w,
                proposal,
                t_constraint_k,
                gpu_active,
            )
        raise ConfigurationError(
            "budget resource %s does not match proposal cluster %s"
            % (budget.resource, proposal.cluster)
        )

    # -- big-cluster path -------------------------------------------------
    def _assign_big(
        self,
        budget: BudgetResult,
        budget_computer: PowerBudgetComputer,
        power_model: PowerModel,
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        proposal: PlatformConfig,
        t_constraint_k: float,
        gpu_active: bool,
    ) -> PolicyDecision:
        decision = PolicyDecision(config=proposal)
        t_hot = float(np.max(temps_k))
        online_now = proposal.big_online
        budget_w = budget.total_budget_w

        online = online_now
        while online >= self.config.min_big_cores:
            f = self.best_frequency_for_budget(
                power_model, Resource.BIG, budget_w, online, online_now, t_hot
            )
            if f is not None:
                config = proposal.with_(big_freq_hz=f, big_online=online)
                if f < proposal.big_freq_hz:
                    decision.actions.append(
                        "capped big frequency %.0f -> %.0f MHz"
                        % (proposal.big_freq_hz / 1e6, f / 1e6)
                    )
                if online < online_now:
                    decision.actions.append(
                        "reduced big cores %d -> %d" % (online_now, online)
                    )
                    decision.core_turned_off = self._select_core_to_offline(temps_k)
                    if decision.core_turned_off is not None:
                        decision.actions.append(
                            "hottest core %d offlined (Eq. 5.9 spread >= Delta)"
                            % decision.core_turned_off
                        )
                decision.config = config
                return decision
            if online == self.config.min_big_cores:
                break
            online -= 1

        # Last resort: migrate everything to the little cluster.
        decision.migrated_to_little = True
        decision.actions.append(
            "budget %.2f W unreachable with %d big cores at f_min; "
            "migrating to little cluster" % (budget_w, self.config.min_big_cores)
        )
        little_config = proposal.with_(
            cluster=Resource.LITTLE,
            big_freq_hz=self.spec.big_opp.f_min_hz,
            little_online=self.spec.cores_per_cluster,
        )
        return self._assign_little(
            budget_computer,
            power_model,
            temps_k,
            powers_w,
            little_config,
            t_constraint_k,
            gpu_active,
            base_decision=decision,
        )

    # -- little-cluster path ------------------------------------------------
    def _assign_little(
        self,
        budget_computer: PowerBudgetComputer,
        power_model: PowerModel,
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        proposal: PlatformConfig,
        t_constraint_k: float,
        gpu_active: bool,
        base_decision: PolicyDecision = None,
    ) -> PolicyDecision:
        decision = base_decision or PolicyDecision(config=proposal)
        t_hot = float(np.max(temps_k))
        little_budget = budget_computer.compute(
            temps_k, powers_w, t_constraint_k, resource=Resource.LITTLE
        )
        f = self.best_frequency_for_budget(
            power_model,
            Resource.LITTLE,
            little_budget.total_budget_w,
            proposal.little_online,
            proposal.little_online,
            t_hot,
        )
        if f is None:
            f = self.spec.little_opp.f_min_hz
            decision.actions.append("little cluster pinned at f_min")
            if gpu_active:
                gpu_f = self.spec.gpu_opp.step_down(
                    self.spec.gpu_opp.floor(proposal.gpu_freq_hz)
                )
                if gpu_f < proposal.gpu_freq_hz:
                    decision.gpu_throttled = True
                    decision.actions.append(
                        "GPU throttled to %.0f MHz (last resort)" % (gpu_f / 1e6)
                    )
                decision.config = proposal.with_(
                    little_freq_hz=f, gpu_freq_hz=gpu_f
                )
                return decision
        elif f < proposal.little_freq_hz:
            decision.actions.append(
                "capped little frequency %.0f -> %.0f MHz"
                % (proposal.little_freq_hz / 1e6, f / 1e6)
            )
        decision.config = proposal.with_(little_freq_hz=f)
        return decision

    # ------------------------------------------------------------------
    def _select_core_to_offline(self, temps_k: np.ndarray) -> Optional[int]:
        """Eq. 5.9: offline the hottest core when the spread exceeds Delta."""
        spread = float(np.max(temps_k) - np.min(temps_k))
        if spread >= self.config.hotspot_delta_c:
            return int(np.argmax(temps_k))
        return None

    # ------------------------------------------------------------------
    # return path: little -> big once safely cool
    # ------------------------------------------------------------------
    def consider_return_to_big(
        self,
        budget_computer: PowerBudgetComputer,
        power_model: PowerModel,
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        proposal: PlatformConfig,
        t_constraint_k: float,
    ) -> Optional[PolicyDecision]:
        """While on the little cluster, test whether big is safe again.

        The big cluster is re-admitted at ``min_big_cores x f_min`` once its
        predicted power fits the budget with a margin, sustained for
        ``return_hold_intervals`` control intervals.
        """
        if proposal.cluster is not Resource.LITTLE:
            self._return_counter = 0
            return None
        t_hot = float(np.max(temps_k))
        try:
            budget = budget_computer.compute(
                temps_k,
                powers_w,
                t_constraint_k - self.return_margin_k,
                resource=Resource.BIG,
            )
        except BudgetError:
            self._return_counter = 0
            return None
        entry_power = self.predicted_cluster_power_w(
            power_model,
            Resource.BIG,
            self.spec.big_opp.f_min_hz,
            self.config.min_big_cores,
            self.config.min_big_cores,
            t_hot,
        )
        if entry_power <= budget.total_budget_w:
            self._return_counter += 1
        else:
            self._return_counter = 0
            return None
        if self._return_counter < self.return_hold_intervals:
            return None
        self._return_counter = 0
        config = proposal.with_(
            cluster=Resource.BIG,
            big_freq_hz=self.spec.big_opp.f_min_hz,
            big_online=self.config.min_big_cores,
        )
        decision = PolicyDecision(config=config, migrated_to_big=True)
        decision.actions.append(
            "returned to big cluster (%d cores at f_min)"
            % self.config.min_big_cores
        )
        return decision
