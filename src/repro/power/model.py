"""Combined power model: leakage + dynamic (Section 4.1, Fig. 4.7).

One :class:`ResourcePowerModel` per measurable resource (big cluster,
little cluster, GPU, memory); the :class:`PowerModel` bundle mirrors the
power vector layout of Eq. 5.3 and is the single object the DTPM stack
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, NotFittedError
from repro.lanes import lane_groups
from repro.platform.specs import OppTable, POWER_RESOURCES, Resource
from repro.power.dynamic import AlphaCEstimator, DynamicPowerModel
from repro.power.leakage import LeakageModel


@dataclass
class PowerDecomposition:
    """One interval's total power split into components (W)."""

    total_w: float
    leakage_w: float
    dynamic_w: float


class ResourcePowerModel:
    """Leakage + dynamic model of one resource, updated from sensors."""

    def __init__(
        self,
        resource: Resource,
        leakage: LeakageModel,
        opp_table: Optional[OppTable] = None,
        estimator: Optional[AlphaCEstimator] = None,
    ) -> None:
        self.resource = resource
        self.leakage = leakage
        self.opp_table = opp_table
        self.dynamic = DynamicPowerModel(estimator)

    # -- observation --------------------------------------------------
    def observe(
        self,
        total_power_w: float,
        temperature_k: float,
        vdd: float,
        frequency_hz: float,
    ) -> PowerDecomposition:
        """Decompose one total-power reading and update alpha*C."""
        leak = self.leakage.power_w(temperature_k, vdd)
        dynamic = self.dynamic.observe(
            total_power_w, temperature_k, vdd, frequency_hz, self.leakage
        )
        return PowerDecomposition(
            total_w=total_power_w, leakage_w=leak, dynamic_w=dynamic
        )

    # -- prediction ----------------------------------------------------
    def predict_total_w(
        self, frequency_hz: float, temperature_k: float, vdd: Optional[float] = None
    ) -> float:
        """Predicted total power at an operating point (Eq. 4.1)."""
        if vdd is None:
            if self.opp_table is None:
                raise ModelError(
                    "%s: vdd required (no OPP table attached)" % self.resource
                )
            vdd = self.opp_table.voltage(frequency_hz)
        return (
            self.dynamic.predict_w(frequency_hz, vdd)
            + self.leakage.power_w(temperature_k, vdd)
        )

    def predict_leakage_w(self, temperature_k: float, vdd: float) -> float:
        """Predicted leakage power at temperature/voltage."""
        return self.leakage.power_w(temperature_k, vdd)


class PowerModel:
    """The full per-resource power model bundle.

    Index order follows :data:`repro.platform.specs.POWER_RESOURCES`
    (big, little, gpu, mem) -- the same layout as the thermal model's
    power input vector.
    """

    def __init__(self, models: Dict[Resource, ResourcePowerModel]) -> None:
        missing = [r for r in POWER_RESOURCES if r not in models]
        if missing:
            raise NotFittedError(
                "power model missing resources: %s" % [str(m) for m in missing]
            )
        self.models = dict(models)
        #: The resource models in ``POWER_RESOURCES`` order.
        self.ordered: Tuple[ResourcePowerModel, ...] = tuple(
            self.models[r] for r in POWER_RESOURCES
        )

    def __getitem__(self, resource: Resource) -> ResourcePowerModel:
        return self.models[resource]

    def observe_vector(
        self,
        powers_w: np.ndarray,
        big_temperature_k: float,
        operating_point: "OperatingPoint",
    ) -> Dict[Resource, PowerDecomposition]:
        """Feed one sensor snapshot through every resource model.

        ``powers_w`` follows the [big, little, gpu, mem] layout.  Only the
        currently active CPU cluster learns a new alpha*C (a gated cluster's
        sensor reads leakage only).  The B=1 view of
        :meth:`observe_vector_batch`.
        """
        points = [operating_point.for_resource(r) for r in POWER_RESOURCES]
        active = np.array([[point is not None for point in points]])
        vdd = np.array([[point[0] if point else 1.0 for point in points]])
        freq = np.array([[point[1] if point else 1.0 for point in points]])
        powers = np.asarray(powers_w, dtype=float)
        leak, dynamic = PowerModel.observe_vector_batch(
            [self], powers[np.newaxis], [big_temperature_k], vdd, freq, active
        )
        return {
            resource: PowerDecomposition(
                total_w=float(powers[i]),
                leakage_w=float(leak[0, i]),
                dynamic_w=float(dynamic[0, i]),
            )
            for i, resource in enumerate(POWER_RESOURCES)
            if points[i] is not None
        }

    @staticmethod
    def observe_vector_batch(
        models: Sequence["PowerModel"],
        powers_w: np.ndarray,
        big_temperature_k: np.ndarray,
        vdd: np.ndarray,
        frequency_hz: np.ndarray,
        active: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fig. 4.4 for ``B`` lanes at once: decompose, then update alpha*C.

        ``powers_w``, ``vdd``, ``frequency_hz`` and the boolean ``active``
        mask are (B, 4) in the [big, little, gpu, mem] layout;
        ``big_temperature_k`` is (B,).  Inactive entries are ignored.
        Leakage is one :meth:`LeakageModel.power_w` call per resource and
        group of lanes sharing a leakage fit; the clamp and EWMA update
        run elementwise and are written back to each lane's
        :class:`AlphaCEstimator`.  Returns ``(leakage_w, dynamic_w)``, both
        (B, 4), zero where inactive.

        Lane ``b`` computes exactly what ``AlphaCEstimator.update`` would
        for every supply voltage whose square ``vdd * vdd`` equals the
        C library's ``pow(vdd, 2)`` -- true of every OPP voltage of the
        platform (``tests/test_batch_sim.py`` pins it).
        """
        powers = np.asarray(powers_w, dtype=float)
        temps = np.asarray(big_temperature_k, dtype=float).reshape(-1)
        active = np.asarray(active, dtype=bool)
        shape = (len(models), len(POWER_RESOURCES))
        for name, arr in (("powers", powers), ("vdd", vdd),
                          ("frequency", frequency_hz), ("active", active)):
            if np.shape(arr) != shape:
                raise ModelError(
                    "%s must have shape %s, got %s"
                    % (name, shape, np.shape(arr))
                )
        if temps.shape != shape[:1]:
            raise ModelError("expected %d temperatures" % shape[0])
        vdd = np.where(active, vdd, 1.0)
        freq = np.where(active, frequency_hz, 1.0)
        if (vdd <= 0).any() or (freq <= 0).any():
            raise ModelError("vdd and frequency must be positive")

        rows = [model.ordered for model in models]
        leak = np.zeros(shape)
        for i in range(shape[1]):
            fits = [row[i].leakage for row in rows]
            for first, lanes in lane_groups([id(fit) for fit in fits]):
                leak[lanes, i] = fits[first].power_w(temps[lanes], vdd[lanes, i])
        leak = np.where(active, leak, 0.0)
        dynamic = np.where(active, powers - leak, 0.0)

        estimators = [m.dynamic.estimator for row in rows for m in row]
        alpha_c, samples, smoothing, floor, ceiling = np.array(
            [
                (e.alpha_c_f, e.sample_count, e.smoothing, e.floor_f,
                 e.ceiling_f)
                for e in estimators
            ]
        ).T.reshape(5, *shape)
        raw = dynamic / (vdd ** 2 * freq)
        raw = np.minimum(np.maximum(raw, floor), ceiling)
        updated = np.where(
            samples == 0, raw, alpha_c + smoothing * (raw - alpha_c)
        )
        for estimator, value, on in zip(
            estimators, updated.ravel().tolist(), active.ravel().tolist()
        ):
            if on:
                estimator.commit(value)
        return leak, dynamic

    def leakage_vector_w(
        self, temperature_k: float, operating_point: "OperatingPoint"
    ) -> np.ndarray:
        """Leakage estimate for each resource at the given temperature."""
        leaks = np.zeros(len(POWER_RESOURCES))
        for i, resource in enumerate(POWER_RESOURCES):
            point = operating_point.for_resource(resource)
            if point is None:
                continue
            vdd, _ = point
            leaks[i] = self.models[resource].predict_leakage_w(temperature_k, vdd)
        return leaks


@dataclass(frozen=True)
class OperatingPoint:
    """Voltage/frequency of every resource at one control interval.

    Inactive resources carry ``None`` and are skipped by model updates.
    """

    big: Optional[tuple]  # (vdd, frequency_hz) or None when gated
    little: Optional[tuple]
    gpu: Optional[tuple]
    mem: Optional[tuple]

    def for_resource(self, resource: Resource) -> Optional[tuple]:
        """(vdd, frequency) of a resource, or None if gated."""
        return {
            Resource.BIG: self.big,
            Resource.LITTLE: self.little,
            Resource.GPU: self.gpu,
            Resource.MEM: self.mem,
        }[resource]
