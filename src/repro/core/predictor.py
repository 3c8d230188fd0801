"""Run-time thermal predictor (the "Temperature Prediction" block, Fig. 3.1).

Wraps the identified :class:`DiscreteThermalModel` with the operations the
DTPM loop needs every control interval: predict the temperature a horizon
ahead for a hypothetical power vector, and flag predicted violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ModelError
from repro.lanes import lane_groups
from repro.thermal.state_space import DiscreteThermalModel


@dataclass(frozen=True)
class ThermalForecast:
    """Prediction outcome for one candidate power vector."""

    temps_k: np.ndarray
    max_temp_k: float
    hottest_core: int
    violation: bool
    margin_k: float  # constraint minus predicted max (negative = violation)


class ThermalPredictor:
    """Horizon-n temperature prediction against a constraint."""

    def __init__(
        self,
        model: DiscreteThermalModel,
        horizon_steps: int = 10,
        guard_band_k: float = 0.0,
    ) -> None:
        if horizon_steps < 1:
            raise ModelError("prediction horizon must be >= 1 step")
        if guard_band_k < 0:
            raise ModelError("guard band must be >= 0")
        self.model = model
        self.horizon_steps = horizon_steps
        self.guard_band_k = guard_band_k

    @property
    def horizon_s(self) -> float:
        """Prediction window in seconds."""
        return self.horizon_steps * self.model.ts_s

    def forecast(
        self,
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        t_constraint_k: float,
    ) -> ThermalForecast:
        """Predict ``T[k+n]`` for a constant candidate power vector.

        The violation test applies the guard band: a prediction within
        ``guard_band_k`` of the constraint already counts as a violation so
        the controller acts one interval early rather than one late.  The
        B=1 view of :meth:`forecast_batch`.
        """
        temps = np.asarray(temps_k, dtype=float).reshape(-1)
        powers = np.asarray(powers_w, dtype=float).reshape(-1)
        return ThermalPredictor.forecast_batch(
            [self], temps[np.newaxis], powers[np.newaxis], [t_constraint_k]
        )[0]

    @staticmethod
    def forecast_batch(
        predictors: Sequence["ThermalPredictor"],
        temps_k: np.ndarray,
        powers_w: np.ndarray,
        t_constraint_k: Sequence[float],
    ) -> List[ThermalForecast]:
        """:meth:`forecast` for ``B`` lanes, one predictor per lane.

        ``temps_k`` and ``powers_w`` are (B, N) and (B, M); the
        constraints are (B,).  Lanes sharing a model and horizon are
        predicted with one :meth:`DiscreteThermalModel.predict_n_constant_batch`
        call; the max, argmax and guard-band test run over the batch.
        """
        temps = np.atleast_2d(np.asarray(temps_k, dtype=float))
        powers = np.atleast_2d(np.asarray(powers_w, dtype=float))
        limits = np.asarray(t_constraint_k, dtype=float).reshape(-1)
        if not len(predictors) == temps.shape[0] == limits.shape[0]:
            raise ModelError(
                "%d predictors, %d temperature rows, %d constraints"
                % (len(predictors), temps.shape[0], limits.shape[0])
            )
        pred = np.empty_like(temps)
        keys = [(id(p.model), p.horizon_steps) for p in predictors]
        for first, lanes in lane_groups(keys):
            head = predictors[first]
            pred[lanes] = head.model.predict_n_constant_batch(
                temps[lanes], powers[lanes], head.horizon_steps
            )
        guard = np.array([p.guard_band_k for p in predictors])
        max_t = np.max(pred, axis=1)
        hottest = np.argmax(pred, axis=1).tolist()
        violation = (max_t > limits - guard).tolist()
        margin = (limits - max_t).tolist()
        return [
            ThermalForecast(
                temps_k=pred[lane],
                max_temp_k=float(max_t[lane]),
                hottest_core=hottest[lane],
                violation=violation[lane],
                margin_k=margin[lane],
            )
            for lane in range(len(predictors))
        ]

    def forecast_trajectory(
        self, temps_k: np.ndarray, power_trajectory: np.ndarray
    ) -> np.ndarray:
        """Predicted temperatures over an explicit power trajectory."""
        return self.model.predict_horizon(temps_k, power_trajectory)
