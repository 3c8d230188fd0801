"""Discrete-time LTI thermal model (Eqs. 4.4 and 4.5).

``T[k+1] = A T[k] + B P[k] + d``

with ``T`` the four hotspot temperatures and ``P`` the four resource powers
(Eq. 5.3 layout).  The affine term ``d`` absorbs the ambient boundary
inflow: the paper writes the model without it because its derivation starts
from deviation variables; estimating ``d`` alongside (A, B) is the
equivalent formulation when working with absolute sensor temperatures.
Setting ``d = 0`` recovers the paper's exact equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class DiscreteThermalModel:
    """Identified state-space thermal model.

    Attributes
    ----------
    a:
        State matrix (N x N) -- dependence of future core temperatures on
        current ones (own and neighbouring cores).
    b:
        Input matrix (N x M) -- dependence on the resource power vector.
    offset:
        Affine term (N,) absorbing the ambient inflow.
    ts_s:
        Sampling period the model was identified at.
    """

    a: np.ndarray
    b: np.ndarray
    offset: Optional[np.ndarray] = None
    ts_s: float = 0.1

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ModelError("A must be square, got %s" % (a.shape,))
        if b.shape[0] != a.shape[0]:
            raise ModelError(
                "B rows (%d) must match A size (%d)" % (b.shape[0], a.shape[0])
            )
        offset = self.offset
        if offset is None:
            offset = np.zeros(a.shape[0])
        offset = np.asarray(offset, dtype=float).reshape(-1)
        if offset.shape[0] != a.shape[0]:
            raise ModelError("offset length must match A size")
        if self.ts_s <= 0:
            raise ModelError("sampling period must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "offset", offset)
        # horizon -> read-only (A^n, sum A^i B, sum A^i); not a field, so
        # equality, repr and the model fingerprint never see it
        object.__setattr__(self, "_horizons", {})

    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of thermal states (sensed hotspots)."""
        return self.a.shape[0]

    @property
    def num_inputs(self) -> int:
        """Number of power inputs."""
        return self.b.shape[1]

    def spectral_radius(self) -> float:
        """Largest |eigenvalue| of A; < 1 means the model is stable."""
        return float(np.max(np.abs(np.linalg.eigvals(self.a))))

    def is_stable(self) -> bool:
        """Whether the identified model is asymptotically stable."""
        return self.spectral_radius() < 1.0

    def dc_gain(self) -> np.ndarray:
        """Steady-state temperature rise per watt: ``(I - A)^-1 B``."""
        eye = np.eye(self.num_states)
        return np.linalg.solve(eye - self.a, self.b)

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_next(self, temps: Sequence[float], powers: Sequence[float]) -> np.ndarray:
        """One-step prediction ``T[k+1]`` (Eq. 4.4)."""
        t = self._check_state(temps)
        p = self._check_input(powers)
        return self.a @ t + self.b @ p + self.offset

    def predict_next_batch(
        self, temps: np.ndarray, powers: np.ndarray
    ) -> np.ndarray:
        """One-step prediction for ``B`` independent states at once.

        ``temps`` has shape (B, N) and ``powers`` (B, M); returns (B, N).
        The contraction runs over the fixed state/input axes only (einsum,
        no BLAS), so row ``b`` equals ``predict_next(temps[b], powers[b])``
        for every batch size -- the batched controller evaluation can be
        checked lane-for-lane against the scalar one.
        """
        t, p = self._check_batch(temps, powers)
        return (
            np.einsum("ij,bj->bi", self.a, t)
            + np.einsum("ij,bj->bi", self.b, p)
            + self.offset
        )

    def predict_horizon(
        self,
        temps: Sequence[float],
        power_trajectory: np.ndarray,
    ) -> np.ndarray:
        """Multi-step prediction along a power trajectory (Eq. 4.5).

        ``power_trajectory`` has shape (n, M): the power vector applied over
        each of the next n intervals.  Returns the predicted temperatures
        after each interval, shape (n, N).
        """
        traj = np.atleast_2d(np.asarray(power_trajectory, dtype=float))
        if traj.shape[1] != self.num_inputs:
            raise ModelError(
                "power trajectory must have %d columns" % self.num_inputs
            )
        t = self._check_state(temps)
        out = np.empty((traj.shape[0], self.num_states))
        for i in range(traj.shape[0]):
            t = self.a @ t + self.b @ traj[i] + self.offset
            out[i] = t
        return out

    def predict_n_constant(
        self, temps: Sequence[float], powers: Sequence[float], n: int
    ) -> np.ndarray:
        """``T[k+n]`` assuming the power vector stays constant (Eq. 4.5).

        The B=1 view of :meth:`predict_n_constant_batch`.
        """
        t = self._check_state(temps)
        p = self._check_input(powers)
        return self.predict_n_constant_batch(
            t[np.newaxis], p[np.newaxis], n
        )[0]

    def predict_n_constant_batch(
        self, temps: np.ndarray, powers: np.ndarray, n: int
    ) -> np.ndarray:
        """Eq. 4.5 with constant power for ``B`` states at once.

        ``temps`` is (B, N) and ``powers`` (B, M); returns (B, N).  Like
        :meth:`predict_next_batch` it contracts with einsum: a BLAS
        ``temps @ A_n.T`` reorders the per-row sums and drifts from the
        per-lane ``A_n @ t`` in the last bit, einsum does not.
        """
        a_n, m_n, s_n = self.horizon_matrices(n)
        t, p = self._check_batch(temps, powers)
        return (
            np.einsum("ij,bj->bi", a_n, t)
            + np.einsum("ij,bj->bi", m_n, p)
            + s_n @ self.offset
        )

    def horizon_matrices(self, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A^n, sum_i A^i B, sum_i A^i) for an n-step constant-power window.

        These are the matrices of Eq. 4.5 specialised to a constant power
        vector; the power-budget computation (Eq. 5.5 generalised to an
        n-interval window) consumes them directly.  They are computed once
        per horizon and returned read-only on every later call.
        """
        if n < 1:
            raise ModelError("horizon must be >= 1 step")
        cached = self._horizons.get(n)
        if cached is not None:
            return cached
        a_pow = np.eye(self.num_states)
        s_n = np.zeros_like(self.a)
        for _ in range(n):
            s_n = s_n + a_pow
            a_pow = self.a @ a_pow
        m_n = s_n @ self.b
        for matrix in (a_pow, m_n, s_n):
            matrix.flags.writeable = False
        cached = self._horizons[n] = (a_pow, m_n, s_n)
        return cached

    # ------------------------------------------------------------------
    def _check_state(self, temps: Sequence[float]) -> np.ndarray:
        t = np.asarray(temps, dtype=float).reshape(-1)
        if t.shape[0] != self.num_states:
            raise ModelError(
                "expected %d temperatures, got %d" % (self.num_states, t.shape[0])
            )
        return t

    def _check_input(self, powers: Sequence[float]) -> np.ndarray:
        p = np.asarray(powers, dtype=float).reshape(-1)
        if p.shape[0] != self.num_inputs:
            raise ModelError(
                "expected %d powers, got %d" % (self.num_inputs, p.shape[0])
            )
        return p

    def _check_batch(
        self, temps: np.ndarray, powers: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        t = np.atleast_2d(np.asarray(temps, dtype=float))
        p = np.atleast_2d(np.asarray(powers, dtype=float))
        if t.shape[1] != self.num_states:
            raise ModelError(
                "expected %d temperature columns, got %d"
                % (self.num_states, t.shape[1])
            )
        if p.shape[1] != self.num_inputs:
            raise ModelError(
                "expected %d power columns, got %d"
                % (self.num_inputs, p.shape[1])
            )
        if t.shape[0] != p.shape[0]:
            raise ModelError(
                "batch sizes differ: %d temps vs %d powers"
                % (t.shape[0], p.shape[0])
            )
        return t, p
