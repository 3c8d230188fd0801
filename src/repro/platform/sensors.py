"""Sensor models: on-die thermal sensors and INA231-style power sensors.

The DTPM stack only ever observes the platform through these sensors
(Section 6.1.2).  Both add realistic imperfections -- quantisation for the
TMU (which reports coarse steps) and relative Gaussian noise for the power
monitors -- so that the identified thermal model and the run-time alpha*C
estimate carry the same error structure as on real hardware.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


class TemperatureSensor:
    """One on-die thermal sensor with Gaussian noise and quantisation."""

    def __init__(
        self,
        rng: np.random.Generator,
        noise_sigma_k: float = 0.15,
        quantum_k: float = 0.25,
    ) -> None:
        if noise_sigma_k < 0 or quantum_k < 0:
            raise ConfigurationError("sensor noise/quantum must be >= 0")
        self._rng = rng
        self.noise_sigma_k = noise_sigma_k
        self.quantum_k = quantum_k

    def read(self, true_temperature_k: float) -> float:
        """One noisy, quantised reading of the true temperature (K)."""
        value = true_temperature_k
        if self.noise_sigma_k > 0:
            value += self._rng.normal(0.0, self.noise_sigma_k)
        if self.quantum_k > 0:
            value = round(value / self.quantum_k) * self.quantum_k
        return value


class PowerSensor:
    """One current/voltage monitor reporting power with relative noise."""

    def __init__(
        self,
        rng: np.random.Generator,
        relative_noise: float = 0.01,
        floor_w: float = 0.001,
    ) -> None:
        if relative_noise < 0:
            raise ConfigurationError("relative noise must be >= 0")
        self._rng = rng
        self.relative_noise = relative_noise
        self.floor_w = floor_w

    def read(self, true_power_w: float) -> float:
        """One noisy reading of the true power (W); never negative."""
        value = true_power_w
        if self.relative_noise > 0:
            value *= 1.0 + self._rng.normal(0.0, self.relative_noise)
        return max(self.floor_w, value)


class SensorBank:
    """The platform's full sensor complement.

    Four thermal sensors (one per big core -- the hotspots) and four power
    sensors (big cluster, little cluster, GPU, memory), mirroring the
    Odroid-XU+E instrumentation.  The sensors' noise, quantum and floor
    settings are folded into arrays once, at construction, for the
    batched read (:meth:`read_all_batch`).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        num_thermal: int = 4,
        num_power: int = 4,
        temp_noise_k: float = 0.15,
        temp_quantum_k: float = 0.25,
        power_noise_rel: float = 0.01,
    ) -> None:
        self._rng = rng
        self.thermal: List[TemperatureSensor] = [
            TemperatureSensor(rng, temp_noise_k, temp_quantum_k)
            for _ in range(num_thermal)
        ]
        self.power: List[PowerSensor] = [
            PowerSensor(rng, power_noise_rel) for _ in range(num_power)
        ]
        sigma = [s.noise_sigma_k for s in self.thermal]
        rel = [s.relative_noise for s in self.power]
        # [sigma..., quantum..., relative noise..., floor...]: this bank's
        # row of the batched parameter table
        self._params = np.array(
            sigma
            + [s.quantum_k for s in self.thermal]
            + rel
            + [s.floor_w for s in self.power]
        )
        #: Gaussians one read draws: one per noisy sensor.
        self._draws = sum(v > 0 for v in sigma + rel)

    def read_temperatures(self, true_temps_k: Sequence[float]) -> np.ndarray:
        """Read all thermal sensors against the true hotspot temperatures."""
        if len(true_temps_k) != len(self.thermal):
            raise ConfigurationError(
                "expected %d temperatures, got %d"
                % (len(self.thermal), len(true_temps_k))
            )
        return np.array(
            [s.read(t) for s, t in zip(self.thermal, true_temps_k)]
        )

    def read_powers(self, true_powers_w: Sequence[float]) -> np.ndarray:
        """Read all power sensors against the true per-resource powers."""
        if len(true_powers_w) != len(self.power):
            raise ConfigurationError(
                "expected %d powers, got %d"
                % (len(self.power), len(true_powers_w))
            )
        return np.array([s.read(p) for s, p in zip(self.power, true_powers_w)])

    def read_all(
        self, true_temps_k: Sequence[float], true_powers_w: Sequence[float]
    ) -> tuple:
        """Read every sensor once; the B=1 view of :meth:`read_all_batch`.

        Returns ``(temperatures_k, powers_w)``, bit-identical to
        :meth:`read_temperatures` followed by :meth:`read_powers`.
        """
        temps = np.asarray(true_temps_k, dtype=float)
        powers = np.asarray(true_powers_w, dtype=float)
        out_t, out_p = SensorBank.read_all_batch(
            [self], temps[np.newaxis], powers[np.newaxis]
        )
        return out_t[0], out_p[0]

    @staticmethod
    def read_all_batch(
        banks: Sequence["SensorBank"],
        true_temps_k: np.ndarray,
        true_powers_w: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read every sensor of ``B`` banks (one per lane) at once.

        ``true_temps_k`` is (B, num_thermal), ``true_powers_w`` is
        (B, num_power); returns the readings in the same shapes.  Each
        bank draws one Gaussian per noisy sensor from its own RNG, all
        in one ``standard_normal`` call, thermal sensors first -- the
        stream the per-sensor scalar reads consume (``normal(0, sigma)``
        is ``sigma * standard_normal()`` in the generator's C code, and
        one array draw equals consecutive scalar draws).  The noise,
        quantisation and floor arithmetic then runs elementwise on the
        whole batch, so row ``b`` equals a standalone read of bank ``b``.
        """
        temps = np.asarray(true_temps_k, dtype=float)
        powers = np.asarray(true_powers_w, dtype=float)
        n_t, n_p = len(banks[0].thermal), len(banks[0].power)
        if any(
            len(bank.thermal) != n_t or len(bank.power) != n_p
            for bank in banks
        ):
            raise ConfigurationError("batched sensor banks differ in shape")
        if temps.ndim != 2 or temps.shape != (len(banks), n_t):
            raise ConfigurationError(
                "expected %d temperatures, got %d"
                % (n_t, temps.shape[-1] if temps.ndim else 0)
            )
        if powers.ndim != 2 or powers.shape != (len(banks), n_p):
            raise ConfigurationError(
                "expected %d powers, got %d"
                % (n_p, powers.shape[-1] if powers.ndim else 0)
            )

        params = np.array([bank._params for bank in banks])
        sigma = params[:, :n_t]
        quantum = params[:, n_t:2 * n_t]
        rel = params[:, 2 * n_t:2 * n_t + n_p]
        floor = params[:, 2 * n_t + n_p:]
        noisy = np.concatenate([sigma > 0, rel > 0], axis=1)

        draws = []
        for bank in banks:  # repro-lint: disable=RPR032 -- each lane's RNG stream is consumed in serial lane order for bit-parity with standalone reads
            draws.append(bank._rng.standard_normal(bank._draws))
        z = np.zeros(noisy.shape)
        # boolean-mask assignment fills row-major: lane by lane, sensor by
        # sensor -- the order the draws were made in
        z[noisy] = np.concatenate(draws)

        out_t = np.where(noisy[:, :n_t], temps + sigma * z[:, :n_t], temps)
        quantised = quantum > 0
        q_safe = np.where(quantised, quantum, 1.0)
        out_t = np.where(quantised, np.round(out_t / q_safe) * q_safe, out_t)

        out_p = np.where(
            noisy[:, n_t:], powers * (1.0 + rel * z[:, n_t:]), powers
        )
        return out_t, np.maximum(floor, out_p)
