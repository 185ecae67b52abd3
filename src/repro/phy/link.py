"""Link-budget model: path loss, shadowing, sensitivity and SNR floors.

The default propagation model is log-distance path loss with log-normal
shadowing, the standard choice for LoRa field studies::

    PL(d) = PL(d0) + 10 * gamma * log10(d / d0) + X_sigma

The default parameters (PL(40 m) = 127.41 dB, gamma = 2.08) come from the
Bor/Roedig LoRaSim measurements; urban deployments use a steeper exponent.

Sensitivity per spreading factor follows the SX1276 datasheet (BW = 125 kHz);
demodulation additionally requires the SNR to exceed the per-SF floor
(-7.5 dB at SF7 down to -20 dB at SF12).

Randomness here is *counter-based*: the static shadowing of a link and the
per-frame fast fading are derived by hashing ``(model seed, link, frame)``
rather than drawn sequentially from a shared stream.  Any consumer asking
for any subset of links in any order sees the same values — which is what
lets the spatial-index channel (:mod:`repro.phy.reachability`) skip
hopeless receivers entirely and still produce a trace stream identical to
the brute-force oracle.  Derived draws are clamped to ±4σ so culling
bounds are sound (and 30 dB shadowing *gains* do not appear, which they
would not in the field either).
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.phy.params import LoRaParams

#: Receiver sensitivity in dBm per spreading factor at BW=125 kHz (SX1276).
SENSITIVITY_DBM: Dict[int, float] = {
    6: -118.0,
    7: -123.0,
    8: -126.0,
    9: -129.0,
    10: -132.0,
    11: -134.5,
    12: -137.0,
}

#: Minimum demodulation SNR in dB per spreading factor.
SNR_FLOOR_DB: Dict[int, float] = {
    6: -5.0,
    7: -7.5,
    8: -10.0,
    9: -12.5,
    10: -15.0,
    11: -17.5,
    12: -20.0,
}

#: Thermal noise floor at 125 kHz bandwidth with a 6 dB receiver noise figure:
#: -174 dBm/Hz + 10*log10(125e3) + 6 ≈ -117 dBm.
NOISE_FIGURE_DB = 6.0


@lru_cache(maxsize=256)
def noise_floor_dbm(bandwidth_hz: int) -> float:
    """Thermal noise power at the receiver input for ``bandwidth_hz``.

    Memoised: the channel checks the SNR of every frame at every receiver
    above sensitivity.
    """
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + NOISE_FIGURE_DB


@lru_cache(maxsize=256)
def sensitivity_dbm(params: LoRaParams) -> float:
    """Receiver sensitivity for the given modulation settings.

    Scales the 125 kHz datasheet figure by the bandwidth ratio (3 dB per
    doubling), matching how LoRaSim derives its sensitivity matrix.
    Memoised: ``LoRaParams`` is frozen and the channel hot path consults
    this per frame.
    """
    base = SENSITIVITY_DBM[params.spreading_factor]
    return base + 10.0 * math.log10(params.bandwidth_hz / 125_000.0)


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path-loss parameters.

    Attributes:
        pl0_db: reference path loss at ``d0_m`` metres.
        d0_m: reference distance in metres.
        exponent: path-loss exponent gamma.
        shadowing_sigma_db: standard deviation of log-normal shadowing; the
            per-link shadowing term is drawn once (static environment) and
            reused, modelling buildings rather than fast fading.
        fast_fading_sigma_db: per-packet Gaussian variation on top of the
            static term (0 disables it).
    """

    pl0_db: float = 127.41
    d0_m: float = 40.0
    exponent: float = 2.08
    shadowing_sigma_db: float = 3.0
    fast_fading_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        if self.d0_m <= 0:
            raise ConfigurationError(f"d0_m must be > 0, got {self.d0_m}")
        if self.exponent <= 0:
            raise ConfigurationError(f"exponent must be > 0, got {self.exponent}")
        if self.shadowing_sigma_db < 0 or self.fast_fading_sigma_db < 0:
            raise ConfigurationError("shadowing/fading sigmas must be >= 0")

    @staticmethod
    def urban() -> "PathLossParams":
        """Steeper urban profile (gamma 3.0, more shadowing)."""
        return PathLossParams(pl0_db=127.41, d0_m=40.0, exponent=3.0, shadowing_sigma_db=6.0)

    @staticmethod
    def free_space_like() -> "PathLossParams":
        """Near-free-space rural profile."""
        return PathLossParams(pl0_db=91.22, d0_m=40.0, exponent=2.0, shadowing_sigma_db=1.0)


#: Derived (counter-based) Gaussian draws are clamped to this many sigmas;
#: culling headrooms in :mod:`repro.phy.reachability` rely on the bound.
DERIVED_SIGMA_CLAMP = 4.0


class LinkModel:
    """Computes received power and SNR between node pairs.

    The per-link static shadowing draw is symmetric (links are reciprocal)
    and cached, so RSSI estimates the monitoring system reports are stable
    over time up to the optional per-frame fast-fading term
    (:meth:`fading_db`).  Both are derived by hashing the link (and frame)
    identity against a seed taken from ``rng`` at construction, so values
    are independent of the order links are first evaluated in.
    """

    def __init__(self, params: PathLossParams, rng: random.Random) -> None:
        self._params = params
        # One draw from the caller's stream seeds every derived value; the
        # per-link/per-frame draws themselves never touch shared RNG state.
        self._seed = rng.getrandbits(64)
        self._shadowing: Dict[Tuple[int, int], float] = {}
        # Extra per-link attenuation injected at runtime (fault injection:
        # new obstacle, antenna damage, seasonal foliage).
        self._extra_attenuation: Dict[Tuple[int, int], float] = {}
        self._change_listeners: List[Callable[[int, int], None]] = []

    @property
    def params(self) -> PathLossParams:
        return self._params

    @property
    def shadowing_bound_db(self) -> float:
        """Largest magnitude a derived shadowing draw can take (±4σ clamp)."""
        return DERIVED_SIGMA_CLAMP * self._params.shadowing_sigma_db

    @property
    def fading_bound_db(self) -> float:
        """Largest magnitude a derived fast-fading draw can take (±4σ clamp)."""
        return DERIVED_SIGMA_CLAMP * self._params.fast_fading_sigma_db

    def subscribe_changes(self, listener: Callable[[int, int], None]) -> None:
        """Register a callback fired with ``(a, b)`` when a link's injected
        attenuation changes (reachability indexes use this to invalidate)."""
        self._change_listeners.append(listener)

    def _link_key(self, a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def _derived_gauss(self, label: str, key: object, sigma: float) -> float:
        """Counter-based N(0, sigma) draw, clamped to ±4σ.

        Deterministic in ``(model seed, label, key)`` alone: evaluation
        order and which other links were ever evaluated do not matter.
        """
        digest = hashlib.sha256(
            f"{self._seed}:{label}:{key}".encode("utf-8")
        ).digest()
        value = random.Random(int.from_bytes(digest[:8], "big")).gauss(0.0, sigma)
        bound = DERIVED_SIGMA_CLAMP * sigma
        return max(-bound, min(bound, value))

    def _static_shadowing_db(self, a: int, b: int) -> float:
        key = self._link_key(a, b)
        existing = self._shadowing.get(key)
        if existing is not None:
            return existing
        value = self._derived_gauss("shadow", key, self._params.shadowing_sigma_db)
        self._shadowing[key] = value
        return value

    def fading_db(self, a: int, b: int, fading_key: int) -> float:
        """Per-frame fast-fading term for one link, derived from the frame
        identity (e.g. the channel's ``tx_id``) so it is reproducible no
        matter which receivers were actually evaluated."""
        if self._params.fast_fading_sigma_db <= 0:
            return 0.0
        return self._derived_gauss(
            "fade", (self._link_key(a, b), fading_key), self._params.fast_fading_sigma_db
        )

    def path_loss_db(self, distance_m: float, a: Optional[int] = None, b: Optional[int] = None) -> float:
        """Path loss in dB at ``distance_m``, including static shadowing when
        node addresses are provided."""
        d = max(distance_m, 1.0)
        loss = self._params.pl0_db + 10.0 * self._params.exponent * math.log10(d / self._params.d0_m)
        if a is not None and b is not None:
            loss += self._static_shadowing_db(a, b)
            loss += self._extra_attenuation.get(self._link_key(a, b), 0.0)
        return loss

    def set_link_attenuation(self, a: int, b: int, extra_db: float) -> None:
        """Inject (or update) extra symmetric attenuation on one link.

        Used for fault injection: a new obstacle, antenna damage or
        foliage.  Set 0 to restore the link.

        Raises:
            ValueError: for negative attenuation (links cannot gain).
        """
        if extra_db < 0:
            raise ValueError(f"extra attenuation must be >= 0 dB, got {extra_db}")
        key = self._link_key(a, b)
        if extra_db == 0.0:  # reprolint: allow[RL003] -- exact 0.0 is the caller's "restore link" sentinel, not a computed float
            self._extra_attenuation.pop(key, None)
        else:
            self._extra_attenuation[key] = extra_db
        for listener in self._change_listeners:
            listener(a, b)

    def received_power_dbm(
        self,
        tx_power_dbm: float,
        distance_m: float,
        a: Optional[int] = None,
        b: Optional[int] = None,
    ) -> float:
        """Received signal strength in dBm under the static link budget
        (path loss, plus shadowing and injected attenuation when node
        addresses are given); per-frame fading is :meth:`fading_db`."""
        return tx_power_dbm - self.path_loss_db(distance_m, a, b)

    def snr_db(self, rssi_dbm: float, bandwidth_hz: int) -> float:
        """Signal-to-noise ratio implied by an RSSI at the given bandwidth."""
        return rssi_dbm - noise_floor_dbm(bandwidth_hz)

    def is_receivable(self, rssi_dbm: float, params: LoRaParams) -> bool:
        """Whether a lone (interference-free) frame at ``rssi_dbm`` can be
        demodulated with the given settings."""
        if rssi_dbm < sensitivity_dbm(params):
            return False
        return self.snr_db(rssi_dbm, params.bandwidth_hz) >= SNR_FLOOR_DB[params.spreading_factor]

    def max_range_m(self, params: LoRaParams, margin_db: float = 0.0) -> float:
        """Distance at which the *mean* received power hits sensitivity.

        Ignores shadowing (it is zero-mean); ``margin_db`` adds headroom.
        Useful for sizing deployment areas in scenarios and tests.
        """
        budget = params.tx_power_dbm - sensitivity_dbm(params) - margin_db
        exceed = (budget - self._params.pl0_db) / (10.0 * self._params.exponent)
        return self._params.d0_m * (10.0 ** exceed)
