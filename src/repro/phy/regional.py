"""EU868 regional constraints: channel plan and duty-cycle budgeting.

ETSI EN 300 220 limits sub-GHz transmitters to a per-band duty cycle
(typically 1 % in g1, 0.1 % in g2, 10 % in g3/g4 869.4-869.65 MHz).  LoRa
mesh firmware must budget its transmissions accordingly; the monitoring
system both *obeys* the budget for in-band telemetry and *reports*
per-node utilisation so administrators can see who is close to the cap.

The tracker uses a sliding-window accounting over ``window_s`` (ETSI
evaluates over 1 hour): a transmission is admitted if the airtime consumed
inside the trailing window, plus the new frame, stays within
``duty_cycle * window_s``.

The airtime in the window is the left fold ``((0.0 + a1) + a2) + ...`` of
its frames in the order they were recorded, the value ``sum()`` gives on
Python 3.11 and older (3.12 made float ``sum()`` compensated, so the
fold is spelled out to give the same bits on every Python).  Each band
caches it: recording a frame adds to the cached value, and a window
slide that drops frames discards it until the next read folds the
window again, so a check costs O(1) until a frame ages out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Tuple

from repro.errors import ConfigurationError, DutyCycleError


@dataclass(frozen=True)
class EU868Band:
    """One ETSI sub-band.

    Attributes:
        name: short band label (g, g1, ...).
        low_hz / high_hz: band edges.
        duty_cycle: allowed fraction of airtime (e.g. 0.01 for 1 %).
        max_erp_dbm: maximum allowed radiated power.
    """

    name: str
    low_hz: int
    high_hz: int
    duty_cycle: float
    max_erp_dbm: float

    def contains(self, frequency_hz: int) -> bool:
        return self.low_hz <= frequency_hz < self.high_hz


#: ETSI EN 300 220 sub-bands relevant to LoRa EU868 deployments.
EU868_BANDS: Tuple[EU868Band, ...] = (
    EU868Band("g", 863_000_000, 868_000_000, 0.001, 14.0),
    EU868Band("g1", 868_000_000, 868_600_000, 0.01, 14.0),
    EU868Band("g2", 868_700_000, 869_200_000, 0.001, 14.0),
    EU868Band("g3", 869_400_000, 869_650_000, 0.10, 27.0),
    EU868Band("g4", 869_700_000, 870_000_000, 0.01, 14.0),
)

#: The three default LoRaWAN EU868 channels (all in g1, 1 % duty cycle).
EU868_CHANNELS: Tuple[int, ...] = (868_100_000, 868_300_000, 868_500_000)


def band_for(frequency_hz: int) -> EU868Band:
    """Sub-band containing ``frequency_hz``.

    Raises:
        ConfigurationError: if the frequency is outside every EU868 sub-band.
    """
    for band in EU868_BANDS:
        if band.contains(frequency_hz):
            return band
    raise ConfigurationError(f"frequency {frequency_hz} Hz is outside the EU868 sub-bands")


class DutyCycleTracker:
    """Sliding-window duty-cycle accountant for one node.

    One tracker handles all sub-bands the node transmits in; budgets are
    kept per band, matching ETSI's per-sub-band accounting.
    """

    def __init__(self, window_s: float = 3600.0, enforce: bool = True) -> None:
        if window_s <= 0:
            raise ConfigurationError(f"window_s must be > 0, got {window_s}")
        self._window_s = window_s
        self._enforce = enforce
        # Per band: deque of (start_time, airtime) records inside the window.
        self._history: Dict[str, Deque[Tuple[float, float]]] = {}
        # Per band: the fold of its window's airtimes; absent when stale.
        self._used: Dict[str, float] = {}
        self._violations = 0

    @property
    def window_s(self) -> float:
        return self._window_s

    @property
    def violations(self) -> int:
        """Count of rejected (or, when not enforcing, flagged) transmissions."""
        return self._violations

    def _prune(self, band: str, now: float) -> None:
        history = self._history.get(band)
        if not history:
            return
        cutoff = now - self._window_s
        if history[0][0] < cutoff:
            self._used.pop(band, None)
            while history and history[0][0] < cutoff:
                history.popleft()

    def used_airtime(self, frequency_hz: int, now: float) -> float:
        """Airtime (s) consumed in the trailing window for the band of
        ``frequency_hz``."""
        name = band_for(frequency_hz).name
        self._prune(name, now)
        used = self._used.get(name)
        if used is None:
            used = self._used[name] = _fold(
                airtime for _, airtime in self._history.get(name, ())
            )
        return used

    def budget_remaining(self, frequency_hz: int, now: float) -> float:
        """Airtime (s) still available in the current window."""
        band = band_for(frequency_hz)
        allowed = band.duty_cycle * self._window_s
        return allowed - self.used_airtime(frequency_hz, now)

    def can_transmit(self, frequency_hz: int, airtime_s: float, now: float) -> bool:
        """Whether a frame of ``airtime_s`` fits in the band's budget."""
        return airtime_s <= self.budget_remaining(frequency_hz, now)

    def record(self, frequency_hz: int, airtime_s: float, now: float) -> None:
        """Account a transmission.

        Raises:
            DutyCycleError: if enforcement is on and the frame busts the
                budget; when enforcement is off the frame is recorded and
                the violation counter incremented (matching hardware that
                simply transmits).
        """
        band = band_for(frequency_hz)
        if not self.can_transmit(frequency_hz, airtime_s, now):
            self._violations += 1
            if self._enforce:
                raise DutyCycleError(
                    f"duty cycle exceeded in band {band.name}: "
                    f"{airtime_s:.4f}s requested, "
                    f"{self.budget_remaining(frequency_hz, now):.4f}s remaining"
                )
        self._history.setdefault(band.name, deque()).append((now, airtime_s))
        # can_transmit above read the window, so the fold is cached.
        self._used[band.name] += airtime_s

    def utilisation(self, frequency_hz: int, now: float) -> float:
        """Fraction of the allowed budget currently consumed (0..1+)."""
        band = band_for(frequency_hz)
        allowed = band.duty_cycle * self._window_s
        return self.used_airtime(frequency_hz, now) / allowed if allowed > 0 else 0.0


def _fold(airtimes: Iterable[float]) -> float:
    """``((0.0 + a1) + a2) + ...``: float ``sum()`` as Python 3.11 computes it."""
    total = 0.0
    for airtime in airtimes:
        total += airtime
    return total
