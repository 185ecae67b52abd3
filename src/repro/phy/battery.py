"""Battery model for untethered mesh nodes.

Li-ion discharge: voltage follows a piecewise-linear open-circuit curve
over state of charge, from 4.2 V (full) through the long 3.7 V plateau to
a 3.0 V cutoff.  The node's radio is the consumer; the battery reads the
radio's cumulative charge counter, so transmit-heavy relays sag first —
which is exactly what the monitoring dashboard's battery panel should
surface (the BatteryLow alert closes the loop).
"""

from __future__ import annotations

from typing import Callable, Tuple

from repro.errors import ConfigurationError
from repro.phy.radio import Radio

#: Open-circuit voltage curve: (state_of_charge, volts), descending SoC.
LIION_OCV_CURVE: Tuple[Tuple[float, float], ...] = (
    (1.00, 4.20),
    (0.90, 4.05),
    (0.70, 3.90),
    (0.40, 3.75),
    (0.20, 3.65),
    (0.10, 3.55),
    (0.05, 3.40),
    (0.00, 3.00),
)


def ocv_volts(state_of_charge: float) -> float:
    """Open-circuit voltage at the given state of charge (0..1, clamped)."""
    soc = max(0.0, min(1.0, state_of_charge))
    curve = LIION_OCV_CURVE
    for (soc_hi, v_hi), (soc_lo, v_lo) in zip(curve, curve[1:]):
        if soc >= soc_lo:
            if soc_hi == soc_lo:
                return v_hi
            fraction = (soc - soc_lo) / (soc_hi - soc_lo)
            return v_lo + fraction * (v_hi - v_lo)
    return curve[-1][1]


class Battery:
    """A battery drained by one radio.

    The battery does not integrate current itself; it reads the radio's
    charge counter (plus a constant platform draw for the MCU) whenever
    its voltage is sampled, so no periodic bookkeeping events are needed.
    """

    def __init__(
        self,
        radio: Radio,
        capacity_mah: float = 2500.0,
        platform_current_ma: float = 10.0,
        initial_soc: float = 1.0,
    ) -> None:
        """Create a battery.

        Args:
            radio: the radio whose consumption drains this battery.
            capacity_mah: usable capacity in milliamp-hours.
            platform_current_ma: constant non-radio draw (ESP32 light-sleep
                duty-cycled MCU, sensors).
            initial_soc: starting state of charge (0..1).
        """
        if capacity_mah <= 0:
            raise ConfigurationError(f"capacity_mah must be > 0, got {capacity_mah}")
        if platform_current_ma < 0:
            raise ConfigurationError(
                f"platform_current_ma must be >= 0, got {platform_current_ma}"
            )
        if not (0.0 <= initial_soc <= 1.0):
            raise ConfigurationError(f"initial_soc must be 0..1, got {initial_soc}")
        self._radio = radio
        self.capacity_mah = capacity_mah
        self._platform_ma = platform_current_ma
        self._initial_soc = initial_soc

    def consumed_mah(self, now: float) -> float:
        """Total charge drawn from the battery up to simulation time ``now``."""
        self._radio.finalize(now)
        platform_mah = self._platform_ma * (now / 3600.0)
        return self._radio.consumed_mah() + platform_mah

    def state_of_charge(self, now: float) -> float:
        """Remaining fraction of capacity (clamped at 0)."""
        remaining = self._initial_soc - self.consumed_mah(now) / self.capacity_mah
        return max(0.0, remaining)

    def voltage(self, now: float) -> float:
        """Terminal voltage at ``now`` per the Li-ion OCV curve."""
        return ocv_volts(self.state_of_charge(now))

    def is_depleted(self, now: float) -> bool:
        return self.state_of_charge(now) <= 0.0


def attach_battery(node, battery: Battery, fail_when_empty: bool = True) -> Callable[[float], float]:
    """Wire a battery into a mesh node's status reporting.

    Replaces ``node.battery_volts`` so status telemetry carries the real
    (declining) voltage.  With ``fail_when_empty`` the node dies the first
    time its status is sampled after depletion — an organic battery-death
    failure mode for the monitoring experiments.

    Returns:
        The installed voltage callable (mainly for tests).
    """

    def volts(now: float) -> float:
        if fail_when_empty and battery.is_depleted(now) and not node.failed:
            node.fail()
        return battery.voltage(now)

    node.battery_volts = volts
    return volts
