"""Radio state machine and energy accounting.

Models an SX127x-class transceiver attached to a 3.3 V ESP32-style node.
Current-draw figures follow the SX1276 datasheet (table 10) and common
LoRa energy studies; they can be overridden per scenario.

The :class:`Radio` tracks cumulative time per state so the energy benches
(T4) can report charge per node with and without monitoring enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional

from repro.errors import SimulationError
from repro.units import mah


class RadioState(str, Enum):
    """Operating states of the transceiver."""

    SLEEP = "sleep"
    STANDBY = "standby"
    RX = "rx"
    TX = "tx"
    CAD = "cad"


@dataclass(frozen=True)
class EnergyModel:
    """Per-state current draw in milliamps at ``supply_voltage_v``.

    Defaults: SX1276 sleep 0.0002 mA, standby 1.6 mA, RX 11.5 mA,
    TX at +14 dBm ≈ 29 mA (PA_BOOST ~44 mA at +17 dBm), CAD ≈ RX.
    """

    supply_voltage_v: float = 3.3
    current_ma: Dict[RadioState, float] = field(
        default_factory=lambda: {
            RadioState.SLEEP: 0.0002,
            RadioState.STANDBY: 1.6,
            RadioState.RX: 11.5,
            RadioState.TX: 29.0,
            RadioState.CAD: 11.5,
        }
    )

    def charge_coulombs(self, state: RadioState, duration_s: float) -> float:
        """Charge consumed spending ``duration_s`` in ``state`` (coulombs)."""
        return self.current_ma[state] * 1e-3 * duration_s

    def energy_joules(self, state: RadioState, duration_s: float) -> float:
        """Energy consumed spending ``duration_s`` in ``state`` (joules)."""
        return self.charge_coulombs(state, duration_s) * self.supply_voltage_v


#: Every state in definition order.  Iterating the enum class runs Python
#: code per member, and every simulated node builds a radio.
_STATES = tuple(RadioState)


class Radio:
    """Tracks the radio's state over simulation time and accumulates energy.

    The owner (the MAC layer) calls :meth:`set_state` at each transition,
    passing the current simulation time.  Time must be monotonic.
    """

    def __init__(self, energy_model: EnergyModel | None = None, initial_state: RadioState = RadioState.RX) -> None:
        self._energy_model = energy_model or EnergyModel()
        self._state = initial_state
        self._state_since = 0.0
        self._time_in_state: Dict[RadioState, float] = dict.fromkeys(_STATES, 0.0)
        #: Called with the new state after every transition.  The channel
        #: the radio is attached to sets it, to know who can hear a
        #: preamble without asking every radio at every frame.
        self.observer: Optional[Callable[[RadioState], None]] = None

    @property
    def state(self) -> RadioState:
        return self._state

    @property
    def energy_model(self) -> EnergyModel:
        return self._energy_model

    def set_state(self, state: RadioState, now: float) -> None:
        """Transition to ``state`` at simulation time ``now``.

        Raises:
            SimulationError: if ``now`` precedes the last transition.
        """
        if now < self._state_since:
            raise SimulationError(
                f"radio time went backwards: {now:.6f} < {self._state_since:.6f}"
            )
        self._time_in_state[self._state] += now - self._state_since
        self._state = state
        self._state_since = now
        if self.observer is not None:
            self.observer(state)

    def finalize(self, now: float) -> None:
        """Account the tail interval up to ``now`` without changing state."""
        self.set_state(self._state, now)

    def time_in_state(self, state: RadioState) -> float:
        """Cumulative seconds spent in ``state`` (excluding the open interval)."""
        return self._time_in_state[state]

    def consumed_coulombs(self) -> float:
        """Total charge consumed across all closed intervals."""
        return sum(
            self._energy_model.charge_coulombs(state, duration)
            for state, duration in self._time_in_state.items()
        )

    def consumed_mah(self) -> float:
        """Total charge consumed, in milliamp-hours."""
        return mah(self.consumed_coulombs())

    def consumed_joules(self) -> float:
        """Total energy consumed, in joules."""
        return self.consumed_coulombs() * self._energy_model.supply_voltage_v

    def summary(self) -> Dict[str, float]:
        """Per-state seconds plus total mAh, for reports."""
        result: Dict[str, float] = {f"time_{state.value}_s": t for state, t in self._time_in_state.items()}
        result["consumed_mah"] = self.consumed_mah()
        return result
