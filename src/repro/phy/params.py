"""LoRa modulation parameters.

A :class:`LoRaParams` instance captures everything the airtime formula and
the link/collision models need to know about how a frame is transmitted:
spreading factor, bandwidth, coding rate, preamble length, header mode, CRC,
low-data-rate optimisation, carrier frequency and transmit power.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Tuple

from repro.errors import ConfigurationError

#: Bandwidths supported by SX127x radios (Hz).
VALID_BANDWIDTHS_HZ = (7_800, 10_400, 15_600, 20_800, 31_250, 41_700, 62_500, 125_000, 250_000, 500_000)

#: Spreading factors supported by SX127x radios.
VALID_SPREADING_FACTORS = (6, 7, 8, 9, 10, 11, 12)

#: Coding-rate denominators: 4/5 .. 4/8 map to cr = 1..4 in the airtime formula.
VALID_CODING_RATES = (1, 2, 3, 4)


@dataclass(frozen=True)
class LoRaParams:
    """Radio/modulation settings for one transmission profile.

    Attributes:
        spreading_factor: LoRa SF, 6..12.
        bandwidth_hz: channel bandwidth in Hz.
        coding_rate: 1..4, meaning coding rate 4/(4+cr).
        preamble_symbols: programmed preamble length (symbols, excluding the
            fixed 4.25 sync symbols added by the formula).
        explicit_header: whether the PHY header is transmitted (LoRaWAN and
            LoRaMesher both use explicit headers).
        crc_on: whether the payload CRC is transmitted.
        low_data_rate_optimize: force LDRO on/off; ``None`` selects the
            datasheet rule (on when the symbol time exceeds 16 ms).
        frequency_hz: carrier frequency in Hz.
        tx_power_dbm: transmit power in dBm (EU868 limit is +14 dBm ERP
            in most sub-bands, +27 dBm in g3).
    """

    spreading_factor: int = 7
    bandwidth_hz: int = 125_000
    coding_rate: int = 1
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_on: bool = True
    low_data_rate_optimize: "bool | None" = None
    frequency_hz: int = 868_100_000
    tx_power_dbm: float = 14.0

    #: ``hash`` of the field tuple, computed once by ``__post_init__``.
    #: Every params-keyed cache (sensitivity, airtime, link tables) hashes
    #: its key on each lookup, and the generated ``__hash__`` would
    #: rebuild and hash the nine-field tuple each time.  The value is the
    #: one the generated ``__hash__`` returns, so params-keyed sets and
    #: dicts behave as before.  Declared here for type checkers only; it
    #: lives in the instance ``__dict__`` and is no dataclass field.
    _hash: ClassVar[int]

    def __post_init__(self) -> None:
        if self.spreading_factor not in VALID_SPREADING_FACTORS:
            raise ConfigurationError(
                f"spreading_factor must be one of {VALID_SPREADING_FACTORS}, got {self.spreading_factor}"
            )
        if self.bandwidth_hz not in VALID_BANDWIDTHS_HZ:
            raise ConfigurationError(
                f"bandwidth_hz must be one of {VALID_BANDWIDTHS_HZ}, got {self.bandwidth_hz}"
            )
        if self.coding_rate not in VALID_CODING_RATES:
            raise ConfigurationError(
                f"coding_rate must be one of {VALID_CODING_RATES}, got {self.coding_rate}"
            )
        if self.preamble_symbols < 6:
            raise ConfigurationError(
                f"preamble_symbols must be >= 6, got {self.preamble_symbols}"
            )
        if not (137e6 <= self.frequency_hz <= 1020e6):
            raise ConfigurationError(
                f"frequency_hz {self.frequency_hz} outside SX127x range 137-1020 MHz"
            )
        if not (-4.0 <= self.tx_power_dbm <= 27.0):
            raise ConfigurationError(
                f"tx_power_dbm must be within -4..27 dBm, got {self.tx_power_dbm}"
            )
        if self.spreading_factor == 6 and self.explicit_header:
            raise ConfigurationError("SF6 requires implicit header mode on SX127x")
        object.__setattr__(self, "_hash", hash(self._field_values()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[Any, Tuple[Any, ...]]:
        # Unpickle through ``__init__``, so the hash is computed in the
        # process that reads it: before Python 3.12 ``hash(None)`` (the
        # automatic LDRO setting) differs between processes.
        return (type(self), self._field_values())

    def _field_values(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, spec.name) for spec in fields(self))

    @property
    def ldro_enabled(self) -> bool:
        """Whether low-data-rate optimisation is active for these settings."""
        if self.low_data_rate_optimize is not None:
            return self.low_data_rate_optimize
        # Datasheet rule: mandated when symbol duration exceeds 16 ms.
        symbol_time_s = (2 ** self.spreading_factor) / self.bandwidth_hz
        return symbol_time_s > 0.016

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``SF7/BW125kHz/CR4:5 @868.1MHz 14dBm``."""
        return (
            f"SF{self.spreading_factor}/BW{self.bandwidth_hz // 1000}kHz/"
            f"CR4:{4 + self.coding_rate} @{self.frequency_hz / 1e6:.1f}MHz "
            f"{self.tx_power_dbm:g}dBm"
        )
