"""LoRa time-on-air computation.

Implements the frame-duration formula from Semtech AN1200.13 ("LoRa Modem
Designer's Guide") and the SX1276 datasheet, section 4.1.1.6/4.1.1.7:

    T_sym      = 2^SF / BW
    T_preamble = (n_preamble + 4.25) * T_sym
    n_payload  = 8 + max(ceil((8*PL - 4*SF + 28 + 16*CRC - 20*IH)
                              / (4*(SF - 2*DE))) * (CR + 4), 0)
    T_payload  = n_payload * T_sym
    T_frame    = T_preamble + T_payload

where PL = payload bytes, IH = 1 for implicit header, DE = 1 when low data
rate optimisation is on, CRC = 1 when the payload CRC is transmitted and CR
is the coding-rate index 1..4.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.phy.params import LoRaParams

#: Maximum LoRa PHY payload length in bytes (SX127x FIFO limit).
MAX_PAYLOAD_BYTES = 255


def symbol_time(params: LoRaParams) -> float:
    """Duration of one LoRa symbol in seconds."""
    return (2 ** params.spreading_factor) / params.bandwidth_hz


def preamble_time(params: LoRaParams) -> float:
    """Duration of the preamble (programmed symbols + 4.25 sync) in seconds."""
    return (params.preamble_symbols + 4.25) * symbol_time(params)


def payload_symbols(params: LoRaParams, payload_bytes: int) -> int:
    """Number of symbols in the payload section (including the 8-symbol
    constant PHY overhead).

    Raises:
        ConfigurationError: if ``payload_bytes`` is negative or exceeds the
            255-byte radio FIFO limit.
    """
    if payload_bytes < 0:
        raise ConfigurationError(f"payload_bytes must be >= 0, got {payload_bytes}")
    if payload_bytes > MAX_PAYLOAD_BYTES:
        raise ConfigurationError(
            f"payload_bytes must be <= {MAX_PAYLOAD_BYTES}, got {payload_bytes}"
        )
    sf = params.spreading_factor
    de = 1 if params.ldro_enabled else 0
    ih = 0 if params.explicit_header else 1
    crc = 1 if params.crc_on else 0
    numerator = 8 * payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
    denominator = 4 * (sf - 2 * de)
    extra = max(math.ceil(numerator / denominator) * (params.coding_rate + 4), 0)
    return 8 + extra


def time_on_air(params: LoRaParams, payload_bytes: int) -> float:
    """Total frame duration in seconds for a payload of ``payload_bytes``."""
    return preamble_time(params) + payload_symbols(params, payload_bytes) * symbol_time(params)


@lru_cache(maxsize=4096)
def cached_time_on_air(params: LoRaParams, payload_bytes: int) -> float:
    """Memoised :func:`time_on_air`.

    ``LoRaParams`` is frozen/hashable and a simulation uses only a handful
    of (params, payload length) combinations, so the hot channel path hits
    this table instead of redoing the ceil-division symbol arithmetic per
    frame.  Values are bit-identical to :func:`time_on_air`.
    """
    return time_on_air(params, payload_bytes)
