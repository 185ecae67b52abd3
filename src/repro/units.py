"""Unit helpers used across the PHY and monitoring layers.

The library works internally in SI-ish units: seconds for time, metres for
distance, dBm for signal power, Hz for bandwidth/frequency, bytes for sizes.
These helpers keep conversions explicit at module boundaries so no bare
"*1000"-style factors are scattered through the code.
"""

from __future__ import annotations

import math


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power level in milliwatts to dBm.

    Raises:
        ValueError: if ``mw`` is not strictly positive.
    """
    if mw <= 0.0:
        raise ValueError(f"power must be > 0 mW, got {mw}")
    return 10.0 * math.log10(mw)


def db_sum(levels_dbm: "list[float]") -> float:
    """Sum several powers expressed in dBm, returning dBm.

    Power adds linearly in milliwatts, not in dB, so interference from
    multiple concurrent transmitters must be combined through this helper.

    Raises:
        ValueError: if ``levels_dbm`` is empty.
    """
    if not levels_dbm:
        raise ValueError("cannot sum an empty list of power levels")
    return mw_to_dbm(sum(dbm_to_mw(level) for level in levels_dbm))


def mah(coulombs: float) -> float:
    """Convert electric charge in coulombs to milliamp-hours."""
    return coulombs / 3.6
