"""Unit tests for LoRa time-on-air.

Reference values computed with the Semtech AN1200.13 formula (and
cross-checked against the widely used airtime calculators).
"""

import pytest

from repro.errors import ConfigurationError
from repro.phy.airtime import (
    payload_symbols,
    preamble_time,
    symbol_time,
    time_on_air,
)
from repro.phy.params import LoRaParams


class TestSymbolTime:
    def test_sf7_125k(self):
        assert symbol_time(LoRaParams(spreading_factor=7)) == pytest.approx(1.024e-3)

    def test_sf12_125k(self):
        assert symbol_time(LoRaParams(spreading_factor=12)) == pytest.approx(32.768e-3)

    def test_bandwidth_scales_inverse(self):
        t125 = symbol_time(LoRaParams(spreading_factor=9, bandwidth_hz=125_000))
        t250 = symbol_time(LoRaParams(spreading_factor=9, bandwidth_hz=250_000))
        assert t125 == pytest.approx(2 * t250)


class TestTimeOnAir:
    def test_reference_sf7_20_bytes(self):
        # SF7/125k/CR4:5, preamble 8, explicit header, CRC on, 20B payload:
        # n_payload = 8 + ceil((160 - 28 + 28 + 16)/28)*5 = 8 + 35 = 43 sym
        # ToA = (12.25 + 43) * 1.024 ms = 56.576 ms (matches the standard
        # Semtech/LoRaTools calculators).
        airtime = time_on_air(LoRaParams(spreading_factor=7), 20)
        assert airtime == pytest.approx(56.576e-3, rel=1e-6)

    def test_reference_sf12_51_bytes_with_ldro(self):
        # Standard LoRaWAN EU868 DR0 max frame; known ToA ~ 2793.5 ms for
        # 51B MAC payload + 13B overhead = 64B PHY... here: raw 51B payload.
        airtime = time_on_air(LoRaParams(spreading_factor=12), 51)
        # n_payload = 8 + ceil((8*51 - 4*12 + 28 + 16)/(4*(12-2)))*5
        #           = 8 + ceil(404/40)*5 = 8 + 55 = 63 symbols
        expected = (12.25 + 63) * 32.768e-3
        assert airtime == pytest.approx(expected, rel=1e-9)

    def test_airtime_monotonic_in_payload(self):
        params = LoRaParams(spreading_factor=8)
        airtimes = [time_on_air(params, size) for size in range(0, 200, 7)]
        assert all(b >= a for a, b in zip(airtimes, airtimes[1:]))

    def test_airtime_monotonic_in_sf(self):
        airtimes = [time_on_air(LoRaParams(spreading_factor=sf), 24) for sf in range(7, 13)]
        assert all(b > a for a, b in zip(airtimes, airtimes[1:]))

    def test_crc_adds_symbols(self):
        with_crc = time_on_air(LoRaParams(crc_on=True), 10)
        without = time_on_air(LoRaParams(crc_on=False), 10)
        assert with_crc >= without

    def test_implicit_header_is_shorter(self):
        explicit = time_on_air(LoRaParams(explicit_header=True), 10)
        implicit = time_on_air(LoRaParams(explicit_header=False), 10)
        assert implicit <= explicit

    def test_higher_coding_rate_is_longer(self):
        cr1 = time_on_air(LoRaParams(coding_rate=1), 40)
        cr4 = time_on_air(LoRaParams(coding_rate=4), 40)
        assert cr4 > cr1

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            time_on_air(LoRaParams(), -1)

    def test_oversized_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            time_on_air(LoRaParams(), 256)

    def test_payload_symbols_minimum_is_eight(self):
        # An empty payload at high SF floors at the 8-symbol constant
        # (numerator 8*0 - 48 + 28 + 16 = -4 clamps to zero extra symbols).
        assert payload_symbols(LoRaParams(spreading_factor=12), 0) == 8

    def test_preamble_time_includes_sync(self):
        params = LoRaParams(spreading_factor=7, preamble_symbols=8)
        assert preamble_time(params) == pytest.approx(12.25 * 1.024e-3)
