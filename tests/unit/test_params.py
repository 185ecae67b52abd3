"""Unit tests for LoRa modulation parameters."""

import pytest

from repro.errors import ConfigurationError
from repro.phy.params import LoRaParams


class TestValidation:
    def test_defaults_are_valid(self):
        params = LoRaParams()
        assert params.spreading_factor == 7
        assert params.bandwidth_hz == 125_000

    @pytest.mark.parametrize("sf", [5, 13, 0])
    def test_bad_spreading_factor(self, sf):
        with pytest.raises(ConfigurationError):
            LoRaParams(spreading_factor=sf)

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigurationError):
            LoRaParams(bandwidth_hz=100_000)

    @pytest.mark.parametrize("cr", [0, 5])
    def test_bad_coding_rate(self, cr):
        with pytest.raises(ConfigurationError):
            LoRaParams(coding_rate=cr)

    def test_short_preamble_rejected(self):
        with pytest.raises(ConfigurationError):
            LoRaParams(preamble_symbols=4)

    def test_frequency_out_of_radio_range(self):
        with pytest.raises(ConfigurationError):
            LoRaParams(frequency_hz=2_400_000_000)

    def test_power_limits(self):
        with pytest.raises(ConfigurationError):
            LoRaParams(tx_power_dbm=30.0)
        with pytest.raises(ConfigurationError):
            LoRaParams(tx_power_dbm=-10.0)

    def test_sf6_requires_implicit_header(self):
        with pytest.raises(ConfigurationError):
            LoRaParams(spreading_factor=6, explicit_header=True)
        params = LoRaParams(spreading_factor=6, explicit_header=False)
        assert params.spreading_factor == 6


class TestLdro:
    def test_ldro_auto_on_for_slow_symbols(self):
        # SF12/125kHz: symbol time 32.8 ms > 16 ms.
        assert LoRaParams(spreading_factor=12).ldro_enabled is True

    def test_ldro_auto_off_for_fast_symbols(self):
        # SF7/125kHz: symbol time 1.024 ms.
        assert LoRaParams(spreading_factor=7).ldro_enabled is False

    def test_ldro_boundary_sf11_125k(self):
        # SF11/125kHz: 16.384 ms > 16 ms -> on.
        assert LoRaParams(spreading_factor=11).ldro_enabled is True

    def test_ldro_override(self):
        assert LoRaParams(spreading_factor=12, low_data_rate_optimize=False).ldro_enabled is False
        assert LoRaParams(spreading_factor=7, low_data_rate_optimize=True).ldro_enabled is True


class TestHelpers:
    def test_describe_mentions_settings(self):
        text = LoRaParams(spreading_factor=9, tx_power_dbm=14).describe()
        assert "SF9" in text and "125kHz" in text and "14dBm" in text
