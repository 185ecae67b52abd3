"""Unit tests for LoRa modulation parameters."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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


class TestHash:
    """The hash is computed once, and equals the dataclass-generated one."""

    @staticmethod
    def field_tuple(params):
        return tuple(getattr(params, spec.name) for spec in dataclasses.fields(params))

    def test_equal_params_hash_equal_to_the_generated_hash(self):
        params = LoRaParams(spreading_factor=9, bandwidth_hz=250_000, tx_power_dbm=20.0)
        twin = LoRaParams(spreading_factor=9, bandwidth_hz=250_000, tx_power_dbm=20.0)
        assert params == twin and params is not twin
        assert hash(params) == hash(twin) == hash(self.field_tuple(params))
        assert hash(LoRaParams()) == hash(self.field_tuple(LoRaParams()))
        assert hash(LoRaParams(low_data_rate_optimize=True)) != hash(LoRaParams())

    def test_hash_is_not_a_field(self):
        names = [spec.name for spec in dataclasses.fields(LoRaParams)]
        assert "_hash" not in names and len(names) == 9
        assert "_hash" not in repr(LoRaParams())

    def test_replace_hashes_its_new_fields(self):
        params = LoRaParams()
        moved = dataclasses.replace(params, frequency_hz=869_525_000, spreading_factor=12)
        assert hash(moved) == hash(self.field_tuple(moved))
        assert hash(moved) != hash(params)
        assert hash(dataclasses.replace(moved, frequency_hz=868_100_000, spreading_factor=7)) \
            == hash(params)

    def test_pickle_round_trip_keeps_the_hash(self):
        for params in (LoRaParams(), LoRaParams(spreading_factor=12, low_data_rate_optimize=False)):
            restored = pickle.loads(pickle.dumps(params))
            assert restored == params
            assert hash(restored) == hash(params) == hash(self.field_tuple(restored))
            assert copy.deepcopy(params) == params
            assert hash(copy.copy(params)) == hash(params)

    def test_params_pickled_in_another_process_hash_here(self):
        # hash(None), the automatic LDRO setting, differs between
        # processes before Python 3.12, so a hash carried in the pickle
        # would be stale here.
        source = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import pickle, sys; from repro.phy.params import LoRaParams; "
            "sys.stdout.buffer.write(pickle.dumps(LoRaParams(spreading_factor=9)))"
        )
        raw = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": source},
        ).stdout
        restored = pickle.loads(raw)
        assert hash(restored) == hash(LoRaParams(spreading_factor=9))
        assert restored in {LoRaParams(spreading_factor=9)}

    def test_params_keyed_dict_lookup(self):
        table = {LoRaParams(spreading_factor=sf): sf for sf in (7, 8, 9)}
        assert table[LoRaParams(spreading_factor=8)] == 8
        assert list(table.values()) == [7, 8, 9]
