"""Unit tests for the link-budget model."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.phy.link import (
    LinkModel,
    PathLossParams,
    noise_floor_dbm,
    sensitivity_dbm,
    SNR_FLOOR_DB,
)
from repro.phy.params import LoRaParams


@pytest.fixture
def model():
    return LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))


@pytest.fixture
def shadowed():
    return LinkModel(PathLossParams(shadowing_sigma_db=6.0), random.Random(1))


class TestPathLoss:
    def test_reference_distance_loss(self, model):
        assert model.path_loss_db(40.0) == pytest.approx(127.41)

    def test_loss_grows_with_distance(self, model):
        losses = [model.path_loss_db(d) for d in (40, 80, 160, 320)]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_decade_slope_matches_exponent(self, model):
        slope = model.path_loss_db(400.0) - model.path_loss_db(40.0)
        assert slope == pytest.approx(10 * 2.08, rel=1e-6)

    def test_sub_metre_distances_clamped(self, model):
        assert model.path_loss_db(0.0) == model.path_loss_db(1.0)

    def test_shadowing_is_stable_per_link(self, shadowed):
        first = shadowed.path_loss_db(100.0, 1, 2)
        second = shadowed.path_loss_db(100.0, 1, 2)
        assert first == second

    def test_shadowing_is_symmetric(self, shadowed):
        assert shadowed.path_loss_db(100.0, 1, 2) == shadowed.path_loss_db(100.0, 2, 1)

    def test_different_links_get_different_shadowing(self, shadowed):
        assert shadowed.path_loss_db(100.0, 1, 2) != shadowed.path_loss_db(100.0, 1, 3)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            PathLossParams(exponent=0.0)
        with pytest.raises(ConfigurationError):
            PathLossParams(d0_m=0.0)
        with pytest.raises(ConfigurationError):
            PathLossParams(shadowing_sigma_db=-1.0)


class TestSensitivityAndSnr:
    def test_sensitivity_decreases_with_sf(self):
        values = [sensitivity_dbm(LoRaParams(spreading_factor=sf)) for sf in range(7, 13)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_sensitivity_bandwidth_scaling(self):
        narrow = sensitivity_dbm(LoRaParams(spreading_factor=9, bandwidth_hz=125_000))
        wide = sensitivity_dbm(LoRaParams(spreading_factor=9, bandwidth_hz=250_000))
        assert wide == pytest.approx(narrow + 3.0, abs=0.05)

    def test_noise_floor_125k(self):
        # -174 + 10log10(125e3) + 6 = -117.03 dBm
        assert noise_floor_dbm(125_000) == pytest.approx(-117.03, abs=0.01)

    def test_snr_definition(self, model):
        assert model.snr_db(-110.0, 125_000) == pytest.approx(7.03, abs=0.01)

    def test_receivable_needs_both_power_and_snr(self, model):
        params = LoRaParams(spreading_factor=7)
        strong = sensitivity_dbm(params) + 10
        weak = sensitivity_dbm(params) - 1
        assert model.is_receivable(strong, params)
        assert not model.is_receivable(weak, params)

    def test_snr_floor_blocks_reception_even_above_sensitivity(self, model):
        # Construct a case where sensitivity passes but the SNR floor fails:
        # SF7 at 125 kHz has floor -7.5 dB -> needs rssi >= -124.53; the
        # datasheet sensitivity is -123, so sensitivity is the binding
        # constraint there.  Check the relation holds for all SFs.
        for sf in range(7, 13):
            params = LoRaParams(spreading_factor=sf)
            floor_rssi = noise_floor_dbm(125_000) + SNR_FLOOR_DB[sf]
            threshold = max(floor_rssi, sensitivity_dbm(params))
            assert model.is_receivable(threshold + 0.1, params)
            assert not model.is_receivable(threshold - 0.1, params)


class TestRange:
    def test_max_range_grows_with_sf(self, model):
        ranges = [model.max_range_m(LoRaParams(spreading_factor=sf)) for sf in (7, 9, 12)]
        assert ranges[0] < ranges[1] < ranges[2]

    def test_max_range_consistent_with_receivability(self, model):
        params = LoRaParams(spreading_factor=9)
        edge = model.max_range_m(params)
        inside = model.received_power_dbm(params.tx_power_dbm, edge * 0.95)
        outside = model.received_power_dbm(params.tx_power_dbm, edge * 1.05)
        assert model.is_receivable(inside, params)
        assert not model.is_receivable(outside, params)

    def test_margin_shrinks_range(self, model):
        params = LoRaParams(spreading_factor=9)
        assert model.max_range_m(params, margin_db=10) < model.max_range_m(params)

    def test_fast_fading_perturbs_rssi(self):
        model = LinkModel(
            PathLossParams(shadowing_sigma_db=0.0, fast_fading_sigma_db=2.0), random.Random(1)
        )
        assert len({model.fading_db(1, 2, frame) for frame in range(10)}) > 1
        # The static budget carries no fading.
        assert model.received_power_dbm(14.0, 100.0, 1, 2) == 14.0 - model.path_loss_db(100.0, 1, 2)

    def test_urban_profile_has_shorter_range(self):
        suburban = LinkModel(PathLossParams(shadowing_sigma_db=0), random.Random(1))
        urban_params = PathLossParams.urban()
        urban = LinkModel(
            PathLossParams(
                pl0_db=urban_params.pl0_db,
                d0_m=urban_params.d0_m,
                exponent=urban_params.exponent,
                shadowing_sigma_db=0,
            ),
            random.Random(1),
        )
        params = LoRaParams(spreading_factor=9)
        assert urban.max_range_m(params) < suburban.max_range_m(params)
