"""Property-based tests on the physical and analytical models."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.analysis.planning import recommend_sf
from repro.monitor.rollup import RollupSeries
from repro.phy.battery import Battery, ocv_volts
from repro.phy.link import LinkModel, PathLossParams, SNR_FLOOR_DB
from repro.phy.params import LoRaParams
from repro.phy.radio import Radio


class TestOcvProperties:
    @given(st.floats(-1.0, 2.0, allow_nan=False))
    def test_voltage_always_in_physical_range(self, soc):
        assert 3.0 <= ocv_volts(soc) <= 4.2

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_soc(self, a, b):
        low, high = sorted((a, b))
        assert ocv_volts(low) <= ocv_volts(high)


class TestBatteryProperties:
    @given(
        st.floats(min_value=10.0, max_value=10_000.0),
        st.floats(min_value=0.0, max_value=50.0),
        st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=10),
    )
    @settings(max_examples=50)
    def test_soc_never_negative_and_never_rises(self, capacity, platform_ma, times):
        battery = Battery(
            Radio(), capacity_mah=capacity, platform_current_ma=platform_ma
        )
        previous = 1.0
        for now in sorted(times):
            soc = battery.state_of_charge(now)
            assert 0.0 <= soc <= previous + 1e-12
            previous = soc


class TestLinkModelProperties:
    @given(
        st.floats(min_value=1.0, max_value=50_000.0),
        st.floats(min_value=1.0, max_value=50_000.0),
    )
    def test_path_loss_monotone_in_distance(self, d1, d2):
        model = LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))
        near, far = sorted((d1, d2))
        assert model.path_loss_db(near) <= model.path_loss_db(far) + 1e-9

    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=100),
        st.floats(min_value=10.0, max_value=5000.0),
    )
    def test_reciprocity_of_static_budget(self, a, b, distance):
        model = LinkModel(PathLossParams(shadowing_sigma_db=5.0), random.Random(7))
        forward = model.received_power_dbm(14.0, distance, a, b)
        reverse = model.received_power_dbm(14.0, distance, b, a)
        assert forward == pytest.approx(reverse)

    @given(st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=10.0, max_value=5000.0))
    def test_attenuation_subtracts_exactly(self, extra, distance):
        model = LinkModel(PathLossParams(shadowing_sigma_db=0.0), random.Random(1))
        before = model.received_power_dbm(14.0, distance, 1, 2)
        model.set_link_attenuation(1, 2, extra)
        after = model.received_power_dbm(14.0, distance, 1, 2)
        assert after == pytest.approx(before - extra)


class TestAdrProperties:
    @given(
        st.floats(min_value=-30.0, max_value=30.0),
        st.integers(min_value=7, max_value=12),
    )
    def test_recommendation_in_valid_range(self, snr, current_sf):
        sf = recommend_sf(snr, current_sf)
        assert 7 <= sf <= 12

    @given(
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=-30.0, max_value=30.0),
        st.integers(min_value=7, max_value=12),
    )
    def test_better_snr_never_needs_slower_sf(self, snr_a, snr_b, current_sf):
        weak, strong = sorted((snr_a, snr_b))
        assert recommend_sf(strong, current_sf) <= recommend_sf(weak, current_sf)

    @given(st.integers(min_value=7, max_value=12))
    def test_recommended_sf_actually_closes_the_link(self, current_sf):
        # For any recommendation r at SNR s with margin m, the r floor must
        # be satisfied (or r == 12, the best the radio can do).
        for snr_tenths in range(-250, 250, 7):
            snr = snr_tenths / 10.0
            sf = recommend_sf(snr, current_sf, margin_db=10.0)
            if sf < 12:
                assert snr >= SNR_FLOOR_DB[sf] + 10.0


class TestRollupProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            max_size=200,
        ),
        st.floats(min_value=0.1, max_value=1e4),
    )
    @settings(max_examples=50)
    def test_rollup_conserves_count_and_sum(self, samples, interval):
        series = RollupSeries(interval_s=interval)
        for timestamp, value in samples:
            series.add(timestamp, value)
        buckets = series.buckets()
        assert sum(bucket.count for bucket in buckets) == len(samples)
        assert sum(bucket.total for bucket in buckets) == pytest.approx(
            sum(value for _, value in samples), abs=1e-6 * max(1, len(samples))
        )

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
                st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=100,
        ),
        st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=50)
    def test_bucket_minmax_bound_mean(self, samples, interval):
        series = RollupSeries(interval_s=interval)
        for timestamp, value in samples:
            series.add(timestamp, value)
        for bucket in series.buckets():
            assert bucket.minimum <= bucket.mean <= bucket.maximum


class TestAirtimeVsDutyCycle:
    @given(
        st.integers(min_value=7, max_value=12),
        st.integers(min_value=0, max_value=255),
    )
    def test_every_legal_frame_fits_the_hourly_g1_budget(self, sf, size):
        # Even the slowest legal frame (SF12, 255 B, ~9 s) fits the 36 s
        # hourly budget — the mesh can always send *something*.
        from repro.phy.airtime import time_on_air
        from repro.phy.regional import DutyCycleTracker, EU868_CHANNELS

        tracker = DutyCycleTracker(window_s=3600.0)
        airtime = time_on_air(LoRaParams(spreading_factor=sf), size)
        assert tracker.can_transmit(EU868_CHANNELS[0], airtime, now=0.0)
