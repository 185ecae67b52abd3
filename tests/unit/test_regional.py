"""Unit tests for EU868 duty-cycle tracking."""

import pytest

from repro.errors import ConfigurationError, DutyCycleError
from repro.phy.regional import (
    DutyCycleTracker,
    EU868_CHANNELS,
    band_for,
)

F_G1 = 868_100_000  # g1: 1 %
F_G3 = 869_500_000  # g3: 10 %


class TestBands:
    def test_default_channels_are_in_g1(self):
        for frequency in EU868_CHANNELS:
            assert band_for(frequency).name == "g1"

    def test_g3_band(self):
        band = band_for(F_G3)
        assert band.name == "g3"
        assert band.duty_cycle == pytest.approx(0.10)
        assert band.max_erp_dbm == 27.0

    def test_out_of_band_rejected(self):
        with pytest.raises(ConfigurationError):
            band_for(915_000_000)


class TestTracker:
    def test_budget_is_duty_times_window(self):
        tracker = DutyCycleTracker(window_s=3600.0)
        assert tracker.budget_remaining(F_G1, 0.0) == pytest.approx(36.0)
        assert tracker.budget_remaining(F_G3, 0.0) == pytest.approx(360.0)

    def test_record_consumes_budget(self):
        tracker = DutyCycleTracker(window_s=3600.0)
        tracker.record(F_G1, 10.0, now=0.0)
        assert tracker.budget_remaining(F_G1, 0.0) == pytest.approx(26.0)

    def test_enforcement_raises_when_exceeded(self):
        tracker = DutyCycleTracker(window_s=100.0, enforce=True)
        tracker.record(F_G1, 1.0, now=0.0)  # budget is 1.0 s
        with pytest.raises(DutyCycleError):
            tracker.record(F_G1, 0.1, now=1.0)
        assert tracker.violations == 1

    def test_non_enforcing_mode_counts_violations(self):
        tracker = DutyCycleTracker(window_s=100.0, enforce=False)
        tracker.record(F_G1, 1.0, now=0.0)
        tracker.record(F_G1, 0.5, now=1.0)  # over budget but allowed
        assert tracker.violations == 1
        assert tracker.used_airtime(F_G1, 1.0) == pytest.approx(1.5)

    def test_window_slides(self):
        tracker = DutyCycleTracker(window_s=100.0)
        tracker.record(F_G1, 1.0, now=0.0)
        assert not tracker.can_transmit(F_G1, 0.5, now=50.0)
        # After the old record ages out, budget is restored.
        assert tracker.can_transmit(F_G1, 0.5, now=150.0)

    def test_bands_have_independent_budgets(self):
        tracker = DutyCycleTracker(window_s=100.0)
        tracker.record(F_G1, 1.0, now=0.0)  # exhaust g1
        assert tracker.can_transmit(F_G3, 5.0, now=0.0)  # g3 untouched

    def test_utilisation(self):
        tracker = DutyCycleTracker(window_s=3600.0)
        tracker.record(F_G1, 18.0, now=0.0)
        assert tracker.utilisation(F_G1, 0.0) == pytest.approx(0.5)

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            DutyCycleTracker(window_s=0.0)
