"""Unit tests for unit conversions."""

import pytest

from repro import units


class TestPowerConversions:
    def test_dbm_mw_round_trip(self):
        for dbm in (-120.0, -50.0, 0.0, 14.0, 27.0):
            assert units.mw_to_dbm(units.dbm_to_mw(dbm)) == pytest.approx(dbm)

    def test_zero_dbm_is_one_milliwatt(self):
        assert units.dbm_to_mw(0.0) == pytest.approx(1.0)

    def test_nonpositive_mw_rejected(self):
        with pytest.raises(ValueError):
            units.mw_to_dbm(0.0)
        with pytest.raises(ValueError):
            units.mw_to_dbm(-1.0)

    def test_db_sum_of_equal_powers_adds_three_db(self):
        assert units.db_sum([-100.0, -100.0]) == pytest.approx(-97.0, abs=0.02)

    def test_db_sum_dominated_by_strongest(self):
        total = units.db_sum([-60.0, -120.0])
        assert total == pytest.approx(-60.0, abs=0.01)

    def test_db_sum_empty_rejected(self):
        with pytest.raises(ValueError):
            units.db_sum([])


class TestTimeAndMisc:
    def test_mah(self):
        # 3600 coulombs at 1 A for an hour = 1000 mAh.
        assert units.mah(3600.0) == pytest.approx(1000.0)
