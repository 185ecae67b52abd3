"""Unit tests for the battery model."""

import pytest

from repro.errors import ConfigurationError
from repro.phy.battery import Battery, LIION_OCV_CURVE, attach_battery, ocv_volts
from repro.phy.radio import Radio, RadioState


class TestOcvCurve:
    def test_full_and_empty_endpoints(self):
        assert ocv_volts(1.0) == pytest.approx(4.20)
        assert ocv_volts(0.0) == pytest.approx(3.00)

    def test_monotone_in_soc(self):
        values = [ocv_volts(soc / 20) for soc in range(21)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_interpolation_between_knots(self):
        # Midway between (0.40, 3.75) and (0.70, 3.90).
        assert ocv_volts(0.55) == pytest.approx(3.825, abs=1e-6)

    def test_clamps_out_of_range(self):
        assert ocv_volts(1.5) == ocv_volts(1.0)
        assert ocv_volts(-0.5) == ocv_volts(0.0)

    def test_curve_is_descending_soc(self):
        socs = [soc for soc, _ in LIION_OCV_CURVE]
        assert socs == sorted(socs, reverse=True)


class TestBattery:
    def test_fresh_battery_is_full(self):
        battery = Battery(Radio(), capacity_mah=1000.0, platform_current_ma=0.0)
        assert battery.state_of_charge(0.0) == pytest.approx(1.0)
        assert battery.voltage(0.0) == pytest.approx(4.20)

    def test_rx_drain_over_time(self):
        radio = Radio()  # always in RX at 11.5 mA
        battery = Battery(radio, capacity_mah=1150.0, platform_current_ma=0.0)
        # After 50 h of RX: 575 mAh consumed -> SoC 0.5.
        soc = battery.state_of_charge(50 * 3600.0)
        assert soc == pytest.approx(0.5, abs=0.01)

    def test_platform_draw_counts(self):
        radio = Radio(initial_state=RadioState.SLEEP)
        battery = Battery(radio, capacity_mah=100.0, platform_current_ma=10.0)
        # 10 mA for 5 h = 50 mAh.
        assert battery.consumed_mah(5 * 3600.0) == pytest.approx(50.0, abs=0.1)

    def test_depletion_clamps_at_zero(self):
        battery = Battery(Radio(), capacity_mah=1.0)
        assert battery.state_of_charge(100 * 3600.0) == 0.0
        assert battery.is_depleted(100 * 3600.0)
        assert battery.voltage(100 * 3600.0) == pytest.approx(3.00)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            Battery(Radio(), capacity_mah=0.0)
        with pytest.raises(ConfigurationError):
            Battery(Radio(), capacity_mah=100.0, initial_soc=1.5)


class TestAttachBattery:
    def test_status_reports_declining_voltage(self, small_mesh):
        world = small_mesh
        node = world.nodes[5]
        battery = Battery(node.mac.radio, capacity_mah=2500.0)
        attach_battery(node, battery, fail_when_empty=False)
        v_start = node.status()["battery_v"]
        world.sim.run(until=world.sim.now + 3600.0)
        v_later = node.status()["battery_v"]
        assert v_later < v_start <= 4.20

    def test_node_fails_when_battery_empty(self, small_mesh):
        world = small_mesh
        node = world.nodes[5]
        # Tiny battery: dies within the hour.
        battery = Battery(node.mac.radio, capacity_mah=5.0, platform_current_ma=0.0)
        attach_battery(node, battery, fail_when_empty=True)
        world.sim.run(until=world.sim.now + 3600.0)
        node.battery_volts(world.sim.now)  # status sampling triggers the check
        assert node.failed
