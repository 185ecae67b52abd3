"""Unit tests for the radio state machine and energy model."""

import pytest

from repro.errors import SimulationError
from repro.phy.radio import EnergyModel, Radio, RadioState


class TestStateTracking:
    def test_initial_state_is_rx(self):
        assert Radio().state == RadioState.RX

    def test_time_accounting(self):
        radio = Radio()
        radio.set_state(RadioState.TX, 10.0)
        radio.set_state(RadioState.RX, 12.5)
        radio.finalize(20.0)
        assert radio.summary()["time_rx_s"] == pytest.approx(10.0 + 7.5)
        assert radio.summary()["time_tx_s"] == pytest.approx(2.5)

    def test_time_cannot_go_backwards(self):
        radio = Radio()
        radio.set_state(RadioState.TX, 10.0)
        with pytest.raises(SimulationError):
            radio.set_state(RadioState.RX, 5.0)

    def test_finalize_keeps_state(self):
        radio = Radio()
        radio.set_state(RadioState.SLEEP, 1.0)
        radio.finalize(5.0)
        assert radio.state == RadioState.SLEEP
        assert radio.summary()["time_sleep_s"] == pytest.approx(4.0)


class TestEnergy:
    def test_tx_costs_more_than_rx(self):
        tx_radio = Radio()
        tx_radio.set_state(RadioState.TX, 0.0)
        tx_radio.finalize(100.0)
        rx_radio = Radio()
        rx_radio.finalize(100.0)
        assert tx_radio.consumed_mah() > rx_radio.consumed_mah()

    def test_sleep_is_nearly_free(self):
        radio = Radio()
        radio.set_state(RadioState.SLEEP, 0.0)
        radio.finalize(3600.0)
        assert radio.consumed_mah() < 0.001

    def test_known_rx_consumption(self):
        # 11.5 mA for one hour = 11.5 mAh.
        radio = Radio()
        radio.finalize(3600.0)
        assert radio.consumed_mah() == pytest.approx(11.5, rel=1e-6)

    def test_custom_energy_model(self):
        model = EnergyModel(current_ma={state: 1.0 for state in RadioState})
        radio = Radio(energy_model=model)
        radio.finalize(3600.0)
        assert radio.consumed_mah() == pytest.approx(1.0)

    def test_summary_fields(self):
        radio = Radio()
        radio.finalize(10.0)
        summary = radio.summary()
        assert summary["time_rx_s"] == pytest.approx(10.0)
        assert "consumed_mah" in summary
