"""Unit tests for scenario configuration and the errors hierarchy."""

import pytest

from repro import api
from repro.errors import (
    ConfigurationError,
    DecodeError,
    DutyCycleError,
    EncodeError,
    ReproError,
    SimulationError,
    StorageError,
)
from repro.scenario.config import MonitorMode, ScenarioConfig, WorkloadSpec
from repro.sim.topology import Placement


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        config = ScenarioConfig()
        assert config.n_nodes == 25
        assert config.monitor_mode is MonitorMode.OUT_OF_BAND

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_nodes=1)

    def test_gateway_must_exist(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_nodes=5, gateway=6)

    def test_bad_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(protocol="olsr")

    def test_bad_uplink_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(uplink_loss=2.0)

    def test_with_overrides_sweeps(self):
        base = ScenarioConfig(n_nodes=9)
        swept = base.with_overrides(n_nodes=25, seed=7)
        assert swept.n_nodes == 25 and swept.seed == 7
        assert base.n_nodes == 9

    def test_placement_enum(self):
        config = ScenarioConfig(placement=Placement.LINE)
        assert config.placement is Placement.LINE


class TestWorkloadSpec:
    def test_defaults(self):
        spec = WorkloadSpec()
        assert spec.kind == "periodic" and spec.pattern == "convergecast"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="avalanche")

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(pattern="mesh2mesh")

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(payload_bytes=-1)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [ConfigurationError, SimulationError, DecodeError, EncodeError,
         DutyCycleError, StorageError],
    )
    def test_all_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, ReproError)

    def test_public_api_exports(self):
        for name in ("ScenarioConfig", "run_scenario", "Dashboard", "MeshNode", "LoRaParams"):
            assert hasattr(api, name)
        assert api.__version__
