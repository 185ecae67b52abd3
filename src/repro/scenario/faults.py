"""Declarative fault injection for scenarios.

A :class:`FaultSchedule` is a list of timed faults applied to a built
scenario — the controlled failures the monitoring experiments observe:

* :class:`NodeCrash` — abrupt power loss at ``at_s``, optional recovery;
* :class:`LinkDegradation` — extra attenuation on one link (obstacle,
  antenna damage), optional restoration;
* :class:`BatteryDepletion` — swap in a nearly-empty battery so the node
  browns out organically a bit later.

The schedule also stops the affected node's monitoring client on a
crash and restarts it on recovery, mirroring the firmware dying and
rebooting with the node.

Example::

    scenario = Scenario(config)
    schedule = FaultSchedule([
        NodeCrash(node=13, at_s=3600, recover_at_s=5400),
        LinkDegradation(node_a=2, node_b=5, at_s=4000, extra_db=20),
    ])
    schedule.apply(scenario)
    result = scenario.run()
    # schedule.log records what fired and when
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NodeCrash:
    """Abrupt node failure, with optional recovery."""

    node: int
    at_s: float
    recover_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigurationError(f"at_s must be >= 0, got {self.at_s}")
        if self.recover_at_s is not None and self.recover_at_s <= self.at_s:
            raise ConfigurationError("recover_at_s must be after at_s")


@dataclass(frozen=True)
class LinkDegradation:
    """Extra attenuation on one link, with optional restoration."""

    node_a: int
    node_b: int
    at_s: float
    extra_db: float = 20.0
    restore_at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.extra_db <= 0:
            raise ConfigurationError(f"extra_db must be > 0, got {self.extra_db}")
        if self.restore_at_s is not None and self.restore_at_s <= self.at_s:
            raise ConfigurationError("restore_at_s must be after at_s")


@dataclass(frozen=True)
class BatteryDepletion:
    """Give a node a nearly-dead battery at ``at_s``; it browns out once
    the residual charge drains (organically, via its own radio usage)."""

    node: int
    at_s: float
    residual_mah: float = 5.0

    def __post_init__(self) -> None:
        if self.residual_mah <= 0:
            raise ConfigurationError(f"residual_mah must be > 0, got {self.residual_mah}")


Fault = object  # union of the dataclasses above; kept duck-typed


@dataclass
class FaultSchedule:
    """Timed faults to apply to a scenario."""

    faults: List[Fault] = field(default_factory=list)
    #: (time, description) entries appended as faults fire.
    log: List[Tuple[float, str]] = field(default_factory=list)

    def add(self, fault: Fault) -> "FaultSchedule":
        self.faults.append(fault)
        return self

    def apply(self, scenario) -> None:
        """Schedule every fault on the scenario's simulator.

        Call after building the scenario and before (or during) the run.
        """
        for fault in self.faults:
            if isinstance(fault, NodeCrash):
                self._apply_crash(scenario, fault)
            elif isinstance(fault, LinkDegradation):
                self._apply_link(scenario, fault)
            elif isinstance(fault, BatteryDepletion):
                self._apply_battery(scenario, fault)
            else:
                raise ConfigurationError(f"unknown fault type {type(fault).__name__}")

    # -- per-fault wiring ---------------------------------------------------------

    def _note(self, time: float, message: str) -> None:
        self.log.append((time, message))

    def _apply_crash(self, scenario, fault: NodeCrash) -> None:
        sim = scenario.sim

        def crash() -> None:
            node = scenario.nodes[fault.node]
            if node.failed:
                return
            node.fail()
            client = scenario.clients.get(fault.node)
            if client is not None:
                client.stop()
            self._note(sim.now, f"node {fault.node} crashed")

        sim.call_at(fault.at_s, crash)
        if fault.recover_at_s is not None:
            def recover() -> None:
                node = scenario.nodes[fault.node]
                if not node.failed:
                    return
                node.recover()
                client = scenario.clients.get(fault.node)
                if client is not None:
                    client.restart()
                self._note(sim.now, f"node {fault.node} recovered")

            sim.call_at(fault.recover_at_s, recover)

    def _apply_link(self, scenario, fault: LinkDegradation) -> None:
        sim = scenario.sim

        def degrade() -> None:
            scenario.link_model.set_link_attenuation(
                fault.node_a, fault.node_b, fault.extra_db
            )
            self._note(
                sim.now,
                f"link {fault.node_a}<->{fault.node_b} degraded by {fault.extra_db:g} dB",
            )

        sim.call_at(fault.at_s, degrade)
        if fault.restore_at_s is not None:
            def restore() -> None:
                scenario.link_model.set_link_attenuation(fault.node_a, fault.node_b, 0.0)
                self._note(sim.now, f"link {fault.node_a}<->{fault.node_b} restored")

            sim.call_at(fault.restore_at_s, restore)

    def _apply_battery(self, scenario, fault: BatteryDepletion) -> None:
        sim = scenario.sim

        def deplete() -> None:
            from repro.phy.battery import Battery, attach_battery

            node = scenario.nodes[fault.node]
            radio = node.mac.radio
            radio.finalize(sim.now)
            # Size the battery so exactly residual_mah remains from now on.
            battery = Battery(
                radio,
                capacity_mah=radio.consumed_mah() + fault.residual_mah,
                platform_current_ma=0.0,
            )
            attach_battery(node, battery, fail_when_empty=True)
            self._note(
                sim.now,
                f"node {fault.node} battery down to {fault.residual_mah:g} mAh",
            )

        sim.call_at(fault.at_s, deplete)
