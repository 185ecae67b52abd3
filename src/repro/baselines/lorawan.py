"""Single-gateway LoRaWAN-style star network baseline.

The paper's opening contrast: "typically, in the LoRaWAN architecture, an
end node periodically sends a LoRaWAN message to a gateway connected to the
Internet".  This module models exactly that — unacknowledged class-A style
uplinks straight to one gateway over the same PHY channel the mesh uses —
so experiment F8 can compare coverage and delivery of star vs mesh on the
same physics.

End nodes here are *not* mesh nodes: no forwarding, no routing, pure ALOHA
uplink with duty-cycle compliance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.phy.channel import Channel, Reception
from repro.phy.params import LoRaParams
from repro.phy.radio import Radio, RadioState
from repro.phy.regional import DutyCycleTracker
from repro.sim.engine import Simulator


@dataclass
class UplinkStats:
    """Per-node uplink accounting at the gateway."""

    sent: int = 0
    received: int = 0

    @property
    def pdr(self) -> float:
        return self.received / self.sent if self.sent else float("nan")


class LoRaWANGateway:
    """Always-listening gateway that counts received uplinks per node."""

    def __init__(self, sim: Simulator, channel: Channel, address: int) -> None:
        self._sim = sim
        self.address = address
        self.stats: Dict[int, UplinkStats] = {}
        self.receptions: List[Reception] = []
        channel.attach(address, self._on_receive, Radio())

    def _on_receive(self, reception: Reception) -> None:
        payload = reception.payload
        sender = payload.get("node") if isinstance(payload, dict) else reception.sender
        self.stats.setdefault(sender, UplinkStats()).received += 1
        self.receptions.append(reception)

    def note_sent(self, node: int) -> None:
        self.stats.setdefault(node, UplinkStats()).sent += 1


class LoRaWANNode:
    """Class-A style end node: periodic unconfirmed uplinks, ALOHA access."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        address: int,
        gateway: LoRaWANGateway,
        interval_s: float,
        payload_bytes: int = 24,
        params: Optional[LoRaParams] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError(f"interval_s must be > 0, got {interval_s}")
        self._sim = sim
        self._channel = channel
        self.address = address
        self.gateway = gateway
        self.interval_s = interval_s
        self.payload_bytes = payload_bytes
        self.params = params or LoRaParams()
        self._rng = rng or random.Random(address)
        self.duty = DutyCycleTracker(enforce=True)
        self.duty_skips = 0
        # End nodes do not receive in this baseline; attach with a sleeping
        # radio so the channel knows the address without delivering to it.
        channel.attach(address, lambda reception: None, Radio(initial_state=RadioState.SLEEP))
        self._running = False

    def start(self) -> None:
        self._running = True
        self._sim.call_in(self._rng.uniform(0, self.interval_s), self._uplink)

    def stop(self) -> None:
        self._running = False

    def _uplink(self) -> None:
        if not self._running:
            return
        # LoRaWAN uses pure ALOHA: no carrier sensing before transmitting.
        wire_size = self.payload_bytes + 13  # LoRaWAN MHDR+FHDR+MIC overhead
        airtime = self._channel.airtime(self.params, wire_size)
        if self.duty.can_transmit(self.params.frequency_hz, airtime, self._sim.now):
            self.duty.record(self.params.frequency_hz, airtime, self._sim.now)
            self.gateway.note_sent(self.address)
            self._channel.transmit(
                self.address, self.params, {"node": self.address}, wire_size
            )
        else:
            self.duty_skips += 1
        jitter = self.interval_s * self._rng.uniform(-0.05, 0.05)
        self._sim.call_in(self.interval_s + jitter, self._uplink)


@dataclass
class LoRaWANNetwork:
    """Convenience bundle: one gateway plus its end nodes."""

    gateway: LoRaWANGateway
    nodes: List[LoRaWANNode] = field(default_factory=list)

    def start(self) -> None:
        for node in self.nodes:
            node.start()

    def pdr_by_node(self) -> Dict[int, float]:
        return {node: stats.pdr for node, stats in sorted(self.gateway.stats.items())}

    def overall_pdr(self) -> float:
        sent = sum(stats.sent for stats in self.gateway.stats.values())
        received = sum(stats.received for stats in self.gateway.stats.values())
        return received / sent if sent else float("nan")
