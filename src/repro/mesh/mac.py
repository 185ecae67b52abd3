"""CSMA/CAD medium-access control with per-hop ACK and retransmission.

Mirrors what LoRa mesh firmware does around the SX127x radio:

* **channel activity detection** before transmitting, with binary
  exponential backoff while the channel is busy,
* **duty-cycle gating**: a frame that would bust the EU868 budget is
  deferred (or, with enforcement off, sent and counted as a violation),
* **per-hop ACKs** for unicast frames that request them, with bounded
  retransmission,
* a bounded FIFO queue with tail drop,
* radio state management (RX <-> TX) and energy accounting.

The MAC transports :class:`~repro.mesh.packet.Packet` objects; the declared
wire size (``packet.wire_size``) drives airtime, so all overhead numbers in
the benchmarks are honest byte counts.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from repro.errors import DutyCycleError
from repro.mesh.addressing import BROADCAST
from repro.mesh.config import MeshConfig
from repro.mesh.packet import Packet
from repro.phy.channel import Channel
from repro.phy.params import LoRaParams
from repro.phy.radio import Radio, RadioState
from repro.phy.regional import DutyCycleTracker
from repro.sim.engine import Event, Simulator
from repro.sim.trace import TraceLog

#: Turnaround delay before an ACK is transmitted (RX->TX switch + processing).
ACK_TURNAROUND_S = 0.05

DoneCallback = Callable[[bool, str], None]
FrameTxHook = Callable[[Packet, float, int], None]


@dataclass
class MacStats:
    """Counters the monitoring client reads out periodically."""

    tx_frames: int = 0
    tx_bytes: int = 0
    tx_airtime_s: float = 0.0
    retransmissions: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    drops: Dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())


@dataclass
class _Outbound:
    """A queued frame and its bookkeeping."""

    packet: Packet
    on_done: Optional[DoneCallback]
    tx_attempts: int = 0
    csma_attempts: int = 0
    duty_deferrals: int = 0


class CsmaMac:
    """Medium-access layer for one node."""

    #: Wait before re-checking the duty-cycle budget.
    DUTY_RETRY_S = 5.0
    #: Give up on a frame after this many duty-cycle deferrals.
    MAX_DUTY_DEFERRALS = 120

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        address: int,
        params: LoRaParams,
        config: MeshConfig,
        rng: random.Random,
        radio: Optional[Radio] = None,
        duty_tracker: Optional[DutyCycleTracker] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self._sim = sim
        self._channel = channel
        self._trace = trace
        self.address = address
        self.params = params
        self._config = config
        self._rng = rng
        self.radio = radio or Radio()
        self.duty = duty_tracker or DutyCycleTracker(enforce=config.duty_cycle_enforce)
        self.stats = MacStats()
        self._queue: Deque[_Outbound] = deque()
        self._in_flight: Optional[_Outbound] = None
        self._awaiting_ack = False
        self._ack_timeout_event: Optional[Event] = None
        self._transmitting = False
        self._pending_retry: Optional[Event] = None
        #: Hook invoked at every physical transmission (the monitoring
        #: client's "outgoing packet" observation point).
        self.on_frame_tx: Optional[FrameTxHook] = None
        self._stopped = False

    # -- queue management ---------------------------------------------------

    def send(self, packet: Packet, on_done: Optional[DoneCallback] = None) -> bool:
        """Queue ``packet`` for transmission.

        Returns:
            False when the queue is full and the frame was dropped (the
            callback, if any, fires with ``(False, "queue_full")``).
        """
        if self._stopped:
            if on_done is not None:
                on_done(False, "stopped")
            return False
        if len(self._queue) >= self._config.queue_limit:
            self.stats.drop("queue_full")
            self._emit_drop(packet, "queue_full", attempts=0)
            if on_done is not None:
                on_done(False, "queue_full")
            return False
        self._queue.append(_Outbound(packet=packet, on_done=on_done))
        self._schedule_attempt(0.0)
        return True

    @property
    def queue_depth(self) -> int:
        depth = len(self._queue)
        if self._in_flight is not None:
            depth += 1
        return depth

    def stop(self) -> None:
        """Halt the MAC (node failure): flush the queue, freeze the radio."""
        self._stopped = True
        if self._pending_retry is not None:
            self._pending_retry.cancel()
        if self._ack_timeout_event is not None:
            self._ack_timeout_event.cancel()
        if self._in_flight is not None:
            # The in-flight frame dies with the node; it never gets a
            # callback (the node is gone), but the trace records its fate.
            self._emit_drop(self._in_flight.packet, "stopped", self._in_flight.tx_attempts)
        for item in self._queue:
            self._emit_drop(item.packet, "stopped", item.tx_attempts)
            if item.on_done is not None:
                item.on_done(False, "stopped")
        self._queue.clear()
        self._in_flight = None
        self.radio.set_state(RadioState.SLEEP, self._sim.now)

    # -- transmission path ---------------------------------------------------

    def _schedule_attempt(self, delay: float) -> None:
        if self._stopped:
            return
        if self._pending_retry is not None and not self._pending_retry.cancelled:
            return
        self._pending_retry = self._sim.call_in(delay, self._attempt)

    def _attempt(self) -> None:
        """Try to put the head-of-line frame on the air."""
        self._pending_retry = None
        if self._stopped or self._transmitting or self._awaiting_ack:
            return
        if self._in_flight is None:
            if not self._queue:
                return
            self._in_flight = self._queue.popleft()
        item = self._in_flight

        if self._channel.is_busy(self.address):
            item.csma_attempts += 1
            if item.csma_attempts > self._config.csma_max_attempts:
                self._finish(item, False, "csma_exhausted")
                return
            window = min(
                self._config.csma_initial_backoff_s * (2 ** (item.csma_attempts - 1)),
                self._config.csma_max_backoff_s,
            )
            self._schedule_attempt(self._rng.uniform(0.0, window) + 1e-3)
            return

        airtime = self._channel.airtime(self.params, item.packet.wire_size)
        if not self.duty.can_transmit(self.params.frequency_hz, airtime, self._sim.now):
            if self._config.duty_cycle_enforce:
                item.duty_deferrals += 1
                if item.duty_deferrals > self.MAX_DUTY_DEFERRALS:
                    self._finish(item, False, "duty_cycle")
                    return
                self._schedule_attempt(self.DUTY_RETRY_S)
                return
            # Not enforcing: transmit anyway; the tracker counts a violation.
        try:
            self.duty.record(self.params.frequency_hz, airtime, self._sim.now)
        except DutyCycleError:
            # Enforcement raced with a budget change; defer like above.
            self._schedule_attempt(self.DUTY_RETRY_S)
            return
        self._transmit_now(item, airtime)

    def _transmit_now(self, item: _Outbound, airtime: float) -> None:
        item.tx_attempts += 1
        if item.tx_attempts > 1:
            self.stats.retransmissions += 1
        self._transmitting = True
        self.radio.set_state(RadioState.TX, self._sim.now)
        self._channel.transmit(self.address, self.params, item.packet, item.packet.wire_size)
        self.stats.tx_frames += 1
        self.stats.tx_bytes += item.packet.wire_size
        self.stats.tx_airtime_s += airtime
        if self.on_frame_tx is not None:
            self.on_frame_tx(item.packet, airtime, item.tx_attempts)
        self._sim.call_in(airtime, lambda: self._tx_complete(item))

    def _tx_complete(self, item: _Outbound) -> None:
        self._transmitting = False
        if self._stopped:
            return  # the radio stays asleep
        self.radio.set_state(RadioState.RX, self._sim.now)
        needs_ack = item.packet.wants_ack and item.packet.next_hop != BROADCAST
        if needs_ack:
            self._awaiting_ack = True
            self._ack_timeout_event = self._sim.call_in(
                self._config.ack_timeout_s, lambda: self._ack_timeout(item)
            )
        else:
            self._finish(item, True, "sent")

    def _ack_timeout(self, item: _Outbound) -> None:
        if not self._awaiting_ack or self._in_flight is not item:
            return
        self._awaiting_ack = False
        self._ack_timeout_event = None
        if item.tx_attempts > self._config.max_retries:
            self._finish(item, False, "ack_timeout")
            return
        item.csma_attempts = 0
        # Grow the retry window with the attempt count: consecutive losses
        # usually mean contention, and re-entering immediately re-collides.
        window = min(
            self._config.csma_initial_backoff_s * (2 ** item.tx_attempts),
            self._config.csma_max_backoff_s * 4,
        )
        self._schedule_attempt(self._rng.uniform(0.0, window))

    def handle_ack(self, acked_src: int, acked_packet_id: int, from_addr: int) -> bool:
        """Feed a received ACK to the MAC.

        Returns:
            True when it acknowledged the in-flight frame.
        """
        item = self._in_flight
        if (
            not self._awaiting_ack
            or item is None
            or item.packet.src != acked_src
            or item.packet.packet_id != acked_packet_id
            or item.packet.next_hop != from_addr
        ):
            return False
        self._awaiting_ack = False
        if self._ack_timeout_event is not None:
            self._ack_timeout_event.cancel()
            self._ack_timeout_event = None
        self.stats.acks_received += 1
        self._finish(item, True, "acked")
        return True

    def send_ack(self, ack_packet: Packet) -> None:
        """Transmit an ACK after the turnaround delay, jumping the queue.

        ACKs are still duty-cycle accounted, but skip CSMA: the medium was
        just occupied by the frame being acknowledged, and the fixed
        turnaround keeps ack scheduling deterministic.
        """
        if self._stopped:
            return

        def fire() -> None:
            if self._stopped:
                return
            if self._transmitting:
                # Radio busy with a data frame; try again shortly.
                self._sim.call_in(0.02, fire)
                return
            airtime = self._channel.airtime(self.params, ack_packet.wire_size)
            if not self.duty.can_transmit(self.params.frequency_hz, airtime, self._sim.now):
                # An unsent ACK is cheaper than a duty violation; the data
                # sender will retransmit.
                self.stats.drop("ack_duty_cycle")
                self._emit_drop(ack_packet, "ack_duty_cycle", attempts=0)
                return
            self.duty.record(self.params.frequency_hz, airtime, self._sim.now)
            self._transmitting = True
            self.radio.set_state(RadioState.TX, self._sim.now)
            self._channel.transmit(self.address, self.params, ack_packet, ack_packet.wire_size)
            self.stats.tx_frames += 1
            self.stats.tx_bytes += ack_packet.wire_size
            self.stats.tx_airtime_s += airtime
            self.stats.acks_sent += 1
            if self.on_frame_tx is not None:
                self.on_frame_tx(ack_packet, airtime, 1)

            def done() -> None:
                self._transmitting = False
                if self._stopped:
                    return  # the radio stays asleep
                self.radio.set_state(RadioState.RX, self._sim.now)
                self._schedule_attempt(0.0)

            self._sim.call_in(airtime, done)

        self._sim.call_in(ACK_TURNAROUND_S, fire)

    def _finish(self, item: _Outbound, ok: bool, reason: str) -> None:
        if self._in_flight is item:
            self._in_flight = None
        if not ok:
            self.stats.drop(reason)
            self._emit_drop(item.packet, reason, item.tx_attempts)
        if item.on_done is not None:
            item.on_done(ok, reason)
        if self._queue:
            self._schedule_attempt(0.0)

    def _emit_drop(self, packet: Packet, reason: str, attempts: int) -> None:
        """Ground-truth record of a frame the MAC gave up on."""
        if self._trace is None:
            return
        self._trace.emit(
            self._sim.now,
            "mac.drop",
            node=self.address,
            reason=reason,
            src=packet.src,
            packet_id=packet.packet_id,
            ptype=int(packet.ptype),
            dst=packet.dst,
            next_hop=packet.next_hop,
            tx_attempts=attempts,
        )
