"""LoRa collision model.

Follows the widely used LoRaSim rules (Bor et al., "Do LoRa Low-Power
Wide-Area Networks Scale?", MSWiM 2016), which decompose "do two overlapping
transmissions destroy each other at a given receiver?" into four conditions:

* **frequency**: carriers must overlap within a guard band that depends on
  bandwidth; otherwise the frames never interact;
* **spreading factor**: different SFs are quasi-orthogonal — same-SF frames
  interfere, cross-SF frames only interfere if the interferer is much
  stronger (we use a conservative cross-SF rejection threshold);
* **power (capture effect)**: a frame survives same-SF interference when it
  is at least ``capture_threshold_db`` (default 6 dB) stronger than the
  *sum* of interferers;
* **timing (critical section)**: a weaker frame still survives if the
  interference ends before its last ``critical_preamble_symbols`` preamble
  symbols begin — the receiver can then still lock onto the preamble.

The rule is split along what depends on the receiver.  Frequency, SF and
timing are properties of the frames alone, so :meth:`CollisionModel.threats`
decides once per frame which overlapping frames can corrupt it at *any*
receiver; power is all a receiver adds, so :meth:`CollisionModel.captures`
compares one receiver's RSSI against those threats only.
:meth:`CollisionModel.survives` is the two composed, for callers that hold
one receiver's view of every frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Protocol, Sequence, Tuple, TypeVar

from repro.phy.airtime import symbol_time
from repro.phy.params import LoRaParams
from repro.units import db_sum


class OnAir(Protocol):
    """What :meth:`CollisionModel.threats` reads of a frame: its modulation
    and air interval (a :class:`FrameOnAir`, or the channel's
    ``Transmission``)."""

    @property
    def params(self) -> LoRaParams: ...

    @property
    def start(self) -> float: ...

    @property
    def end(self) -> float: ...


Frame = TypeVar("Frame", bound=OnAir)


@dataclass(frozen=True)
class FrameOnAir:
    """What the collision model needs to know about one frame at a receiver.

    Attributes:
        params: modulation settings of the frame.
        rssi_dbm: received power at this receiver.
        start: transmission start time (s).
        end: transmission end time (s).
    """

    params: LoRaParams
    rssi_dbm: float
    start: float
    end: float

    def overlaps(self, other: "FrameOnAir") -> bool:
        """Whether the two frames are on air simultaneously at any instant."""
        return self.start < other.end and other.start < self.end


class CollisionModel:
    """Decides frame survival under concurrent transmissions."""

    def __init__(
        self,
        capture_threshold_db: float = 6.0,
        cross_sf_rejection_db: float = 16.0,
        critical_preamble_symbols: int = 5,
    ) -> None:
        """Create a collision model.

        Args:
            capture_threshold_db: power advantage needed to survive same-SF
                interference (LoRaSim uses 6 dB).
            cross_sf_rejection_db: how much *stronger* a different-SF
                interferer must be to corrupt the frame (imperfect
                orthogonality; interferer wins only above this margin).
            critical_preamble_symbols: number of trailing preamble symbols
                the receiver needs interference-free to lock on.
        """
        self.capture_threshold_db = capture_threshold_db
        self.cross_sf_rejection_db = cross_sf_rejection_db
        self.critical_preamble_symbols = critical_preamble_symbols
        # Preamble-lock offset per modulation params (LoRaParams is
        # frozen/hashable); threats() needs it once per frame.
        self._locked_after: Dict[LoRaParams, float] = {}

    def frequency_overlap(self, a: LoRaParams, b: LoRaParams) -> bool:
        """Whether two carriers are close enough to interact.

        Uses the LoRaSim guard rules: 500 kHz carriers need 120 kHz
        separation, 250 kHz need 60 kHz, 125 kHz need 30 kHz.
        """
        min_bw = min(a.bandwidth_hz, b.bandwidth_hz)
        if min_bw >= 500_000:
            guard_hz = 120_000
        elif min_bw >= 250_000:
            guard_hz = 60_000
        else:
            guard_hz = 30_000
        return abs(a.frequency_hz - b.frequency_hz) < guard_hz

    def threats(
        self, params: LoRaParams, start: float, end: float, others: Iterable[Frame]
    ) -> Tuple[List[Frame], List[Frame]]:
        """Receiver-independent half of the rule: which of ``others`` can
        corrupt a frame sent with ``params`` over ``[start, end)``.

        A threat overlaps the frame in time, sits on an interacting
        carrier and is still on air when the frame's critical preamble
        section begins; everything else is harmless at every receiver, so
        passing a superset of the overlapping frames is safe.

        Returns:
            ``(cross_sf, same_sf)``: the threats with a different and with
            the same spreading factor, each in the order of ``others``.
        """
        locked_after = self._locked_after.get(params)
        if locked_after is None:
            locked_after = max(
                (params.preamble_symbols - self.critical_preamble_symbols) * symbol_time(params),
                0.0,
            )
            self._locked_after[params] = locked_after
        critical_start = start + locked_after
        cross_sf: List[Frame] = []
        same_sf: List[Frame] = []
        for other in others:
            if not (start < other.end and other.start < end):
                continue
            # Timing rule: interference confined to the early preamble is harmless.
            if other.end <= critical_start or not self.frequency_overlap(params, other.params):
                continue
            if other.params.spreading_factor == params.spreading_factor:
                same_sf.append(other)
            else:
                cross_sf.append(other)
        return cross_sf, same_sf

    def captures(self, rssi_dbm: float, cross_rssi: List[float], same_rssi: List[float]) -> bool:
        """Receiver-dependent half of the rule: whether a frame received at
        ``rssi_dbm`` survives threats received at these powers.

        Args:
            rssi_dbm: the frame's power at this receiver.
            cross_rssi: power here of each cross-SF threat.
            same_rssi: power here of each same-SF threat, in threat order.
        """
        # Cross-SF: quasi-orthogonal unless the interferer is vastly stronger.
        for level in cross_rssi:
            if level - rssi_dbm >= self.cross_sf_rejection_db:
                return False
        if not same_rssi:
            return True
        # Capture rule: survive if stronger than the sum of same-SF threats
        # by the capture threshold.
        return rssi_dbm - db_sum(same_rssi) >= self.capture_threshold_db

    def survives(self, frame: FrameOnAir, interferers: Sequence[FrameOnAir]) -> bool:
        """Whether ``frame`` is correctly received despite ``interferers``.

        The caller passes every other frame on air at this receiver during
        the frame; non-overlapping and far-frequency frames are ignored
        here, so passing a superset is safe.
        """
        cross_sf, same_sf = self.threats(
            frame.params,
            frame.start,
            frame.end,
            [other for other in interferers if other is not frame],
        )
        return self.captures(
            frame.rssi_dbm,
            [other.rssi_dbm for other in cross_sf],
            [other.rssi_dbm for other in same_sf],
        )
