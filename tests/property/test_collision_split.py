"""Property: the split collision rule decides exactly like the single-call one.

``CollisionModel.threats`` (frequency, SF and timing: the frames alone)
and ``CollisionModel.captures`` (power: one receiver) replaced one
``survives`` call per (receiver, frame).  The oracle below is that
``survives`` body, kept verbatim.  Over random frames — every SF, carriers
inside, at and outside the guard band, interference that ends in the early
preamble, at the critical section's start and after it, RSSI exactly at
the capture and cross-SF thresholds — the new ``survives`` must agree with
it, and so must ``threats`` computed once per frame plus ``captures`` per
receiver, for every receiver's RSSI set.
"""

from dataclasses import dataclass
from typing import List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.airtime import symbol_time
from repro.phy.collision import CollisionModel, FrameOnAir
from repro.phy.params import LoRaParams
from repro.units import db_sum

BASE_HZ = 868_100_000
BANDWIDTHS = (125_000, 250_000, 500_000)
#: Carrier offsets from the frame: on it, inside, exactly at and outside
#: each bandwidth's guard (30 / 60 / 120 kHz).
OFFSETS_HZ = (0, 10_000, 29_999, 30_000, 59_999, 60_000, 119_999, 120_000, 200_000)


class SeedCollisionModel(CollisionModel):
    """The collision model with ``survives`` as it was before the split;
    both method bodies are unchanged."""

    def _critical_section_start(self, frame: FrameOnAir) -> float:
        """Time after which interference prevents preamble lock."""
        locked_after = self._locked_after.get(frame.params)
        if locked_after is None:
            t_sym = symbol_time(frame.params)
            locked_after = max(
                (frame.params.preamble_symbols - self.critical_preamble_symbols) * t_sym,
                0.0,
            )
            self._locked_after[frame.params] = locked_after
        return frame.start + locked_after

    def survives(self, frame: FrameOnAir, interferers: Sequence[FrameOnAir]) -> bool:
        """Whether ``frame`` is correctly received despite ``interferers``.

        The caller passes every other frame on air at this receiver during
        the frame; non-overlapping and far-frequency frames are ignored
        here, so passing a superset is safe.
        """
        relevant: List[FrameOnAir] = [
            other
            for other in interferers
            if other is not frame
            and frame.overlaps(other)
            and self.frequency_overlap(frame.params, other.params)
        ]
        if not relevant:
            return True

        critical_start = self._critical_section_start(frame)
        same_sf: List[FrameOnAir] = []
        for other in relevant:
            if other.params.spreading_factor == frame.params.spreading_factor:
                same_sf.append(other)
            else:
                # Cross-SF: quasi-orthogonal unless the interferer is vastly
                # stronger and hits the critical section.
                if (
                    other.rssi_dbm - frame.rssi_dbm >= self.cross_sf_rejection_db
                    and other.end > critical_start
                ):
                    return False

        if not same_sf:
            return True

        # Timing rule: interference confined to the early preamble is harmless.
        dangerous = [other for other in same_sf if other.end > critical_start]
        if not dangerous:
            return True

        # Capture rule: survive if stronger than the sum of dangerous
        # interferers by the capture threshold.
        interference_dbm = db_sum([other.rssi_dbm for other in dangerous])
        return frame.rssi_dbm - interference_dbm >= self.capture_threshold_db


@dataclass(frozen=True)
class Airing:
    """A frame without a receiver: what the channel holds once per frame."""

    params: LoRaParams
    start: float
    end: float


FRAME_START = 1.0


@st.composite
def params(draw, offsets_hz=OFFSETS_HZ, spreading_factors=st.integers(7, 12)):
    return LoRaParams(
        spreading_factor=draw(spreading_factors),
        bandwidth_hz=draw(st.sampled_from(BANDWIDTHS)),
        frequency_hz=BASE_HZ + draw(st.sampled_from(offsets_hz)) * draw(st.sampled_from((1, -1))),
        preamble_symbols=draw(st.integers(6, 12)),
    )


@st.composite
def scenes(draw):
    """The number of preamble symbols the receiver needs clean, a frame,
    the frames overlapping it or not, and several receivers' RSSI for each
    of them (index 0 is the frame)."""
    # 16 exceeds every preamble: the whole frame is the critical section.
    critical_symbols = draw(st.sampled_from((5, 8, 16)))
    model = CollisionModel(critical_preamble_symbols=critical_symbols)
    frame_params = draw(params(offsets_hz=(0,)))
    duration = draw(st.floats(0.01, 2.0))
    frame = Airing(frame_params, FRAME_START, FRAME_START + duration)
    locked_after = max(
        (frame_params.preamble_symbols - critical_symbols) * symbol_time(frame_params), 0.0
    )
    critical_start = FRAME_START + locked_after
    others = []
    for _ in range(draw(st.integers(0, 6))):
        # Half the time on the frame's SF and often on its carrier, so
        # same-SF threats are common.
        other_params = draw(
            params(
                offsets_hz=(0, 0) + OFFSETS_HZ,
                spreading_factors=st.one_of(
                    st.just(frame_params.spreading_factor), st.integers(7, 12)
                ),
            )
        )
        other_duration = draw(st.floats(0.01, 2.0))
        end = draw(
            st.one_of(
                # Confined to the early preamble, or ending exactly where
                # the critical section starts.
                st.floats(FRAME_START, critical_start) if locked_after > 0 else st.nothing(),
                st.just(critical_start),
                # Into the frame, past it, or over before it began.
                st.floats(critical_start, frame.end + 1.0),
                st.floats(FRAME_START - 1.0, FRAME_START),
                st.just(FRAME_START),
            )
        )
        others.append(Airing(other_params, end - other_duration, end))
    receivers = []
    for _ in range(draw(st.integers(1, 4))):
        rssi = draw(st.floats(-140.0, -40.0))
        levels = [rssi]
        for _ in others:
            levels.append(
                draw(
                    st.one_of(
                        st.floats(-140.0, -40.0),
                        # Exactly at the capture / cross-SF margins.
                        st.just(rssi - model.capture_threshold_db),
                        st.just(rssi + model.cross_sf_rejection_db),
                        st.just(rssi),
                    )
                )
            )
        receivers.append(levels)
    return critical_symbols, frame, others, receivers


def at_receiver(frame, others, levels):
    target = FrameOnAir(frame.params, levels[0], frame.start, frame.end)
    interferers = [
        FrameOnAir(other.params, level, other.start, other.end)
        for other, level in zip(others, levels[1:])
    ]
    return target, interferers


@settings(max_examples=600, deadline=None)
@given(scene=scenes())
def test_survives_equals_oracle(scene):
    critical_symbols, frame, others, receivers = scene
    model = CollisionModel(critical_preamble_symbols=critical_symbols)
    oracle = SeedCollisionModel(critical_preamble_symbols=critical_symbols)
    for levels in receivers:
        target, interferers = at_receiver(frame, others, levels)
        expected = oracle.survives(target, interferers)
        assert model.survives(target, interferers) == expected
        # The frame itself in the list is ignored, as before.
        assert model.survives(target, interferers + [target]) == expected


@settings(max_examples=600, deadline=None)
@given(scene=scenes())
def test_threats_once_then_captures_per_receiver_equals_oracle(scene):
    critical_symbols, frame, others, receivers = scene
    model = CollisionModel(critical_preamble_symbols=critical_symbols)
    oracle = SeedCollisionModel(critical_preamble_symbols=critical_symbols)
    cross_sf, same_sf = model.threats(frame.params, frame.start, frame.end, others)
    index = {id(other): position for position, other in enumerate(others, start=1)}
    # Threats keep the order they were passed in (the capture sum is
    # order-sensitive in the last bits).
    for threats in (cross_sf, same_sf):
        positions = [index[id(other)] for other in threats]
        assert positions == sorted(positions)
    for levels in receivers:
        target, interferers = at_receiver(frame, others, levels)
        verdict = model.captures(
            levels[0],
            [levels[index[id(other)]] for other in cross_sf],
            [levels[index[id(other)]] for other in same_sf],
        )
        assert verdict == oracle.survives(target, interferers)
