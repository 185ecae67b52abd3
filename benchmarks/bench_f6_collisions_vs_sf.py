"""F6 — Collision behaviour vs spreading factor and contender count.

The LoRaSim-style PHY validation figure: N nodes around a receiver all
transmit Poisson traffic on the same channel (pure ALOHA, no CSMA — this
isolates the PHY collision model from the MAC) and we measure the frame
success rate at the receiver for SF in {7..12}.
"""

import random

from repro.analysis.report import ExperimentReport
from repro.api import (
    Channel,
    LinkModel,
    LoRaParams,
    PathLossParams,
    Radio,
    RadioState,
    Simulator,
    Topology,
)

from benchmarks.common import emit

SFS = (7, 9, 12)
CONTENDERS = (2, 10, 30)
MESSAGE_INTERVAL_S = 20.0
PAYLOAD = 24
DURATION = 4000.0


def run_cell(sf: int, n_contenders: int, seed: int = 7):
    sim = Simulator()
    rng = random.Random(seed)
    # Receiver at the origin, contenders on a ring 80 m away.
    positions = {1: (0.0, 0.0)}
    import math
    for index in range(n_contenders):
        angle = 2 * math.pi * index / n_contenders
        positions[index + 2] = (80.0 * math.cos(angle), 80.0 * math.sin(angle))
    topology = Topology(positions=positions)
    link_model = LinkModel(PathLossParams(shadowing_sigma_db=2.0), random.Random(seed))
    channel = Channel(sim, topology, link_model)
    params = LoRaParams(spreading_factor=sf)

    received = []
    channel.attach(1, received.append, Radio())
    sent = {"count": 0}

    def contender(address):
        def uplink():
            sent["count"] += 1
            channel.transmit(address, params, address, PAYLOAD + 13)
            sim.call_in(rng.expovariate(1.0 / MESSAGE_INTERVAL_S), uplink)
        sim.call_in(rng.uniform(0, MESSAGE_INTERVAL_S), uplink)

    for address in range(2, n_contenders + 2):
        channel.attach(address, lambda reception: None, Radio(initial_state=RadioState.SLEEP))
        contender(address)
    sim.run(until=DURATION)
    return sent["count"], len(received)


def run_sweep():
    rows = []
    for sf in SFS:
        for contenders in CONTENDERS:
            sent, received = run_cell(sf, contenders)
            rows.append({
                "sf": sf,
                "contenders": contenders,
                "sent": sent,
                "received": received,
                "success": received / sent if sent else float("nan"),
            })
    return rows


def build_report(rows):
    report = ExperimentReport(
        experiment_id="F6",
        title="ALOHA frame success rate vs SF and contender count (PHY validation)",
        expectation=(
            "success falls with contender count; higher SF means longer "
            "frames, a larger vulnerable window, and a steeper fall — the "
            "classic LoRaSim scaling result"
        ),
        headers=["sf", "contenders", "sent", "received", "success"],
    )
    for row in rows:
        report.add_row(
            row["sf"], row["contenders"], row["sent"], row["received"],
            f"{row['success']:.1%}",
        )
    return report


def test_f6_collisions_vs_sf(benchmark):
    rows = run_sweep()
    emit(build_report(rows))
    cell = {(row["sf"], row["contenders"]): row["success"] for row in rows}
    # More contenders -> lower success, at every SF.
    for sf in SFS:
        assert cell[(sf, 2)] > cell[(sf, 30)]
    # Higher SF -> lower success under contention (longer frames).
    assert cell[(12, 30)] < cell[(7, 30)]
    # Light contention at SF7 is nearly lossless.
    assert cell[(7, 2)] > 0.95

    # Benchmark unit: one collision-survival evaluation with 8 interferers.
    from repro.api import CollisionModel, FrameOnAir
    model = CollisionModel()
    params = LoRaParams(spreading_factor=9)
    target = FrameOnAir(params=params, rssi_dbm=-100.0, start=0.0, end=0.2)
    interferers = [
        FrameOnAir(params=params, rssi_dbm=-104.0 - index, start=0.05 * index, end=0.05 * index + 0.2)
        for index in range(8)
    ]
    benchmark(lambda: model.survives(target, interferers))


if __name__ == "__main__":
    emit(build_report(run_sweep()))
