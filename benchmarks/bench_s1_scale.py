"""S1 — PHY scale: the spatial-index channel from 25 to 1000 nodes.

The tentpole contract of the reachability refactor, pinned in
``BENCH_scale.json`` at the repo root:

1. **Interactive 1000-node meshes.**  A periodic-traffic mesh driven
   straight through the PHY (``Channel`` + ``GridReachabilityIndex``)
   is timed at 25/100/400/1000 nodes with constant node density;
   events/s per size land in the JSON and the 1000-node run must finish
   in well under five minutes.
2. **The index earns its complexity.**  At 400 nodes the same workload
   is re-run against :class:`BruteForceReachability` — same seed, same
   trace stream — and the grid index must be at least 5x faster.
3. **The oracle agrees.**  At 100 nodes the grid and brute-force trace
   streams are compared event-for-event; they must be identical (the
   exhaustive randomized version of this check is
   ``tests/property/test_phy_equivalence.py``).
4. **Where the time goes.**  One 400-node run is profiled with
   :class:`SpanProfiler`; the top spans are recorded as context.
5. **Fleet scale.**  A 512-network ingest burst into a shared
   :class:`MonitorServer` capped at 64 resident shards exercises lazy
   shard creation plus LRU eviction on the monitoring side of the story.

Node density is held constant as the mesh grows (the deployment area
scales with N), which is what real deployments do and what keeps
per-frame candidate sets O(density) instead of O(N).
"""

import json
import random
import time
from pathlib import Path

from repro.api import (
    BruteForceReachability,
    Channel,
    Direction,
    GridReachabilityIndex,
    LinkModel,
    LoRaParams,
    MonitorServer,
    PacketRecord,
    PathLossParams,
    Placement,
    Radio,
    RecordBatch,
    Simulator,
    SpanProfiler,
    make_topology,
)
from repro.sim.rng import RngRegistry

from benchmarks.common import BenchReport, check_gates

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_scale.json"

NODE_COUNTS = (25, 100, 400, 1000)
#: deployment side for the 25-node mesh; larger meshes scale the area so
#: density (and therefore mean neighbourhood size) stays constant.
AREA_SIDE_25_M = 400.0
#: each node offers one 24-byte frame per interval, phase-randomised.
TX_INTERVAL_S = 60.0
SIM_DURATION_S = 600.0
PAYLOAD_BYTES = 24
#: the headline contracts.
MAX_WALL_1000_S = 300.0
MIN_SPEEDUP_400 = 5.0
#: fleet scenario: 512 tenants through a server that keeps 64 resident.
FLEET_NETWORKS = 512
FLEET_RESIDENT = 64
FLEET_RECORDS_PER_BATCH = 20

PARAMS = LoRaParams(spreading_factor=7)
PATH_LOSS = PathLossParams(fast_fading_sigma_db=1.0)


def area_side_m(n_nodes: int) -> float:
    return AREA_SIDE_25_M * (n_nodes / 25.0) ** 0.5


def drive_mesh(n_nodes, reachability, seed=7, profiler=None):
    """Run the periodic-traffic mesh; returns (channel, events, wall_s)."""
    rng = RngRegistry(seed)
    sim = Simulator(profiler=profiler)
    topology = make_topology(Placement.UNIFORM, n_nodes, area_side_m(n_nodes), rng)
    link = LinkModel(PATH_LOSS, rng.stream("phy"))
    channel = Channel(sim, topology, link, reachability=reachability)
    for node in topology.nodes():
        channel.attach(node, lambda reception: None, Radio())

    phases = rng.stream("traffic")

    def make_sender(node):
        def send():
            channel.transmit(node, PARAMS, payload=None, payload_bytes=PAYLOAD_BYTES)
            sim.call_in(TX_INTERVAL_S, send)

        return send

    for node in topology.nodes():
        sim.call_at(phases.uniform(0.0, TX_INTERVAL_S), make_sender(node))

    started = time.perf_counter()
    events = sim.run(until=SIM_DURATION_S)
    return channel, events, time.perf_counter() - started


def measure_scaling():
    """Grid-index events/s per mesh size."""
    rows = {}
    for n_nodes in NODE_COUNTS:
        channel, events, wall_s = drive_mesh(n_nodes, GridReachabilityIndex())
        stats = channel.reachability.stats()
        rows[str(n_nodes)] = {
            "events": events,
            "wall_s": round(wall_s, 3),
            "events_per_s": round(events / wall_s, 1),
            "trace_events": channel.trace.total_emitted,
            "index_hits": stats["hits"],
            "index_rebuilds": stats["rebuilds"],
            "budget_hit_rate": round(
                channel.budget.hits / max(channel.budget.hits + channel.budget.misses, 1),
                4,
            ),
        }
    return rows


def measure_speedup(n_nodes=400):
    """Same workload, grid vs brute-force index, identical verbosity."""
    _, _, grid_s = drive_mesh(n_nodes, GridReachabilityIndex())
    _, _, brute_s = drive_mesh(n_nodes, BruteForceReachability())
    return {
        "n_nodes": n_nodes,
        "grid_wall_s": round(grid_s, 3),
        "brute_wall_s": round(brute_s, 3),
        "speedup": round(brute_s / grid_s, 2),
        "min_speedup": MIN_SPEEDUP_400,
    }


def traces_identical(n_nodes=100, seed=7):
    """Event-for-event trace equality, grid vs the brute-force oracle."""

    def stream(reachability):
        channel, _, _ = drive_mesh(n_nodes, reachability, seed=seed)
        return [
            (event.time, event.kind, event.node, event.data)
            for event in channel.trace.events()
        ]

    return stream(GridReachabilityIndex()) == stream(BruteForceReachability())


def profile_spans(n_nodes=400, top=5):
    """Top wall-time spans of one profiled grid run, as context."""
    profiler = SpanProfiler(enabled=True)
    drive_mesh(n_nodes, GridReachabilityIndex(), profiler=profiler)
    return [
        {
            "name": stats.name,
            "count": stats.count,
            "wall_s": round(stats.wall_s, 3),
        }
        for stats in profiler.top(top)
    ]


def _fleet_batch(index, rng):
    node = (index % 5) + 1
    records = tuple(
        PacketRecord(
            node=node,
            seq=offset,
            timestamp=offset * 1.0,
            direction=Direction.IN if offset % 2 == 0 else Direction.OUT,
            src=rng.randrange(1, 6),
            dst=1,
            next_hop=rng.randrange(1, 6),
            prev_hop=rng.randrange(1, 6),
            ptype=3,
            packet_id=rng.randrange(0, 1 << 16),
            size_bytes=40,
            rssi_dbm=-105.0,
            snr_db=3.0,
            airtime_s=None,
        )
        for offset in range(FLEET_RECORDS_PER_BATCH)
    )
    return RecordBatch(
        node=node,
        batch_seq=0,
        sent_at=0.0,
        packet_records=records,
        network_id=f"scale-{index:04d}",
    )


def measure_fleet_eviction():
    """512 tenants through a 64-shard server: creation + LRU eviction."""
    rng = random.Random(5)
    raws = [_fleet_batch(index, rng).to_json_bytes() for index in range(FLEET_NETWORKS)]
    server = MonitorServer(max_networks=FLEET_RESIDENT)
    started = time.perf_counter()
    for raw in raws:
        assert server.ingest_json(raw).ok
    elapsed = time.perf_counter() - started
    resident = len(server.networks())
    return {
        "networks": FLEET_NETWORKS,
        "max_resident": FLEET_RESIDENT,
        "resident_after": resident,
        "evictions": FLEET_NETWORKS - resident,
        "records_per_s": round(FLEET_NETWORKS * FLEET_RECORDS_PER_BATCH / elapsed, 1),
    }


def collect():
    return {
        "workload": {
            "tx_interval_s": TX_INTERVAL_S,
            "sim_duration_s": SIM_DURATION_S,
            "payload_bytes": PAYLOAD_BYTES,
            "area_side_25_m": AREA_SIDE_25_M,
        },
        "scaling": measure_scaling(),
        "speedup_vs_brute": measure_speedup(),
        "traces_identical_100": traces_identical(),
        "profile_top_spans": profile_spans(),
        "fleet": measure_fleet_eviction(),
        "max_wall_1000_s": MAX_WALL_1000_S,
    }


def _report(results) -> BenchReport:
    return BenchReport(
        bench="S1",
        title="PHY scale: spatial-index channel from 25 to 1000 nodes",
        results=results,
    )


def check(results) -> None:
    """The S1 gates, run before the artifact is written."""
    check_gates("S1", {
        # The headline contract: a 1000-node mesh is interactive.
        f"1000-node wall_s < {MAX_WALL_1000_S}":
            results["scaling"]["1000"]["wall_s"] < MAX_WALL_1000_S,
        # The index must beat exhaustive evaluation decisively at 400 nodes.
        f"speedup at 400 >= {MIN_SPEEDUP_400}":
            results["speedup_vs_brute"]["speedup"] >= MIN_SPEEDUP_400,
        # Culling must not change physics: grid == brute, event for event.
        "traces_identical_100": bool(results["traces_identical_100"]),
        # The fleet server held its LRU bound while serving every tenant.
        f"resident_after == {FLEET_RESIDENT}":
            results["fleet"]["resident_after"] == FLEET_RESIDENT,
    })


def test_s1_scale(benchmark):
    results = collect()
    check(results)
    _report(results).write(OUTPUT_PATH)

    # Benchmark unit: one 100-node mesh run on the grid index.
    benchmark(lambda: drive_mesh(100, GridReachabilityIndex()))


if __name__ == "__main__":
    results = collect()
    check(results)
    payload = _report(results).write(OUTPUT_PATH)
    print(json.dumps(payload, indent=2, sort_keys=True))
