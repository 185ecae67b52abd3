"""T3 — In-band vs out-of-band telemetry uplink.

Same mesh, same workload, two shipping paths.  Measures telemetry
delivery ratio, extra LoRa airtime caused by telemetry frames, and
records reaching the server — the ablation behind the paper's design
choice to ship telemetry over WiFi instead of over the mesh.
"""

from repro.analysis.report import ExperimentReport
from repro.api import MonitorMode, PacketType

from benchmarks.common import cached_scenario, emit, small_monitored_config


def run_modes():
    rows = []
    for mode in (
        MonitorMode.OUT_OF_BAND,
        MonitorMode.IN_BAND,
        MonitorMode.IN_BAND_RELIABLE,
        MonitorMode.NONE,
    ):
        config = small_monitored_config(
            monitor_mode=mode, report_interval_s=120.0,
        )
        result = cached_scenario(config)
        mesh_airtime = result.total_mesh_airtime_s()
        rows.append({
            "mode": mode.value,
            "result": result,
            "mesh_airtime_s": mesh_airtime,
            "delivery": result.telemetry_delivery_ratio() if mode is not MonitorMode.NONE else float("nan"),
            "records": result.telemetry_records_stored(),
            "data_pdr": result.truth.msg_pdr,
        })
    return rows


def build_report(rows):
    baseline_airtime = next(r["mesh_airtime_s"] for r in rows if r["mode"] == "none")
    report = ExperimentReport(
        experiment_id="T3",
        title="telemetry uplink modes: out-of-band vs in-band vs none",
        expectation=(
            "out-of-band: lossless telemetry, zero extra LoRa airtime; "
            "in-band: telemetry costs mesh airtime and is lossy "
            "(at-most-once over LoRa, sampled records); in-band-reliable: "
            "end-to-end acks recover the losses for yet more airtime; "
            "data PDR should stay comparable"
        ),
        headers=["mode", "telemetry_delivery", "records_stored", "mesh_airtime_s", "extra_airtime_vs_none"],
    )
    for row in rows:
        delivery = row["delivery"]
        extra = row["mesh_airtime_s"] - baseline_airtime
        report.add_row(
            row["mode"],
            "-" if delivery != delivery else f"{delivery:.1%}",
            row["records"],
            f"{row['mesh_airtime_s']:.1f}",
            f"{extra:+.1f}s ({extra / baseline_airtime:+.0%})",
        )
    report.add_note(
        "in-band clients sample packet records (10%) and halve status "
        "cadence to fit the EU868 duty budget; see DESIGN.md ablation 1"
    )
    return report


def test_t3_uplink_modes(benchmark):
    rows = run_modes()
    emit(build_report(rows))
    by_mode = {row["mode"]: row for row in rows}
    # Out-of-band telemetry is lossless and costs no LoRa airtime beyond noise.
    assert by_mode["oob"]["delivery"] > 0.99
    assert by_mode["oob"]["mesh_airtime_s"] == (
        by_mode["none"]["mesh_airtime_s"]
    ) or abs(
        by_mode["oob"]["mesh_airtime_s"] - by_mode["none"]["mesh_airtime_s"]
    ) < by_mode["none"]["mesh_airtime_s"] * 0.05
    # In-band telemetry costs extra airtime and loses batches.
    assert by_mode["inband"]["mesh_airtime_s"] > by_mode["none"]["mesh_airtime_s"] * 1.05
    assert by_mode["inband"]["delivery"] < 1.0
    assert by_mode["inband"]["records"] > 0
    # End-to-end reliability recovers the losses at extra airtime cost.
    assert by_mode["inband_reliable"]["delivery"] > by_mode["inband"]["delivery"]
    assert by_mode["inband_reliable"]["delivery"] > 0.95
    assert (
        by_mode["inband_reliable"]["mesh_airtime_s"]
        > by_mode["none"]["mesh_airtime_s"] * 1.05
    )

    # Benchmark: one binary batch decode (gateway-side hot path).
    from repro.api import BinaryCodec
    from benchmarks.bench_t1_record_sizes import typical_batch
    codec = BinaryCodec()
    raw = codec.encode(typical_batch())
    benchmark(lambda: codec.decode(raw))


if __name__ == "__main__":
    emit(build_report(run_modes()))
