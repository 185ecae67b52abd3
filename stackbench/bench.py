"""Plain and traced runs of one workload, and what they report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from stackbench import checks, workloads
from stackbench.catalog import END_TO_END, PER_LAYER
from stackbench.stats import median, percentile, sum_of_fastest, tail_percentile
from stackbench.tracing import LAYERS, UNATTRIBUTED, EngineProfiler, Tracer, callback_table

#: Upper bound on timed repetitions, whatever ``--seconds`` allows.
MAX_REPS = 25
#: Scenario constructions timed per repetition for ``setup_s``.
SETUP_PER_REP = 3


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    lines: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def result_document(self, units: Dict[str, Tuple[str, str]]) -> Dict[str, object]:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name][0]} for name in units
            },
        }


def _ms(seconds: Sequence[float]) -> List[float]:
    return [value * 1000.0 for value in seconds]


def _repeat(job, seconds: float, minimum: int, round_size: int = 1) -> List:
    """Run ``job(index)`` at least ``minimum`` times, then more while the
    time lasts, always in whole rounds of ``round_size`` calls."""
    reps: List = []
    started = workloads._wall()
    while len(reps) < minimum or (
        workloads._wall() - started < seconds and len(reps) + round_size <= MAX_REPS
    ):
        for _ in range(round_size):
            reps.append(job(len(reps)))
    return reps


# -- plain runs ------------------------------------------------------------------


def plain(workload: str, seed: int, seconds: float) -> Outcome:
    if workload == "fleet_ingest":
        return _plain_fleet(seed, seconds)
    return _plain_mesh(workload, seed, seconds)


def _plain_mesh(workload: str, seed: int, seconds: float) -> Outcome:
    seeds = workloads.scenario_seeds(seed)
    setup: List[float] = []

    def job(index: int) -> workloads.MeshRep:
        scenario_seed = seeds[index % len(seeds)]
        # Extra constructions spread over the run, so a burst of host
        # interference cannot hit every set-up sample at once.
        setup.extend(workloads.time_scenario_setup(workload, scenario_seed, SETUP_PER_REP - 1))
        # The first repetition of every scenario is checked; the later ones
        # must match it by digest.
        rep = workloads.mesh_rep(workload, scenario_seed, check=index < len(seeds))
        setup.append(rep.setup_cpu_s)
        return rep

    reps = _repeat(job, seconds, minimum=2 * len(seeds), round_size=len(seeds))
    by_seed = [reps[index::len(seeds)] for index in range(len(seeds))]
    failures = [failure for rep in reps[: len(seeds)] for failure in rep.failures]
    for scenario_seed, group in zip(seeds, by_seed):
        failures += checks.same_digests(
            f"{workload} scenario {scenario_seed}", [rep.digest for rep in group]
        )
    first = reps[0]
    outcome = Outcome(
        attempted=sum(rep.batches for rep in reps) if first.batches else len(reps),
        failed=sum(rep.refused for rep in reps),
        metrics={
            "setup_s": median(setup),
            "run_s": sum(sum_of_fastest([rep.segments for rep in group]) for group in by_seed)
            / len(by_seed),
            "peak_mem_mb": workloads.peak_mem_mb(),
        },
        failures=failures,
    )
    lines = outcome.lines
    lines.append(f"workload {workload}  seed {seed}  scenarios {seeds}  repetitions {len(reps)}")
    lines.append(f"  setup_s       {outcome.metrics['setup_s']:.6f} s   median of {len(setup)} "
                 f"Scenario constructions (CPU s at the reference speed)")
    lines.append(f"  run_s         {outcome.metrics['run_s']:.4f} s   job CPU time at the reference "
                 f"speed: fastest repetition of each of its ~{len(first.segments)} segments, "
                 f"mean over {len(seeds)} scenarios")
    lines.append(f"    raw CPU of the median repetition: job {median([r.job_cpu_s for r in reps]):.4f} s"
                 f" = Scenario.run() {median([r.run_cpu_s for r in reps]):.4f} s"
                 f" + dashboard {median([r.dashboard_cpu_s for r in reps]):.4f} s")
    for scenario_seed, group in zip(seeds, by_seed):
        lines.append(f"    scenario {scenario_seed}: digest {group[0].digest}, "
                     f"{group[0].events} engine events, truth PDR {group[0].summary['truth_pdr']:.4f}")
    if first.batches:
        latencies = _ms([value for rep in reps for value in rep.latencies])
        lines.append(f"  dashboard_s   {median([r.dashboard_cpu_s for r in by_seed[0]]):.4f} s   "
                     f"render_text + to_json_dict, scenario {seeds[0]} (raw CPU)")
        lines.append(f"  pdr_abs_err   {first.summary['pdr_abs_err']:.6f} ratio   dashboard "
                     f"{first.summary['observed_pdr']:.4f} vs ground truth "
                     f"{first.summary['truth_pdr']:.4f} (traffic window, scenario {seeds[0]})")
        lines.append(f"  ingest_p50_ms {percentile(latencies, 50):.4f} ms   ingest_p99_ms "
                     f"{percentile(latencies, 99):.4f} ms   over {len(latencies)} server calls")
        lines.append(f"  ingest_rec_per_s {first.summary['records_accepted'] / sum(first.latencies):.0f}"
                     f" rec/s   ({first.summary['duplicates']:.0f} duplicates absorbed, "
                     f"{first.summary['batches_lost']:.0f} batches lost on the uplink)")
        lines.append(f"  health gap    {first.summary['health_gap']:.4f} points between the tile "
                     f"and health.py (bound {checks.MESH_HEALTH_TOLERANCE})")
        lines.append(f"  operations    {outcome.attempted} telemetry batches, {outcome.failed} refused by "
                     f"the server; not failures: {sum(r.summary['batches_unacked'] for r in reps):.0f} "
                     f"never acknowledged, {sum(r.summary['batches_lost'] for r in reps):.0f} of them "
                     f"lost on the uplink (injected; their records are retried)")
    else:
        lines.append(f"  operations    {outcome.attempted} scenario runs")
    lines.append(f"  peak_mem_mb   {outcome.metrics['peak_mem_mb']:.1f} MB")
    return outcome


def _plain_fleet(seed: int, seconds: float) -> Outcome:
    setup: List[float] = []
    fingerprints: List[str] = []

    def job(index: int) -> workloads.FleetPass:
        inputs, elapsed = workloads.fleet_inputs(seed)
        setup.append(elapsed)
        fingerprints.append(str(inputs.fingerprint()))
        return workloads.fleet_pass(inputs, check=index == 0)

    passes = _repeat(job, seconds, minimum=workloads.MIN_REPS)
    failures = (
        checks.same_digests("fleet generator", fingerprints)
        + passes[0].failures
        + checks.same_digests("fleet_ingest", [one.digest for one in passes])
    )
    first = passes[0]
    outcome = Outcome(
        attempted=sum(len(one.ingest_latencies) for one in passes),
        failed=sum(one.refused for one in passes),
        metrics={
            "setup_s": median(setup),
            "run_s": sum_of_fastest([one.segments for one in passes]),
            "peak_mem_mb": workloads.peak_mem_mb(),
        },
        failures=failures,
    )
    ingest = _ms([value for one in passes for value in one.ingest_latencies])
    reads = _ms([value for one in passes for value in one.read_latencies])
    # Every pass makes the same number of views, so the tail is taken per
    # pass at one fixed percentile, whatever the time budget.
    tails = [tail_percentile(_ms(one.read_latencies)) for one in passes]
    tail_q, tail = tails[0][0], median([value for _, value in tails])
    lines = outcome.lines
    lines.append(f"workload fleet_ingest  seed {seed}  passes {len(passes)}  digest {first.digest}")
    lines.append(f"  setup_s       {outcome.metrics['setup_s']:.6f} s   median of {len(setup)} "
                 f"input generations + server creation (CPU s at the reference speed)")
    lines.append(f"  run_s         {outcome.metrics['run_s']:.4f} s   pass CPU time at the reference "
                 f"speed: fastest repetition of each of its {len(first.segments)} segments "
                 f"({len(first.ingest_latencies)} calls, {len(first.read_latencies)} page views)")
    lines.append(f"    raw CPU of the median pass {median([one.cpu_s for one in passes]):.4f} s")
    lines.append(f"  ingest_rec_per_s {first.records / sum(first.ingest_latencies):.0f} rec/s")
    lines.append(f"  ingest_p50_ms {percentile(ingest, 50):.4f} ms   ingest_p99_ms "
                 f"{percentile(ingest, 99):.4f} ms   over {len(ingest)} server calls")
    lines.append(f"  read_p50_ms   {percentile(reads, 50):.4f} ms   over {len(reads)} page views")
    lines.append(f"  read_tail_ms  {tail:.4f} ms   median over passes of each pass's "
                 f"p{tail_q:.1f} of its {len(first.read_latencies)} page views")
    lines.append(f"  operations    {outcome.attempted} server calls, {outcome.failed} refused")
    lines.append(f"  peak_mem_mb   {outcome.metrics['peak_mem_mb']:.1f} MB")
    return outcome


# -- traced runs -----------------------------------------------------------------


def traced(workload: str, seed: int) -> Outcome:
    if workload == "fleet_ingest":
        return _traced_fleet(seed)
    return _traced_mesh(workload, seed)


def _layer_metrics(tracer: Tracer, base_wall_s: float) -> Dict[str, float]:
    values = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    values["unattributed.self_s"] = tracer.layer_self_s(UNATTRIBUTED)
    host = tracer.total_s()
    values["trace.host_s"] = host
    values["trace.base_s"] = base_wall_s
    values["trace_overhead"] = host / base_wall_s if base_wall_s else 0.0
    values["sim.trace_emits"] = float(tracer.label_calls("sim", "trace"))
    values["sim.trace_s"] = tracer.label_self_s("sim", "trace")
    values["sim.mobility_s"] = tracer.label_self_s("sim", "mobility")
    values["phy.frames"] = float(tracer.label_calls("phy", "transmit"))
    values["phy.duty_checks"] = float(tracer.label_calls("phy", "duty"))
    values["phy.duty_s"] = tracer.label_self_s("phy", "duty")
    values["routing.broadcasts"] = float(tracer.label_calls("routing", "route_broadcast"))
    values["client.flushes"] = float(tracer.label_calls("client", "flush"))
    values["codec.encode_s"] = tracer.label_self_s("codec", "encode")
    values["codec.decode_s"] = tracer.label_self_s("codec", "decode")
    values["server.ingest_self_s"] = sum(
        tracer.label_self_s("server", label) for label in ("ingest", "submit", "process")
    )
    values["server.ingest_calls"] = float(tracer.label_calls("server", "ingest"))
    values["store.write_s"] = tracer.label_self_s("store", "write")
    values["store.scan_calls"] = float(tracer.label_calls("store", "scan"))
    values["store.read_s"] = tracer.label_self_s("store", "scan") + tracer.label_self_s("store", "read")
    values["fleet.tile_calls"] = float(tracer.label_calls("fleet", "tile"))
    values["fleet.tile_s"] = tracer.label_self_s("fleet", "tile")
    values["fleet.overview_s"] = tracer.label_incl_s("fleet", "overview")
    values["stream.publishes"] = float(tracer.label_calls("stream", "publish"))
    values["stream.publish_s"] = tracer.label_self_s("stream", "publish")
    values["alerts.observe_s"] = tracer.label_self_s("alerts", "observe")
    values["alerts.sweep_s"] = tracer.label_self_s("alerts", "sweep")
    return values


def _layer_lines(values: Dict[str, float], profiler: Optional[EngineProfiler]) -> List[str]:
    host = values["trace.host_s"]
    lines = ["  per-layer self time (traced run)"]
    for layer in LAYERS + (UNATTRIBUTED,):
        seconds = values[f"{layer}.self_s"]
        lines.append(f"    {layer:13s} {seconds:9.4f} s  {100.0 * seconds / host if host else 0.0:5.1f} %")
    lines.append(f"    {'total':13s} {host:9.4f} s  = traced host time")
    lines.append(f"  unattributed.self_s {values['unattributed.self_s']:.4f} s "
                 f"({100.0 * values['unattributed.self_s'] / host if host else 0.0:.2f} % of traced host time)")
    lines.append(f"  trace_overhead {values['trace_overhead']:.3f} = traced {host:.3f} s / "
                 f"untraced {values['trace.base_s']:.3f} s (wall)")
    table = callback_table(profiler)
    if table:
        lines.append("  engine callbacks -> layers")
        for name, layer, count in table:
            lines.append(f"    {count:9d}  {layer:12s} {name}")
    lines.append("  per-layer metrics")
    for name, (unit, _) in PER_LAYER.items():
        lines.append(f"    {name:26s} {values[name]:.6g} {unit}")
    return lines


def _traced_mesh(workload: str, seed: int) -> Outcome:
    oob = workload == "stack_oob"
    scenario_seed = workloads.scenario_seeds(seed)[0]
    base = workloads.mesh_rep(workload, scenario_seed, keep_wire=oob, check=True, probing=False)
    rep = workloads.mesh_rep(workload, scenario_seed, trace=True, keep_wire=oob)
    assert rep.tracer is not None
    failures = base.failures + checks.same_digests(
        f"{workload} traced vs untraced", [base.digest, rep.digest]
    )
    values = _layer_metrics(rep.tracer, base.job_wall_s)
    values.update(rep.layer)
    values["sim.events"] = float(rep.events)
    values["sim.us_per_event"] = 1e6 * base.run_cpu_s / base.events if base.events else 0.0
    if oob:
        values["codec.encodes_per_batch"] = (
            rep.tracer.label_calls("codec", "encode") / rep.batches if rep.batches else 0.0
        )
        values["dashboard.render_s"] = base.dashboard_cpu_s
        values["dashboard.pdr_abs_err"] = base.summary["pdr_abs_err"]
        latencies = _ms(base.latencies)
        values["server.ingest_p50_ms"] = percentile(latencies, 50)
        values["server.ingest_p99_ms"] = percentile(latencies, 99)
        values["server.ingest_rec_per_s"] = base.summary["records_accepted"] / sum(base.latencies)
        values["client.freshness_p50_s"] = median(base.freshness)
        traced_freshness = median(rep.freshness)
        if traced_freshness != values["client.freshness_p50_s"]:
            failures.append(
                f"freshness differs: untraced {values['client.freshness_p50_s']} "
                f"vs traced {traced_freshness}"
            )
    outcome = Outcome(
        attempted=rep.batches if oob else 1,
        failed=rep.refused,
        metrics=values,
        failures=failures,
    )
    outcome.lines.append(f"workload {workload}  seed {seed}  scenario {scenario_seed}  traced  "
                         f"digest {rep.digest} (untraced {base.digest})")
    outcome.lines += _layer_lines(values, rep.profiler)
    return outcome


def _traced_fleet(seed: int) -> Outcome:
    inputs, _ = workloads.fleet_inputs(seed)
    base = workloads.fleet_pass(inputs, check=True, probing=False)
    run = workloads.fleet_pass(inputs, trace=True)
    assert run.tracer is not None
    failures = base.failures + checks.same_digests(
        "fleet_ingest traced vs untraced", [base.digest, run.digest]
    )
    values = _layer_metrics(run.tracer, base.wall_s)
    values.update(run.layer)
    ingest = _ms(base.ingest_latencies)
    reads = _ms(base.read_latencies)
    values["server.ingest_p50_ms"] = percentile(ingest, 50)
    values["server.ingest_p99_ms"] = percentile(ingest, 99)
    values["server.ingest_rec_per_s"] = base.records / sum(base.ingest_latencies)
    values["dashboard.read_p50_ms"] = percentile(reads, 50)
    values["dashboard.read_tail_ms"] = tail_percentile(reads)[1]
    outcome = Outcome(
        attempted=inputs.sends,
        failed=run.refused,
        metrics=values,
        failures=failures,
    )
    outcome.lines.append(f"workload fleet_ingest  seed {seed}  traced  digest {run.digest} "
                         f"(untraced {base.digest})")
    outcome.lines += _layer_lines(values, None)
    return outcome


def run(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[Outcome, Dict[str, Tuple[str, str]]]:
    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
    if trace:
        return traced(workload, seed), PER_LAYER
    return plain(workload, seed, seconds), END_TO_END
