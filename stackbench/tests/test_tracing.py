import pytest

from stackbench import fleetgen, workloads
from stackbench.tracing import CALLBACK_LAYERS, LAYERS, UNATTRIBUTED, WRAPS

from repro.api import MonitorServer, Scenario
from repro.monitor import metrics


def small_config(workload, seed=3):
    return workloads.scenario_config(workload, seed).with_overrides(
        n_nodes=16, warmup_s=300.0, duration_s=300.0, cooldown_s=60.0
    )


@pytest.fixture(scope="module", params=["stack_oob", "mesh_mobile"])
def traced_pair(request):
    config = small_config(request.param)
    base = workloads.mesh_rep(request.param, 3, config=config)
    traced = workloads.mesh_rep(request.param, 3, trace=True, config=config)
    return request.param, base, traced


def test_table_covers_every_callback_of_a_short_run(traced_pair):
    _, _, traced = traced_pair
    assert traced.profiler is not None
    assert traced.profiler.seen, "the engine profiler saw no events"
    assert traced.profiler.unmapped == []
    assert set(CALLBACK_LAYERS.values()) <= set(LAYERS)


def test_every_wrapper_target_exists(traced_pair):
    _, _, traced = traced_pair
    assert traced.missing == []
    assert {layer for _, _, layer, _ in WRAPS} <= set(LAYERS)


def test_self_times_add_up_to_the_traced_host_time(traced_pair):
    _, _, traced = traced_pair
    tracer = traced.tracer
    layers = sum(tracer.layer_self_s(layer) for layer in LAYERS)
    unattributed = tracer.layer_self_s(UNATTRIBUTED)
    assert layers + unattributed == pytest.approx(tracer.total_s(), rel=1e-9)
    assert tracer.total_s() == pytest.approx(traced.job_wall_s, rel=0.05)
    assert unattributed < 0.10 * tracer.total_s()


def test_tracing_does_not_change_the_simulation(traced_pair):
    _, base, traced = traced_pair
    assert traced.events == base.events
    assert traced.digest == base.digest


def test_monitor_layers_are_idle_without_monitoring(traced_pair):
    workload, _, traced = traced_pair
    tracer = traced.tracer
    for layer in ("client", "codec", "uplink", "server", "store", "fleet", "dashboard"):
        busy = tracer.layer_self_s(layer)
        if workload == "mesh_mobile":
            assert busy == 0.0, layer
        else:
            assert busy > 0.0, layer
    if workload == "mesh_mobile":
        assert tracer.label_calls("sim", "mobility") > 0


def test_wrappers_are_removed_after_the_traced_run(traced_pair):
    assert not hasattr(MonitorServer.ingest_json, "__wrapped__")
    assert not hasattr(Scenario.run, "__wrapped__")
    assert not hasattr(metrics.pdr_matrix, "__wrapped__")


@pytest.mark.parametrize("workload", ["stack_oob", "mesh_mobile"])
def test_slicing_the_engine_run_does_not_change_the_simulation(workload):
    config = small_config(workload, seed=5)
    sliced = workloads.mesh_rep(workload, 5, config=config)
    whole = workloads.mesh_rep(workload, 5, config=config, chunk_sim_s=None)
    assert sliced.digest == whole.digest
    assert len(sliced.segments) > len(whole.segments)
    assert all(segment >= 0.0 for segment in sliced.segments)


def test_traced_fleet_pass_sees_every_page_view():
    inputs = fleetgen.generate(11, 2)
    run = workloads.fleet_pass(inputs, trace=True, views_per_interval=3)
    assert run.tracer.label_calls("fleet", "overview") == len(run.read_latencies) == 6
    assert run.tracer.label_calls("dashboard", "render") == 6
