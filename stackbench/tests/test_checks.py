import math

from stackbench import checks, fleetgen, workloads


def clean_exactly_once(**overrides):
    arguments = dict(
        stored_seqs={1: [0, 1, 2, 3], 2: [0, 1]},
        acked_below={1: 3, 2: 2},
        captured={1: 5, 2: 2},
        accepted_packets=6,
        duplicates_server=4,
        duplicates_calls=4,
    )
    arguments.update(overrides)
    return checks.exactly_once(**arguments)


def test_exactly_once_passes_a_clean_ledger():
    assert clean_exactly_once() == []


def test_exactly_once_fires_on_a_dropped_batch():
    failures = clean_exactly_once(stored_seqs={1: [0, 3], 2: [0, 1]}, accepted_packets=4)
    assert any("acknowledged records missing" in failure for failure in failures)


def test_exactly_once_fires_on_a_record_stored_twice():
    failures = clean_exactly_once(stored_seqs={1: [0, 1, 2, 2], 2: [0, 1]})
    assert any("stored twice" in failure for failure in failures)


def test_exactly_once_fires_on_a_record_never_captured():
    failures = clean_exactly_once(stored_seqs={1: [0, 1, 2, 9], 2: [0, 1]})
    assert any("never captured" in failure for failure in failures)


def test_exactly_once_fires_when_accounting_disagrees():
    assert clean_exactly_once(accepted_packets=7)
    assert clean_exactly_once(duplicates_calls=3)
    assert clean_exactly_once(expected_duplicates=5)
    assert clean_exactly_once(expected_duplicates=4) == []


def test_tile_pdr_check():
    assert checks.tile_pdr_matches_store("n", 0.5, 0.50004) == []
    assert checks.tile_pdr_matches_store("n", None, math.nan) == []
    assert checks.tile_pdr_matches_store("n", 0.5, 0.51)
    assert checks.tile_pdr_matches_store("n", None, 0.5)
    assert checks.tile_pdr_matches_store("n", 0.5, math.nan)


def test_health_check():
    assert checks.health_definitions_agree("n", 70.0, 70.04) == []
    assert checks.health_definitions_agree("n", 70.0, 70.2)
    assert checks.health_definitions_agree("n", 70.0, 70.2, tolerance=1.0) == []
    assert checks.health_definitions_agree("n", None, 70.0)
    assert checks.health_definitions_agree("n", None, math.nan) == []


def test_pdr_accuracy_and_digest_checks():
    assert checks.pdr_accuracy(0.50, 0.52) == []
    assert checks.pdr_accuracy(0.50, 0.60)
    assert checks.pdr_accuracy(math.nan, 0.60)
    assert checks.same_digests("x", ["a", "a", "a"]) == []
    assert checks.same_digests("x", ["a", "b"])
    assert checks.exercised("x", {"dedup hits": 3}) == []
    assert checks.exercised("x", {"dedup hits": 0})
    assert checks.digest({"b": 1, "a": [1.5, None]}) == checks.digest({"a": [1.5, None], "b": 1})
    assert checks.digest({"a": 1}) != checks.digest({"a": 2})


def test_fleet_pass_is_clean_on_generated_input():
    inputs = fleetgen.generate(11, 2)
    run = workloads.fleet_pass(inputs, check=True, views_per_interval=3)
    assert run.failures == []
    assert len(run.read_latencies) == 2 * 3
    assert len(run.segments) == len(run.read_latencies)


def test_fleet_pass_catches_a_dropped_batch():
    inputs = fleetgen.generate(11, 2)
    first, *rest = inputs.intervals
    dropped = next(index for index, send in enumerate(first) if not send.resend)
    broken = fleetgen.FleetInputs(
        intervals=(first[:dropped] + first[dropped + 1:], *rest),
        networks=inputs.networks,
    )
    failures = workloads.fleet_pass(broken, check=True, views_per_interval=3).failures
    assert any("acknowledged records missing" in failure for failure in failures)


def test_fleet_pass_catches_an_unexpected_resend():
    inputs = fleetgen.generate(11, 2)
    first, *rest = inputs.intervals
    extra = next(send for send in first if send.resend)
    broken = fleetgen.FleetInputs(intervals=(first + (extra,), *rest), networks=inputs.networks)
    failures = workloads.fleet_pass(broken, check=True, views_per_interval=3).failures
    assert any("dedup absorbed" in failure for failure in failures)
