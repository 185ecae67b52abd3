from stackbench import bench
from stackbench.catalog import END_TO_END


def test_result_line_has_exactly_the_documented_keys():
    outcome = bench.Outcome(attempted=3, failed=0, metrics={name: 1.0 for name in END_TO_END})
    document = outcome.result_document(END_TO_END)
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True
    assert set(document["metrics"]) == set(END_TO_END)
    assert all(set(entry) == {"value", "unit"} for entry in document["metrics"].values())
    outcome.failures.append("broken")
    assert outcome.result_document(END_TO_END)["correct"] is False
