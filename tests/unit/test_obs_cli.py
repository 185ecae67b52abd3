"""Unit tests for the ``repro trace`` CLI.

One small traced scenario is exported once per module (captures on disk),
then every offline subcommand is exercised against those files — the same
shape as the CI observability smoke job, minus the shell.
"""

import json

import pytest

from repro.obs.cli import main

SCENARIO_ARGS = [
    "--seed", "3",
    "--nodes", "9",
    "--warmup", "120",
    "--duration", "240",
    "--traffic-interval", "60",
]


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    """Exported trace + spans NDJSON from one tiny traced scenario."""
    out = tmp_path_factory.mktemp("captures")
    trace_path = out / "trace.ndjson"
    spans_path = out / "spans.ndjson"
    code = main(
        ["export", *SCENARIO_ARGS, "--out", str(trace_path), "--spans-out", str(spans_path)]
    )
    assert code == 0
    return trace_path, spans_path


class TestExport:
    def test_files_written(self, captures):
        trace_path, spans_path = captures
        assert trace_path.stat().st_size > 0
        assert spans_path.stat().st_size > 0
        header = json.loads(trace_path.read_text().splitlines()[0])
        assert header["schema"] == "repro.obs.trace/1"
        assert header["meta"]["n_nodes"] == 9


class TestWhy:
    def test_why_all_text(self, captures, capsys):
        trace_path, _ = captures
        assert main(["why", "all", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "message " in out
        assert "origin" in out

    def test_why_all_json_has_verdict_per_message(self, captures, capsys):
        trace_path, _ = captures
        assert main(["why", "all", "--json", "--trace", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload, "scenario produced no messages"
        for entry in payload:
            assert entry["verdict"]
            assert entry["timeline"]

    def test_why_specific_message(self, captures, capsys):
        trace_path, _ = captures
        assert main(["why", "all", "--json", "--trace", str(trace_path)]) == 0
        trace_id = json.loads(capsys.readouterr().out)[0]["trace_id"]
        assert main(["why", trace_id, "--trace", str(trace_path)]) == 0
        assert trace_id in capsys.readouterr().out

    def test_why_unknown_id_fails(self, captures, capsys):
        trace_path, _ = captures
        assert main(["why", "999:999", "--trace", str(trace_path)]) == 1
        assert "no message matches" in capsys.readouterr().err

    def test_why_empty_selector_is_ok(self, tmp_path, capsys):
        # A capture with no messages at all: 'undelivered' answers cleanly.
        empty = tmp_path / "empty.ndjson"
        empty.write_text('{"schema": "repro.obs.trace/1", "meta": {}, "events": 0}\n')
        assert main(["why", "undelivered", "--trace", str(empty)]) == 0
        assert "(no undelivered messages)" in capsys.readouterr().out


class TestDrops:
    @pytest.mark.parametrize("by", ["reason", "link", "node"])
    def test_groupings_json(self, captures, capsys, by):
        trace_path, _ = captures
        assert main(["drops", "--by", by, "--json", "--trace", str(trace_path)]) == 0
        tables = json.loads(capsys.readouterr().out)
        assert set(tables) == {"verdicts", by}
        assert tables["verdicts"].get("delivered", 0) > 0

    def test_text_table(self, captures, capsys):
        trace_path, _ = captures
        assert main(["drops", "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "message verdicts" in out
        assert "raw drop events by reason" in out


class TestSpans:
    def test_offline_spans_json(self, captures, capsys):
        _, spans_path = captures
        assert main(["spans", "--spans-file", str(spans_path), "--json", "--top", "5"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert 0 < len(rows) <= 5
        names = [row["name"] for row in rows]
        assert any(name.startswith("scenario.") for name in names)
        # Ranked by total wall time, descending.
        walls = [row["wall_s"] for row in rows]
        assert walls == sorted(walls, reverse=True)

    def test_offline_spans_text(self, captures, capsys):
        _, spans_path = captures
        assert main(["spans", "--spans-file", str(spans_path)]) == 0
        assert "wall_s" in capsys.readouterr().out


class TestValidate:
    def test_validate_trace_auto(self, captures, capsys):
        trace_path, _ = captures
        assert main(["validate", str(trace_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro.obs.trace/1"
        assert summary["events"] > 0

    def test_validate_spans_auto(self, captures, capsys):
        _, spans_path = captures
        assert main(["validate", str(spans_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro.obs.span/1"

    def test_validate_garbage_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("not json at all\n")
        assert main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_kind_mismatch_fails(self, captures, capsys):
        trace_path, _ = captures
        assert main(["validate", str(trace_path), "--kind", "spans"]) == 1
        assert "INVALID" in capsys.readouterr().err
