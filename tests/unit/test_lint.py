"""Unit tests for reprolint (rules RL001-RL006, suppressions, scoping, CLI).

Each rule gets at least one violating and one passing inline fixture,
written into a synthetic ``repro``-shaped package tree under ``tmp_path``
so path-based scoping behaves exactly as it does on the real tree.
"""

import textwrap
from pathlib import Path

import pytest

from repro.errors import LintConfigError
from repro.lint.cli import EXIT_CLEAN, EXIT_USAGE, EXIT_VIOLATIONS, main
from repro.lint.context import module_name_for
from repro.lint.engine import lint_file, run_lint
from repro.lint.registry import default_registry

REPO_ROOT = Path(__file__).resolve().parents[2]


def write_module(tmp_path, relpath, source):
    """Write ``source`` at ``relpath``, creating the __init__.py chain."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    directory = path.parent
    while directory != tmp_path:
        (directory / "__init__.py").touch()
        directory = directory.parent
    path.write_text(textwrap.dedent(source))
    return path


def lint_source(tmp_path, relpath, source, **kwargs):
    return lint_file(write_module(tmp_path, relpath, source), **kwargs)


def rule_ids(violations):
    return [violation.rule_id for violation in violations]


class TestModuleResolution:
    def test_package_module(self, tmp_path):
        path = write_module(tmp_path, "repro/sim/clock.py", "x = 1\n")
        assert module_name_for(path) == "repro.sim.clock"

    def test_loose_script(self, tmp_path):
        path = tmp_path / "script.py"
        path.write_text("x = 1\n")
        assert module_name_for(path) is None

    def test_package_init(self, tmp_path):
        write_module(tmp_path, "repro/phy/x.py", "x = 1\n")
        assert module_name_for(tmp_path / "repro" / "__init__.py") == "repro"


class TestRL001WallClock:
    def test_wallclock_in_sim_scope_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/sim/clock.py",
            """
            import time
            started = time.time()
            time.sleep(1.0)
            """,
        )
        assert rule_ids(violations) == ["RL001", "RL001"]

    def test_wallclock_import_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/mesh/timers.py",
            "from time import perf_counter\n",
        )
        assert rule_ids(violations) == ["RL001"]

    def test_monitor_scope_exempt(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/latency.py",
            """
            import time
            started = time.perf_counter()
            """,
        )
        assert violations == []

    def test_sim_time_idiom_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/sim/sched.py",
            """
            def fire(sim):
                return sim.now + 1.0
            """,
        )
        assert violations == []

    def test_campaign_worker_sim_scoped(self, tmp_path):
        # The campaign worker executes scenarios: wall-clock there would
        # couple cached results to the host, so RL001 applies.
        violations = lint_source(
            tmp_path,
            "repro/campaign/worker.py",
            """
            import time
            started = time.monotonic()
            """,
        )
        assert rule_ids(violations) == ["RL001"]

    def test_campaign_scheduler_and_progress_exempt(self, tmp_path):
        # Scheduler/progress are operator-side plumbing: ETA lines read
        # the host clock by design and never feed back into results.
        for module in ("scheduler", "progress"):
            violations = lint_source(
                tmp_path,
                f"repro/campaign/{module}.py",
                """
                import time
                started = time.monotonic()
                """,
            )
            assert violations == [], module

    def test_obs_recorder_and_spans_sim_scoped(self, tmp_path):
        # The recorder/span core sit on the simulation side of the obs
        # package: stray wall-clock there could leak into verdicts or
        # sim-time bookkeeping, so RL001 applies per-module.
        for module in ("recorder", "spans"):
            violations = lint_source(
                tmp_path,
                f"repro/obs/{module}.py",
                """
                import time
                started = time.monotonic()
                """,
            )
            assert rule_ids(violations) == ["RL001"], module

    def test_phy_hot_path_modules_sim_scoped(self, tmp_path):
        # The spatial-index hot path (reachability, channel) is pure
        # simulation: wall-clock or shared-RNG drift there would break
        # the grid-equals-brute-force trace-identity contract, so both
        # RL001 and RL003 apply.
        for module in ("reachability", "channel"):
            violations = lint_source(
                tmp_path,
                f"repro/phy/{module}.py",
                """
                import time

                def check(loss):
                    started = time.monotonic()
                    return loss == 0.0
                """,
            )
            assert rule_ids(violations) == ["RL001", "RL003"], module

    def test_obs_ndjson_and_cli_exempt(self, tmp_path):
        # The NDJSON writer and repro trace CLI are operator-side I/O.
        for module in ("ndjson", "cli"):
            violations = lint_source(
                tmp_path,
                f"repro/obs/{module}.py",
                """
                import time
                started = time.monotonic()
                """,
            )
            assert violations == [], module


class TestRL002GlobalRng:
    def test_global_draw_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/workloads/jitter.py",
            """
            import random
            delay = random.random()
            """,
        )
        assert rule_ids(violations) == ["RL002"]

    def test_unseeded_random_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/mesh/backoff.py",
            """
            import random
            rng = random.Random()
            """,
        )
        assert rule_ids(violations) == ["RL002"]

    def test_global_import_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/mesh/pick.py",
            "from random import choice\n",
        )
        assert rule_ids(violations) == ["RL002"]

    def test_seeded_and_injected_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/workloads/gen.py",
            """
            import random

            def build(rng=None):
                rng = rng or random.Random(42)
                return rng.random()
            """,
        )
        assert violations == []


class TestRL003FloatEquality:
    def test_float_eq_in_phy_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/phy/gain.py",
            """
            def is_reset(extra_db):
                return extra_db == 0.0
            """,
        )
        assert rule_ids(violations) == ["RL003"]

    def test_float_neq_in_sim_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/sim/step.py",
            """
            def moved(dt):
                return dt != -1.5
            """,
        )
        assert rule_ids(violations) == ["RL003"]

    def test_isclose_and_int_compare_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/phy/snr.py",
            """
            import math

            def same(a, b):
                return math.isclose(a, b) and len([a]) == 1
            """,
        )
        assert violations == []

    def test_out_of_scope_exempt(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/rollups.py",
            """
            def is_zero(x):
                return x == 0.0
            """,
        )
        assert violations == []


class TestRL004MutableDefaults:
    def test_list_default_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/mesh/routes.py",
            """
            def merge(routes=[]):
                return routes
            """,
        )
        assert rule_ids(violations) == ["RL004"]

    def test_kwonly_dict_default_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/agg.py",
            """
            def tally(*, counters={}):
                return counters
            """,
        )
        assert rule_ids(violations) == ["RL004"]

    def test_constructor_default_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/buf.py",
            """
            def keep(items=list()):
                return items
            """,
        )
        assert rule_ids(violations) == ["RL004"]

    def test_none_default_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/mesh/routes2.py",
            """
            def merge(routes=None):
                return list(routes or ())
            """,
        )
        assert violations == []


class TestRL005PrintInLibrary:
    def test_library_print_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/debug.py",
            """
            def show(x):
                print(x)
            """,
        )
        assert rule_ids(violations) == ["RL005"]

    def test_cli_and_dashboard_exempt(self, tmp_path):
        for stem in ("cli", "dashboard"):
            violations = lint_source(
                tmp_path, f"repro/{stem}.py", "print('user facing')\n"
            )
            assert violations == [], stem

    def test_script_outside_package_exempt(self, tmp_path):
        path = tmp_path / "bench_something.py"
        path.write_text("print('benchmark output')\n")
        assert lint_file(path) == []

    def test_print_inside_docstring_exempt(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/doc.py",
            '''
            def example():
                """Usage::

                    print(example())
                """
                return 1
            ''',
        )
        assert violations == []


class TestRL006StoreLifecycle:
    def test_leaked_store_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/leak.py",
            """
            from repro.monitor.sqlitestore import SqliteMetricsStore

            def leak(record):
                store = SqliteMetricsStore("x.db")
                store.add_packet_record(record)
            """,
        )
        assert rule_ids(violations) == ["RL006"]

    def test_with_statement_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/ok_with.py",
            """
            from repro.monitor.storage import MetricsStore

            def count(record):
                with MetricsStore() as store:
                    store.add_packet_record(record)
                    return store.packet_record_count()
            """,
        )
        assert violations == []

    def test_explicit_close_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/ok_close.py",
            """
            from repro.monitor.sqlitestore import SqliteMetricsStore

            def write(record):
                store = SqliteMetricsStore("x.db")
                try:
                    store.add_packet_record(record)
                finally:
                    store.close()
            """,
        )
        assert violations == []

    def test_returned_store_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/ok_return.py",
            """
            from repro.monitor.storage import MetricsStore

            def build(store=None):
                result = store if store is not None else MetricsStore()
                return result
            """,
        )
        assert violations == []

    def test_self_assign_in_closing_class_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/ok_owner.py",
            """
            from repro.monitor.storage import MetricsStore

            class Owner:
                def __init__(self):
                    self.store = MetricsStore()

                def close(self):
                    self.store.close()
            """,
        )
        assert violations == []

    def test_self_assign_without_close_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/bad_owner.py",
            """
            from repro.monitor.storage import MetricsStore

            class Owner:
                def __init__(self):
                    self.store = MetricsStore()
            """,
        )
        assert rule_ids(violations) == ["RL006"]

    def test_test_code_exempt(self, tmp_path):
        path = tmp_path / "test_fixtures.py"
        path.write_text(
            "from repro.monitor.storage import MetricsStore\n"
            "store = MetricsStore()\n"
        )
        # The deep import trips RL007 (facade bypass) but not RL006.
        assert "RL006" not in rule_ids(lint_file(path))


class TestRL007FacadeBypass:
    def test_deep_import_in_test_code_flagged(self, tmp_path):
        path = tmp_path / "test_something.py"
        path.write_text("from repro.monitor.server import MonitorServer\n")
        violations = lint_file(path)
        assert rule_ids(violations) == ["RL007"]
        assert "repro.api" in violations[0].message

    def test_deep_import_in_loose_script_flagged(self, tmp_path):
        # benchmarks/ and examples/ files are loose scripts (no package).
        path = tmp_path / "bench_thing.py"
        path.write_text("from repro.scenario.runner import run_scenario\n")
        assert rule_ids(lint_file(path)) == ["RL007"]

    def test_facade_import_clean(self, tmp_path):
        path = tmp_path / "test_something.py"
        path.write_text("from repro.api import MonitorServer, run_scenario\n")
        assert rule_ids(lint_file(path)) == []

    def test_top_level_import_clean(self, tmp_path):
        path = tmp_path / "test_something.py"
        path.write_text("from repro import __version__\n")
        assert rule_ids(lint_file(path)) == []

    def test_internal_name_deep_import_clean(self, tmp_path):
        # Testing internals on purpose stays possible: only names the
        # facade exports are flagged.
        path = tmp_path / "test_something.py"
        path.write_text("from repro.monitor.ingest import SeqWindow\n")
        assert rule_ids(lint_file(path)) == []

    def test_library_code_exempt(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/monitor/httpapi.py",
            "from repro.monitor.server import MonitorServer\n",
        )
        assert rule_ids(lint_file(path)) == []

    def test_only_facade_aliases_flagged_in_mixed_import(self, tmp_path):
        path = tmp_path / "test_something.py"
        path.write_text(
            "from repro.monitor.ingest import IngestResult, SeqWindow\n"
        )
        violations = lint_file(path)
        assert rule_ids(violations) == ["RL007"]
        assert "IngestResult" in violations[0].message

    def test_names_read_from_source_match_facade_all(self):
        # The rule parses repro/api.py instead of importing it, so
        # linting never loads the full stack.
        import repro.api
        from repro.lint.rules.facade import facade_names

        assert facade_names() == frozenset(repro.api.__all__)


class TestSuppressions:
    def test_suppression_with_rationale_silences(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/phy/reset.py",
            """
            def is_reset(x):
                return x == 0.0  # reprolint: allow[RL003] -- exact sentinel
            """,
        )
        assert violations == []

    def test_suppression_without_rationale_is_rl000(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/phy/reset2.py",
            """
            def is_reset(x):
                return x == 0.0  # reprolint: allow[RL003]
            """,
        )
        # the bare suppression is flagged AND does not suppress
        assert sorted(rule_ids(violations)) == ["RL000", "RL003"]

    def test_unknown_rule_id_is_rl000(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/phy/reset3.py",
            "x = 1  # reprolint: allow[RL999] -- no such rule\n",
        )
        assert rule_ids(violations) == ["RL000"]

    def test_malformed_directive_is_rl000(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/phy/reset4.py",
            "x = 1  # reprolint: disable-everything\n",
        )
        assert rule_ids(violations) == ["RL000"]

    def test_multi_rule_suppression(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/sim/both.py",
            """
            import random
            x = random.random() == 0.5  # reprolint: allow[RL002,RL003] -- fixture draw
            """,
        )
        assert violations == []

    def test_marker_inside_string_does_not_suppress(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/phy/strlit.py",
            """
            NOTE = "# reprolint: allow[RL003] -- not a comment"

            def is_reset(x):
                return x == 0.0
            """,
        )
        assert rule_ids(violations) == ["RL003"]


class TestRegistryAndEngine:
    def test_all_seven_rules_registered(self):
        ids = default_registry().ids
        assert {
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"
        } <= ids

    def test_select_and_ignore(self, tmp_path):
        source = """
        import random
        delay = random.random()

        def merge(routes=[]):
            return routes
        """
        only_rng = lint_source(tmp_path, "repro/a.py", source, select=["RL002"])
        assert rule_ids(only_rng) == ["RL002"]
        no_rng = lint_source(tmp_path, "repro/b.py", source, ignore=["RL002"])
        assert rule_ids(no_rng) == ["RL004"]

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(LintConfigError):
            lint_source(tmp_path, "repro/c.py", "x = 1\n", select=["RL999"])

    def test_syntax_error_reported_as_rl000(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        assert rule_ids(lint_file(path)) == ["RL000"]

    def test_missing_path_raises(self):
        with pytest.raises(LintConfigError):
            run_lint(["/no/such/path/anywhere"])


class TestCli:
    def test_clean_tree_exit_zero(self, tmp_path, capsys):
        write_module(tmp_path, "repro/ok.py", "x = 1\n")
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "0 violation(s)" in capsys.readouterr().err

    def test_violations_exit_one(self, tmp_path, capsys):
        write_module(
            tmp_path, "repro/bad.py", "import random\nx = random.random()\n"
        )
        assert main([str(tmp_path)]) == EXIT_VIOLATIONS
        out = capsys.readouterr().out
        assert "RL002" in out

    def test_bad_rule_id_exit_two(self, tmp_path, capsys):
        assert main(["--select", "RL999", str(tmp_path)]) == EXIT_USAGE

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert rule_id in out

    def test_json_format(self, tmp_path, capsys):
        import json

        write_module(
            tmp_path, "repro/bad.py", "import random\nx = random.random()\n"
        )
        assert main(["--format", "json", str(tmp_path)]) == EXIT_VIOLATIONS
        document = json.loads(capsys.readouterr().out)
        assert document["violations"][0]["rule"] == "RL002"


class TestShippedTree:
    """The acceptance gate: the shipped tree lints clean."""

    def test_src_and_benchmarks_lint_clean(self):
        report = run_lint([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])
        assert report.files_checked > 90
        assert report.ok, "\n".join(v.render() for v in report.sorted())

    def test_examples_lint_clean(self):
        report = run_lint([REPO_ROOT / "examples"])
        assert report.ok, "\n".join(v.render() for v in report.sorted())
