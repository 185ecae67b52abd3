"""Meta-tests for the RL100-RL103 concurrency rule pack.

Mirrors the fixture style of ``test_lint.py``: each rule gets minimal
bad and good classes written into a synthetic ``repro``-shaped tree so
module scoping (``MONITOR_SHARED_MODULES``, entry-point detection)
behaves exactly as on the real tree.  Rules are isolated with
``select=`` so the determinism rules cannot pollute the assertions.
"""

import textwrap
from pathlib import Path

from repro.lint.cli import EXIT_CLEAN, EXIT_USAGE, main
from repro.lint.engine import lint_file, run_lint

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


class TestRL100SharedState:
    def test_unguarded_write_in_shared_module_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/registry.py",
            """
            class Registry:
                def __init__(self) -> None:
                    self._shards = {}

                def adopt(self, network_id, shard):
                    self._shards[network_id] = shard
            """,
            select=["RL100"],
        )
        assert rule_ids(violations) == ["RL100"]
        assert "_shards" in violations[0].message

    def test_consistently_locked_class_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/registry.py",
            """
            import threading

            class Registry:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._shards = {}

                def adopt(self, network_id, shard):
                    with self._lock:
                        self._shards[network_id] = shard

                def get(self, network_id):
                    with self._lock:
                        return self._shards.get(network_id)
            """,
            select=["RL100"],
        )
        assert violations == []

    def test_inconsistent_guarding_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/registry.py",
            """
            import threading

            class Registry:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1

                def peek(self):
                    return self._count
            """,
            select=["RL100"],
        )
        assert rule_ids(violations) == ["RL100"]
        assert "without holding" in violations[0].message

    def test_guarded_by_annotation_enforced(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/registry.py",
            """
            import threading

            class Registry:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    self._count += 1
            """,
            select=["RL100"],
        )
        assert rule_ids(violations) == ["RL100"]
        assert "guarded-by" in violations[0].message

    def test_guarded_by_annotation_satisfied_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/registry.py",
            """
            import threading

            class Registry:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self._count += 1
            """,
            select=["RL100"],
        )
        assert violations == []

    def test_dotted_external_guard_trusted(self, tmp_path):
        # A dotted guard documents a lock owned by another class; the
        # per-file analysis trusts it (the owner's file is checked there).
        violations = lint_source(
            tmp_path,
            "repro/monitor/ingest.py",
            """
            class Window:
                def __init__(self) -> None:
                    self._seen = set()  # guarded-by: MonitorServer._lock

                def check_and_add(self, seq):
                    if seq in self._seen:
                        return False
                    self._seen.add(seq)
                    return True
            """,
            select=["RL100"],
        )
        assert violations == []

    def test_unknown_bare_guard_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/registry.py",
            """
            class Registry:
                def __init__(self) -> None:
                    self._count = 0  # guarded-by: _mutex

                def bump(self):
                    self._count += 1
            """,
            select=["RL100"],
        )
        assert rule_ids(violations) == ["RL100"]
        assert "not a lock attribute" in violations[0].message

    def test_entry_point_triggers_outside_shared_modules(self, tmp_path):
        # Not a MONITOR_SHARED_MODULES module, but the class provably
        # runs off-thread code (Thread target), so RL100 applies.
        violations = lint_source(
            tmp_path,
            "repro/monitor/pollers.py",
            """
            import threading

            class Poller:
                def __init__(self) -> None:
                    self.samples = []

                def start(self):
                    thread = threading.Thread(target=self._run, daemon=True)
                    thread.start()
                    thread.join(timeout=1.0)

                def _run(self):
                    self.samples.append(1)
            """,
            select=["RL100"],
        )
        assert rule_ids(violations) == ["RL100"]

    def test_single_threaded_class_exempt(self, tmp_path):
        # No entry points, no locks, not a shared module: plain mutable
        # state is fine outside the thread-shared tier.
        violations = lint_source(
            tmp_path,
            "repro/monitor/rollup.py",
            """
            class Rollup:
                def __init__(self) -> None:
                    self.rows = []

                def add(self, row):
                    self.rows.append(row)
            """,
            select=["RL100"],
        )
        assert violations == []

    def test_suppression_with_rationale_honoured(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/registry.py",
            """
            class Registry:
                def __init__(self) -> None:
                    self._running = False

                def stop(self):
                    self._running = False  # reprolint: allow[RL100] -- GIL-atomic bool store observed by the serve loop
            """,
            select=["RL100"],
        )
        assert violations == []


class TestRL101BlockingUnderLock:
    def test_sleep_under_lock_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading
            import time

            class Server:
                def __init__(self) -> None:
                    self._lock = threading.Lock()

                def throttle(self):
                    with self._lock:
                        time.sleep(0.1)
            """,
            select=["RL101"],
        )
        assert rule_ids(violations) == ["RL101"]
        assert "sleep" in violations[0].message

    def test_join_on_thread_under_lock_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._thread = None

                def stop(self):
                    with self._lock:
                        if self._thread is not None:
                            self._thread.join(timeout=5.0)
            """,
            select=["RL101"],
        )
        assert rule_ids(violations) == ["RL101"]
        assert "deadlock" in violations[0].message

    def test_string_join_under_lock_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._names = []

                def render(self):
                    with self._lock:
                        return ", ".join(self._names)
            """,
            select=["RL101"],
        )
        assert violations == []

    def test_queue_get_with_timeout_under_lock_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self, out):
                    self._lock = threading.Lock()
                    self._out = out

                def collect(self):
                    with self._lock:
                        return self._out.get(timeout=1.0)
            """,
            select=["RL101"],
        )
        assert rule_ids(violations) == ["RL101"]

    def test_dict_get_under_lock_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._shards = {}

                def get(self, key):
                    with self._lock:
                        return self._shards.get(key, None)
            """,
            select=["RL101"],
        )
        assert violations == []

    def test_blocking_outside_lock_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._thread = None

                def stop(self):
                    with self._lock:
                        thread, self._thread = self._thread, None
                    if thread is not None:
                        thread.join(timeout=5.0)
            """,
            select=["RL101"],
        )
        assert violations == []


class TestRL102BareAcquire:
    def test_bare_acquire_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._lock.acquire()
                    self._count += 1
                    self._lock.release()
            """,
            select=["RL102"],
        )
        assert rule_ids(violations) == ["RL102"]
        assert "try/finally" in violations[0].message

    def test_acquire_with_try_finally_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._lock.acquire()
                    try:
                        self._count += 1
                    finally:
                        self._lock.release()
            """,
            select=["RL102"],
        )
        assert violations == []

    def test_with_statement_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1
            """,
            select=["RL102"],
        )
        assert violations == []

    def test_finally_releasing_other_lock_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def bump(self):
                    self._a.acquire()
                    try:
                        pass
                    finally:
                        self._b.release()
            """,
            select=["RL102"],
        )
        assert rule_ids(violations) == ["RL102"]


class TestRL103ThreadLifecycle:
    def test_missing_daemon_and_join_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def start(self):
                    self._thread = threading.Thread(target=self._serve)
                    self._thread.start()

                def _serve(self):
                    pass
            """,
            select=["RL103"],
        )
        ids = rule_ids(violations)
        assert ids == ["RL103", "RL103"]
        messages = " / ".join(v.message for v in violations)
        assert "daemon" in messages
        assert "never joined" in messages

    def test_daemon_and_lifecycle_join_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def __init__(self) -> None:
                    self._thread = None

                def start(self):
                    self._thread = threading.Thread(target=self._serve, daemon=True)
                    self._thread.start()

                def stop(self):
                    thread, self._thread = self._thread, None
                    if thread is not None:
                        thread.join(timeout=5.0)

                def _serve(self):
                    pass
            """,
            select=["RL103"],
        )
        assert violations == []

    def test_local_thread_joined_in_scope_clean(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def run_once(self):
                    worker = threading.Thread(target=self._serve, daemon=True)
                    worker.start()
                    worker.join(timeout=5.0)

                def _serve(self):
                    pass
            """,
            select=["RL103"],
        )
        assert violations == []

    def test_fire_and_forget_flagged(self, tmp_path):
        violations = lint_source(
            tmp_path,
            "repro/monitor/server.py",
            """
            import threading

            class Server:
                def start(self):
                    threading.Thread(target=self._serve, daemon=True).start()

                def _serve(self):
                    pass
            """,
            select=["RL103"],
        )
        assert rule_ids(violations) == ["RL103"]
        assert "fire-and-forget" in violations[0].message


class TestExplainCli:
    def test_explain_concurrency_rule(self, tmp_path, capsys):
        assert main(["--explain", "RL100"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "RL100" in out
        assert "Bad:" in out
        assert "Good:" in out

    def test_explain_legacy_rule_uses_module_docstring(self, tmp_path, capsys):
        assert main(["--explain", "RL001"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "RL001" in out

    def test_explain_unknown_rule_usage_error(self, tmp_path, capsys):
        assert main(["--explain", "RL999"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "unknown rule" in err


class TestShippedTreeConcurrency:
    def test_monitor_tier_clean_under_rl1xx(self):
        report = run_lint(
            [REPO_ROOT / "src" / "repro" / "monitor"],
            select=["RL100", "RL101", "RL102", "RL103"],
        )
        assert report.violations == []
