"""RL103 — threads need an explicit daemon flag and a join path.

Two distinct failure modes, one rule:

**No ``daemon=``.**  The default is inherited from the creating thread,
so whether a forgotten thread blocks interpreter exit depends on *who*
created it — a property the author should pin down explicitly at the
construction site, whichever value they choose.

**Never joined.**  A receiver/serve thread that is started but never
joined leaks past ``close()``: tests pass while the thread still runs,
sockets stay bound, and shutdown ordering bugs hide until production.
A thread stored on ``self`` must be joined from a lifecycle method
(``close``/``stop``/``shutdown``/``__exit__``/``__del__``); a thread
bound to a local must be joined in the same scope.  The recommended
shutdown shape — snapshot ``self._thread`` to a local under the lock,
join the local outside it — satisfies both this rule and RL101.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.analysis.concurrency import class_models
from repro.lint.context import FileContext
from repro.lint.registry import register
from repro.lint.violation import Violation


@register
class ThreadLifecycleRule:
    rule_id = "RL103"
    title = "thread without explicit daemon= or without a join path"

    rationale = (
        "threading.Thread inherits daemon-ness from its creator, so whether\n"
        "a forgotten thread blocks interpreter exit depends on who called\n"
        "you — pass daemon= explicitly.  And a thread that is never joined\n"
        "outlives close(): sockets stay bound, shutdown races hide.  Store\n"
        "the thread, and join it in close()/stop() (snapshot to a local\n"
        "under your lock, join outside it — see RL101)."
    )
    example_bad = (
        "def start(self) -> None:\n"
        "    self._thread = threading.Thread(target=self._serve)  # RL103 x2\n"
        "    self._thread.start()\n"
        "# ... no close()/stop() ever joins self._thread\n"
    )
    example_good = (
        "def start(self) -> None:\n"
        "    self._thread = threading.Thread(target=self._serve, daemon=True)\n"
        "    self._thread.start()\n"
        "\n"
        "def stop(self) -> None:\n"
        "    with self._lock:\n"
        "        thread, self._thread = self._thread, None\n"
        "    if thread is not None:\n"
        "        thread.join(timeout=5.0)\n"
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code:
            return
        for model in class_models(context):
            joins_in_lifecycle = model.lifecycle_joins_threads()
            for creation in model.thread_creations:
                if not creation.has_daemon_kw:
                    yield Violation(
                        path=str(context.path),
                        line=creation.line,
                        col=creation.col,
                        rule_id=self.rule_id,
                        message=(
                            f"{model.name}.{creation.method}() creates a "
                            "Thread without an explicit daemon= flag; "
                            "daemon-ness is inherited from the creator — "
                            "pin it down"
                        ),
                    )
                if creation.stored_attr is not None:
                    if not joins_in_lifecycle:
                        yield Violation(
                            path=str(context.path),
                            line=creation.line,
                            col=creation.col,
                            rule_id=self.rule_id,
                            message=(
                                f"thread stored on self.{creation.stored_attr} "
                                f"is never joined in a lifecycle method of "
                                f"{model.name} (close/stop/shutdown/__exit__)"
                            ),
                        )
                elif creation.local_name is not None:
                    if not creation.joined_locally:
                        yield Violation(
                            path=str(context.path),
                            line=creation.line,
                            col=creation.col,
                            rule_id=self.rule_id,
                            message=(
                                f"thread '{creation.local_name}' created in "
                                f"{model.name}.{creation.method}() is never "
                                "joined in that scope"
                            ),
                        )
                else:
                    yield Violation(
                        path=str(context.path),
                        line=creation.line,
                        col=creation.col,
                        rule_id=self.rule_id,
                        message=(
                            f"fire-and-forget thread in {model.name}."
                            f"{creation.method}(): neither stored for a "
                            "lifecycle join nor joined locally"
                        ),
                    )
