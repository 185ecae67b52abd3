"""RL100 — shared mutable attributes need a consistent lock.

The monitor tier is multi-threaded by construction:
``ThreadingHTTPServer`` runs each request on its own thread and the
UDP transport owns a receiver thread.  Any ``self.<attr>`` that one
of those threads *writes* and another thread touches is a data race
unless every access happens under one common lock.

The rule applies to a class when any of these hold:

* it has thread entry points (``threading.Thread(target=self.m)``
  targets, ``run`` on Thread subclasses, ``do_*`` request handlers,
  ``IngestTransport`` callbacks) — the class demonstrably runs
  off-thread code;
* it declares lock attributes or ``# guarded-by:`` annotations — the
  author already claims a discipline, so it is checked;
* its module is listed in
  :data:`repro.lint.context.MONITOR_SHARED_MODULES` — documented
  thread-shared monitor state whose threads live in the stdlib or in
  sibling modules, invisible to a per-file analysis.

For each attribute written outside construction the rule demands one
of: a single lock held at **every** non-construction access, a
``# guarded-by:`` annotation on the attribute's defining line (bare
name = a lock of this class, verified; dotted name = a documented
external guard, trusted), or a per-line suppression with a rationale
(the GIL-atomic escape hatch).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.lint.analysis.concurrency import class_models
from repro.lint.analysis.model import Access, ClassModel
from repro.lint.context import FileContext
from repro.lint.registry import register
from repro.lint.violation import Violation


@register
class SharedStateLockRule:
    rule_id = "RL100"
    title = "shared mutable attribute accessed without a common lock"

    rationale = (
        "Monitor-tier objects are touched by HTTP handler threads, the UDP\n"
        "receiver thread and the owner thread at once.  An attribute written\n"
        "by one thread and read or written by another without a common lock\n"
        "is a data race: lost counter increments, torn LRU order, deques\n"
        "observed mid-mutation.  Guard every access with one lock, annotate\n"
        "the attribute '# guarded-by: <lock>' (dotted names document guards\n"
        "external to the class), or suppress the single access that is\n"
        "deliberately lock-free with a GIL-atomicity rationale."
    )
    example_bad = (
        "class Registry:\n"
        "    def __init__(self) -> None:\n"
        "        self._shards = {}\n"
        "\n"
        "    def handle_batch(self, batch):  # called from handler threads\n"
        "        self._shards[batch.network_id] = batch  # RL100\n"
    )
    example_good = (
        "class Registry:\n"
        "    def __init__(self) -> None:\n"
        "        self._lock = threading.Lock()\n"
        "        self._shards = {}  # guarded-by: _lock\n"
        "\n"
        "    def handle_batch(self, batch):\n"
        "        with self._lock:\n"
        "            self._shards[batch.network_id] = batch\n"
    )

    def check(self, context: FileContext) -> Iterator[Violation]:
        if context.is_test_code:
            return
        for model in class_models(context):
            yield from self._check_class(context, model)

    def _check_class(
        self, context: FileContext, model: ClassModel
    ) -> Iterator[Violation]:
        has_evidence = bool(
            model.direct_entry_points or model.lock_attrs or model.guards
        )
        if not has_evidence and not context.is_thread_shared_scope:
            return
        reachable = model.entry_reachable()
        grouped = model.accesses_by_attr()
        for attr in sorted(model.shared_written_attrs()):
            accesses = [a for a in grouped.get(attr, []) if not a.in_init]
            if not accesses:
                continue
            guard = model.guards.get(attr)
            if guard is not None:
                yield from self._check_annotated(context, model, attr, guard, accesses)
                continue
            # Without an annotation the rule only bites when the class is
            # in a documented thread-shared module or the attribute is
            # actually touched by entry-reachable (off-thread) code.
            if not context.is_thread_shared_scope and not any(
                a.method in reachable for a in accesses
            ):
                continue
            yield from self._check_unannotated(context, model, attr, accesses)

    def _check_annotated(
        self,
        context: FileContext,
        model: ClassModel,
        attr: str,
        guard: str,
        accesses: List[Access],
    ) -> Iterator[Violation]:
        if "." in guard:
            return  # documented external guard; per-file analysis trusts it
        if guard not in model.lock_attrs:
            yield self._violation(
                context,
                model.guard_lines.get(attr, model.node.lineno),
                0,
                f"'{model.name}.{attr}' is annotated '# guarded-by: {guard}' "
                f"but '{guard}' is not a lock attribute of {model.name}",
            )
            return
        for access in accesses:
            if guard not in access.locks:
                yield self._violation(
                    context,
                    access.line,
                    access.col,
                    f"'{model.name}.{attr}' is annotated '# guarded-by: "
                    f"{guard}' but {access.method}() accesses it without "
                    f"holding self.{guard}",
                )

    def _check_unannotated(
        self,
        context: FileContext,
        model: ClassModel,
        attr: str,
        accesses: List[Access],
    ) -> Iterator[Violation]:
        locked = [a for a in accesses if a.locks]
        if not locked:
            # Wholly unguarded: flag the writes (the actionable sites).
            for access in accesses:
                if access.is_write:
                    yield self._violation(
                        context,
                        access.line,
                        access.col,
                        f"'{model.name}.{attr}' is written from "
                        f"{access.method}() with no lock held and the class "
                        "is shared across threads; guard it with a lock or "
                        "annotate '# guarded-by: <lock>'",
                    )
            return
        common = frozenset.intersection(*[a.locks for a in locked])
        if not common:
            first = accesses[0]
            yield self._violation(
                context,
                first.line,
                first.col,
                f"'{model.name}.{attr}' is guarded inconsistently — no "
                "single lock is held at all of its accesses",
            )
            return
        for access in accesses:
            if not (access.locks & common):
                guard_name = sorted(common)[0]
                yield self._violation(
                    context,
                    access.line,
                    access.col,
                    f"'{model.name}.{attr}' is elsewhere guarded by "
                    f"self.{guard_name} but {access.method}() accesses it "
                    "without holding it",
                )

    def _violation(
        self, context: FileContext, line: int, col: int, message: str
    ) -> Violation:
        return Violation(
            path=str(context.path),
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
        )
