"""RL007 — tests and benchmarks import public names through the facade.

:mod:`repro.api` is the supported surface; everything in its ``__all__``
is covered by the compatibility promise.  When a test or benchmark
imports one of those names from the implementation module instead
(``from repro.monitor.server import MonitorServer``), it silently pins
the internal layout: the next refactor breaks it even though the public
name never moved.  The rule flags exactly those imports.  Imports of
genuinely internal names (helpers, private classes) are untouched — code
that *means* to test internals still can.

Scope: test code and out-of-package scripts (benchmarks, examples).
Library modules under ``repro`` are exempt; the implementation has to
import itself deeply, and making ``repro.api`` import-cycle-free
requires it.

The names are ``__all__`` of ``repro/api.py``, read from its source with
:mod:`ast`: the linter stays purely static (importing :mod:`repro.api`
would drag the whole stack — SQLite, HTTP server — into every lint run)
and the facade list has exactly one copy.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import FrozenSet, Iterator

from repro.lint.context import FileContext
from repro.lint.registry import register
from repro.lint.violation import Violation

#: Source of the facade; its ``__all__`` is the supported surface.
_FACADE_SOURCE = Path(__file__).resolve().parents[2] / "api.py"


@functools.lru_cache(maxsize=1)
def facade_names() -> FrozenSet[str]:
    """``repro.api.__all__``, read from the source without importing it."""
    tree = ast.parse(_FACADE_SOURCE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return frozenset(ast.literal_eval(node.value))
    raise LookupError(f"{_FACADE_SOURCE} assigns no __all__")


@register
class FacadeBypassRule:
    rule_id = "RL007"
    title = "import public names via repro.api"

    def check(self, context: FileContext) -> Iterator[Violation]:
        # Library code must deep-import itself; everyone else goes
        # through the facade for names the facade exports.
        if context.is_library_code and not context.is_test_code:
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or node.module is None:  # relative import
                continue
            module = node.module
            if module == "repro.api" or not module.startswith("repro."):
                continue
            for alias in node.names:
                if alias.name in facade_names():
                    yield Violation(
                        path=str(context.path),
                        line=node.lineno,
                        col=node.col_offset,
                        rule_id=self.rule_id,
                        message=(
                            f"{alias.name!r} is public API: import it from "
                            f"repro.api, not {module} (internal layout)"
                        ),
                    )
