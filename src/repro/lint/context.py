"""Per-file analysis context shared by every rule.

A rule receives one :class:`FileContext` and asks it scoping questions
("is this file inside a simulation-scoped package?", "is it test
code?") instead of re-deriving paths itself.  Scoping is what lets the
same rule set run over ``src/``, ``benchmarks/`` and ``examples/``
without drowning legitimate code — the monitoring server *should* read
wall-clock; ``cli.py`` *should* print.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.lint.suppress import Suppressions

#: packages (under ``repro``) that run on simulated time and injected RNG
SIM_SCOPED_PACKAGES: Tuple[str, ...] = (
    "sim",
    "mesh",
    "phy",
    "workloads",
    "scenario",
    "baselines",
)

#: modules of ``repro.campaign`` that execute simulation work.  The
#: campaign package straddles the boundary: ``worker`` runs scenarios on
#: simulated time inside pool processes (wall-clock there would break
#: the byte-identical-across-worker-counts contract), while the
#: scheduler/progress/cli side legitimately reads the host clock for
#: ETA lines — so scoping is per-module, not per-package.
CAMPAIGN_SIM_MODULES: Tuple[str, ...] = ("worker",)

#: modules of ``repro.obs`` that sit on the simulation side of the fence.
#: The recorder consumes trace events stamped with simulated time and the
#: span core times *simulation* work (its deliberate ``perf_counter``
#: reads carry per-line suppressions with rationale); the NDJSON writer
#: and the ``repro trace`` CLI are operator-side I/O and stay exempt.
OBS_SIM_MODULES: Tuple[str, ...] = ("recorder", "spans")

#: modules of ``repro.monitor`` whose classes are documented as shared
#: across threads (see docs/ARCHITECTURE.md, "Threading model"): the
#: server object and everything hanging off it is touched by HTTP
#: handler threads, the UDP receiver thread and the owner thread alike.
#: Classes in these modules fall under RL100 lock discipline even when
#: the file itself spawns no thread — the threads live elsewhere
#: (``ThreadingHTTPServer``) but the mutations happen here.  Modules
#: *not* listed (``uplink``, ``fleet``, ``alerts``, ``dashboard``,
#: ``store``...) are owner-thread or per-request constructs;
#: ``transport.http`` is covered by the entry-point trigger instead (it
#: subclasses ``IngestTransport``).
MONITOR_SHARED_MODULES: Tuple[str, ...] = (
    "server",
    "registry",
    "ingest",
    "httpapi",
    "stream.hub",
    "transport.base",
    "transport.udp",
)


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name for ``path``, or None for a loose script.

    Walks up while ``__init__.py`` exists, so ``src/repro/sim/engine.py``
    resolves to ``repro.sim.engine`` regardless of the directory the
    linter was invoked from.
    """
    path = path.resolve()
    packages = []
    parent = path.parent
    while (parent / "__init__.py").exists():
        packages.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    if not packages:
        return None  # a loose script, not a module in a package
    if path.stem != "__init__":
        packages.append(path.stem)
    return ".".join(packages)


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    path: Path
    source: str
    tree: ast.Module
    suppressions: Suppressions
    module: Optional[str]

    # -- scoping --------------------------------------------------------------

    @property
    def stem(self) -> str:
        return self.path.stem

    @property
    def is_test_code(self) -> bool:
        """Test modules get a pass on resource-lifecycle pedantry."""
        parts = {part.lower() for part in self.path.parts}
        if "tests" in parts or "test" in parts:
            return True
        return self.stem.startswith("test_") or self.stem == "conftest"

    @property
    def is_library_code(self) -> bool:
        """True for modules inside the installed ``repro`` package."""
        return self.module is not None and (
            self.module == "repro" or self.module.startswith("repro.")
        )

    @property
    def repro_subpackage(self) -> Optional[str]:
        """First package level under ``repro`` (``"sim"``, ``"monitor"``, ...)."""
        if not self.is_library_code:
            return None
        parts = (self.module or "").split(".")
        return parts[1] if len(parts) > 1 else None

    def in_subpackages(self, *names: str) -> bool:
        return self.repro_subpackage in names

    @property
    def is_sim_scoped(self) -> bool:
        """Inside a package (or campaign module) that runs on simulated time."""
        if self.in_subpackages(*SIM_SCOPED_PACKAGES):
            return True
        if self.repro_subpackage == "campaign":
            parts = (self.module or "").split(".")
            return len(parts) > 2 and parts[2] in CAMPAIGN_SIM_MODULES
        if self.repro_subpackage == "obs":
            parts = (self.module or "").split(".")
            return len(parts) > 2 and parts[2] in OBS_SIM_MODULES
        return False

    @property
    def is_thread_shared_scope(self) -> bool:
        """Inside a monitor module documented as shared across threads.

        RL100 normally needs *evidence* of threading in the class itself
        (an entry point, a lock, a ``# guarded-by:``).  For the modules
        listed in :data:`MONITOR_SHARED_MODULES` the threads are created
        by the standard library (``ThreadingHTTPServer``) or by sibling
        modules, so the discipline applies to every class regardless.
        """
        if self.repro_subpackage != "monitor":
            return False
        parts = (self.module or "").split(".")
        return ".".join(parts[2:]) in MONITOR_SHARED_MODULES
