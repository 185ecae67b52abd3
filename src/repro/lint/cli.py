"""``repro lint`` — the linter's command-line front end.

Exit codes follow lint convention: 0 clean, 1 violations found, 2 bad
invocation.  ``--format json`` emits a machine-readable report for CI
annotation tooling.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.errors import LintConfigError
from repro.lint.engine import run_lint
from repro.lint.registry import default_registry

EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based determinism, resource-safety & concurrency linter "
            "for the repro tree (rules RL001-RL007 and the RL100-RL103 "
            "concurrency pack; see docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE_ID",
        help="print a rule's rationale plus a bad/good example and exit",
    )
    return parser


def explain_rule(rule_id: str) -> int:
    """Print why ``rule_id`` exists and what good/bad code looks like."""
    registry = default_registry()
    matches = [r for r in registry.all_rules() if r.rule_id == rule_id]
    if not matches:
        print(
            f"repro lint: error: unknown rule id {rule_id!r}; "
            f"known: {', '.join(sorted(registry.ids))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    rule = matches[0]
    print(f"{rule.rule_id} — {rule.title}")
    rationale = getattr(rule, "rationale", None)
    if rationale is None:
        # Pre-RL1xx rules keep their rationale in the module docstring.
        module = sys.modules.get(type(rule).__module__)
        rationale = (module.__doc__ or "").strip() if module else ""
    print()
    print(rationale.strip())
    example_bad = getattr(rule, "example_bad", None)
    if example_bad:
        print()
        print("Bad:")
        for line in example_bad.rstrip().splitlines():
            print(f"    {line}")
    example_good = getattr(rule, "example_good", None)
    if example_good:
        print()
        print("Good:")
        for line in example_good.rstrip().splitlines():
            print(f"    {line}")
    return EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    registry = default_registry()
    if args.explain:
        return explain_rule(args.explain.strip())
    if args.list_rules:
        for rule in registry.all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return EXIT_CLEAN
    select = [part for part in args.select.split(",") if part.strip()]
    ignore = [part for part in args.ignore.split(",") if part.strip()]
    try:
        report = run_lint(args.paths, registry=registry, select=select, ignore=ignore)
    except LintConfigError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        print(
            json.dumps(
                {
                    "files_checked": report.files_checked,
                    "violations": [
                        {
                            "path": violation.path,
                            "line": violation.line,
                            "col": violation.col,
                            "rule": violation.rule_id,
                            "message": violation.message,
                        }
                        for violation in report.sorted()
                    ],
                },
                indent=2,
            )
        )
    else:
        for violation in report.sorted():
            print(violation.render())
    summary = (
        f"repro lint: {report.files_checked} files, "
        f"{len(report.violations)} violation(s)"
    )
    print(summary, file=sys.stderr)
    return EXIT_CLEAN if report.ok else EXIT_VIOLATIONS


if __name__ == "__main__":
    raise SystemExit(main())
