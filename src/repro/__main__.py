"""The unified ``repro`` command-line interface.

One entry point, five subcommands, each forwarding to the layer's own
argument parser (run any of them with ``--help`` for details)::

    repro sim ...        scenario CLI (simulate/serve/airtime/dot/analyze/export)
    repro serve ...      shortcut for ``repro sim serve``
    repro lint ...       determinism & resource-safety linter (reprolint)
    repro campaign ...   deterministic parallel sweep runner
    repro trace ...      packet flight-recorder inspection

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional

_USAGE = """\
usage: repro <command> [args...]

commands:
  sim        scenario CLI: simulate, serve, airtime, dot, analyze, export
  serve      run a scenario and serve the dashboard over HTTP (= sim serve)
  lint       reprolint static analysis over Python sources
  campaign   plan and run deterministic scenario sweeps
  trace      inspect captured packet traces (flight recorder)

Run `repro <command> --help` for command-specific options.
"""


def _sim_main(argv: List[str]) -> int:
    from repro.cli import main as sim_main

    return sim_main(argv)


def _serve_main(argv: List[str]) -> int:
    from repro.cli import main as sim_main

    return sim_main(["serve", *argv])


def _lint_main(argv: List[str]) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(argv)


def _campaign_main(argv: List[str]) -> int:
    from repro.campaign.cli import main as campaign_main

    return campaign_main(argv)


def _trace_main(argv: List[str]) -> int:
    from repro.obs.cli import main as trace_main

    return trace_main(argv)


_COMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "sim": _sim_main,
    "serve": _serve_main,
    "lint": _lint_main,
    "campaign": _campaign_main,
    "trace": _trace_main,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if args else 2
    command, rest = args[0], args[1:]
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"repro: unknown command {command!r}\n", file=sys.stderr)
        print(_USAGE, end="", file=sys.stderr)
        return 2
    return handler(rest)


if __name__ == "__main__":
    sys.exit(main())
