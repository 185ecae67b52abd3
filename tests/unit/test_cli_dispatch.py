"""Unified ``repro`` CLI dispatch: routing and usage.

The CLI contract: one ``repro`` entry point with
sim/serve/lint/campaign/trace subcommands.
"""

from repro.__main__ import _COMMANDS, main


class TestDispatch:
    def test_no_args_prints_usage_and_fails(self, capsys):
        assert main([]) == 2
        assert "usage: repro <command>" in capsys.readouterr().out

    def test_help_prints_usage_and_succeeds(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in _COMMANDS:
            assert command in out

    def test_unknown_command_exits_2_via_stderr(self, capsys):
        assert main(["frobnicate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown command 'frobnicate'" in captured.err

    def test_lint_subcommand_forwards(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        captured = capsys.readouterr()
        assert "RL007" in captured.out

    def test_sim_subcommand_forwards(self, capsys):
        # airtime is the one scenario command that is cheap and pure.
        assert main(["sim", "airtime", "--sf", "7", "--payload", "20"]) == 0
        captured = capsys.readouterr()
        assert "ms" in captured.out
        assert captured.err == ""
