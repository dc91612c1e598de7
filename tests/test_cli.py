"""Smoke tests for the ``python -m repro`` CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestCLI:
    def test_protocol_subcommand(self, capsys):
        assert main(["protocol"]) == 0
        out = capsys.readouterr().out
        assert "OraP protocol checks" in out
        assert out.count("yes") >= 12

    def test_trojans_subcommand(self, capsys):
        assert main(["trojans"]) == 0
        out = capsys.readouterr().out
        assert "Trojan scenarios" in out
        assert "128-bit" in out

    def test_table1_with_args(self, capsys):
        assert (
            main(
                [
                    "table1",
                    "--scale",
                    "0.004",
                    "--circuits",
                    "b20",
                    "--patterns",
                    "256",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "b20" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_table1_touches_no_service_and_no_deprecated_spelling(
        self, tmp_path
    ):
        """A campaign calls its harness directly: under
        ``-W error::DeprecationWarning`` it still succeeds, and no
        ``repro.service`` module is ever imported."""
        code = (
            "import sys\n"
            "from repro.__main__ import main\n"
            "rc = main(['table1', '--scale', '0.004', '--circuits', 'b20',"
            " '--no-cache'])\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'repro.service' or m.startswith('repro.service.')))\n"
            "sys.exit(rc)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "b20" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "[]"


class TestUnifiedRuntimeFlags:
    CAMPAIGNS = [
        "table1", "table2", "attacks", "trojans", "protocol", "ablations",
        "hd-sweep", "all",
    ]
    UNIFIED = ["jobs", "trace", "cache", "cache_dir"]

    @pytest.mark.parametrize("cmd", CAMPAIGNS)
    def test_every_campaign_parser_accepts_the_unified_set(self, cmd):
        """One `add_runtime_flags` helper ⇒ identical flags everywhere."""
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            [
                cmd, "--jobs", "2", "--trace", "t.jsonl", "--no-cache",
                "--cache-dir", "x",
            ]
        )
        assert args.jobs == 2
        assert args.trace == "t.jsonl"
        assert args.cache is False
        assert args.cache_dir == "x"

    def test_row_policy_flags_on_runner_campaigns(self):
        from repro.__main__ import build_parser

        for cmd in ("table1", "table2", "attacks"):
            args = build_parser().parse_args(
                [cmd, "--resume", "--retries", "1", "--row-deadline", "5",
                 "--worker-retries", "2"]
            )
            assert args.resume and args.retries == 1
            assert args.row_deadline == 5.0 and args.worker_retries == 2
