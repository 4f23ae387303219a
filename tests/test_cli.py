"""The `python -m repro.experiments` entry point."""

import subprocess
import sys

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.__main__ import main


def run_cli(*args, timeout=300, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "repro.experiments", *args],
        capture_output=True, text=True, timeout=timeout)


class TestCli:
    def test_unknown_experiment_rejected(self):
        result = run_cli("nonsense")
        assert result.returncode == 2
        assert "unknown experiment" in result.stdout

    def test_e4_prints_micro_report(self):
        result = run_cli("e4")
        assert result.returncode == 0
        assert "UDP path stages:       6" in result.stdout

    @pytest.mark.slow
    def test_e7_prints_early_discard(self):
        result = run_cli("e7", timeout=420)
        assert result.returncode == 0
        assert "early drop at adapter" in result.stdout

    def test_check_e4_passes(self):
        result = run_cli("--check", "e4")
        assert result.returncode == 0
        assert "UDP path stages:       6" in result.stdout
        assert "check ok" in result.stdout

    def test_check_refuses_to_run_with_asserts_stripped(self):
        result = run_cli("--check", "e4", python_flags=("-O",))
        assert result.returncode == 2
        assert "check ok" not in result.stdout

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        def wrong_shape(report):
            assert report.udp_path_stages == 7, report

        monkeypatch.setitem(EXPERIMENTS, "e4",
                            EXPERIMENTS["e4"]._replace(check=wrong_shape))
        assert main(["repro.experiments", "--check", "e4", "shard"]) == 1
        out = capsys.readouterr().out
        # The table is still printed, the failure names the assertion,
        # and a later experiment still runs and passes.
        assert "UDP path stages:       6" in out
        assert "check FAILED" in out and "udp_path_stages == 7" in out
        assert "check ok" in out
        assert "failed checks: ['e4']" in out
