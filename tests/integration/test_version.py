"""The version is single-sourced: package, CLI, reports, service."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro import __version__
from repro.cli import main


class TestVersionSingleSourcing:
    def test_version_is_semver_shaped(self):
        assert re.fullmatch(r"\d+\.\d+\.\d+", __version__)

    def test_cli_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_python_dash_m_repro(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "repro", "--version"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"repro {__version__}"

    def test_pyproject_reads_the_package_version(self):
        # No second copy of the number: pyproject declares the version
        # dynamic and points at the package attribute.
        with open("pyproject.toml", encoding="utf-8") as fh:
            text = fh.read()
        assert 'dynamic = ["version"]' in text
        assert 'version = { attr = "repro.__version__" }' in text
        assert not re.search(r'^version\s*=\s*"\d', text, re.M)

    def test_reports_are_stamped(self, tmp_path):
        report_path = str(tmp_path / "run.json")
        assert main(["verify", "gas", "--selective",
                     "--report", report_path]) == 0
        from repro.obs.report import RunReport
        assert RunReport.load(report_path).payload[
            "repro_version"] == __version__
