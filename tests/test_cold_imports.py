"""What a one-shot ``repro run`` imports, checked in fresh interpreters.

scipy is not a dependency. It is installed wherever the oracle tests
of ``tests/test_video_features_kernel.py`` run, so only a run with
scipy blocked would notice an import of it creeping back in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

RUN_ARGS = [
    "run", "--clip", "test-300", "--encoding", "1.7",
    "--rate", "1.2", "--depth", "3000", "--seed", "3", "--json",
]


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_run_without_scipy_matches_in_process(capsys):
    blocked = run_python(
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.argv = ['repro', *{RUN_ARGS!r}]\n"
        "runpy.run_module('repro', run_name='__main__')\n"
    )
    assert blocked.returncode == 0, blocked.stderr
    assert main(RUN_ARGS) == 0
    assert json.loads(blocked.stdout) == json.loads(capsys.readouterr().out)


def test_cli_import_skips_scipy_and_orchestration():
    probe = run_python(
        "import sys\n"
        "import repro.cli\n"
        "print(sorted(m for m in ('scipy', 'repro.core.campaign') if m in sys.modules))\n"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_core_still_exports_orchestration_names():
    probe = run_python(
        "from repro.core import CampaignScheduler, SweepJournal, token_rate_sweep\n"
        "print(CampaignScheduler.__module__, SweepJournal.__module__)\n"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == [
        "repro.core.campaign.scheduler",
        "repro.core.journal",
    ]
