"""Smoke runs of the example scripts under ``scripts/``: each exits 0 and
prints its header lines on a small input.
"""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name: str, args: list[str], env) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_full_analysis(child_env):
    lines = _run_script("run_full_analysis.py", ["--size", "60"], child_env)
    assert lines[0].startswith("log: ")
    assert lines[1].startswith("network: ")
    assert lines[1].endswith("certified=True")
    assert lines[2].startswith("flow totals: ")
    assert any(line.startswith("duplication filter: ") for line in lines)


def test_oracle_convergence(child_env):
    lines = _run_script(
        "oracle_convergence.py", ["--size", "20", "--max-walkers", "4000"], child_env
    )
    assert lines[0].split() == [
        "walkers", "rms", "A", "err", "rms", "D", "err", "rms", "C", "err", "rms", "l", "err",
        "pass", "frac", "sim", "s",
    ]
    # the walker count quadruples from 1000 up to --max-walkers
    assert [int(line.split()[0]) for line in lines[1:]] == [1000, 4000]
