"""The command lines the benchmark (``perfbench/run.py``) and the README
run parse against the CLI as it stands, so a flag moved off a command
fails here instead of failing benchmark operations. Nothing is run.
"""
import importlib.util
import re
import shlex
import sys
from pathlib import Path

import pytest

from attnflow.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


def _load_run():
    """Load ``perfbench/run.py``; it puts its own directory on the path to
    import its siblings, which is undone afterwards.
    """
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_run", RUN)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _benchmark_lines() -> list[list[str]]:
    bench = _load_run()
    lines = []
    for params in bench.WORKLOADS.values():
        fingerprint = {"gap_seconds": 1800}
        lines += bench.commands(params, 1, fingerprint, Path("input.csv"), Path("out"))
    return lines


def _readme_lines() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["attnflow"]:
                lines.append(words[1:])
    return lines


BENCHMARK = _benchmark_lines()
README = _readme_lines()


def test_lines_found():
    assert len(BENCHMARK) == 5
    assert len(README) == 4


@pytest.mark.parametrize("argv", BENCHMARK + README, ids=lambda argv: " ".join(argv[:1]))
def test_command_line_parses(argv):
    build_parser().parse_args(argv)
