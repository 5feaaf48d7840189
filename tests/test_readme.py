"""The README's library quick start runs as written on a small log."""
import re
from pathlib import Path

from attnflow import GeneratorSpec, generate, serialize_log

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_snippet_runs(tmp_path, monkeypatch, capsys):
    log = generate(GeneratorSpec(family="session-log", size=30, seed=3))
    (tmp_path / "visits.csv").write_text(serialize_log(log))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_quick_start(), "<README quick start>", "exec"), namespace)
    assert namespace["report"].certified
    assert namespace["net"].n_interior == 30
    assert len(namespace["l0"]) == 30
    assert capsys.readouterr().out.startswith("D ~ A^")
