"""The artifact format has one owner, the wire-format section of
``network.py``. An AST scan of ``src/attnflow/*.py`` checks that every
text-mode ``open()`` names UTF-8 and that no other code writes JSON or CSV
to a file.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attnflow"
SECTION = "# --- wire formats"

#: the functions allowed to call each writer; all in network.py's section.
OWNERS = {
    "json.dump": {"write_json"},
    "csv.writer": {"write_csv"},
}


def _modules():
    return sorted(PACKAGE.glob("*.py"))


class _Calls(ast.NodeVisitor):
    """Every call, with its dotted name (import aliases resolved) and the
    function around it.
    """

    def __init__(self):
        self.aliases: dict[str, str] = {}
        self.function = None
        self.calls: list[tuple[str, ast.Call, ast.FunctionDef | None]] = []

    def visit_Import(self, node):
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = alias.name

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        parts = []
        target = node.func
        while isinstance(target, ast.Attribute):
            parts.append(target.attr)
            target = target.value
        if isinstance(target, ast.Name):
            parts.append(self.aliases.get(target.id, target.id))
            self.calls.append((".".join(reversed(parts)), node, self.function))
        self.generic_visit(node)


def _scan(path: Path) -> _Calls:
    calls = _Calls()
    calls.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return calls


def _writes_to_string(call: ast.Call, function: ast.FunctionDef | None) -> bool:
    """A csv.writer whose first argument is bound to ``io.StringIO()`` in
    the same function, as in ``ingest.serialize_log``.
    """
    if function is None or not call.args or not isinstance(call.args[0], ast.Name):
        return False
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == call.args[0].id for t in node.targets)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "io.StringIO"
        ):
            return True
    return False


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_text_mode_open_names_utf8(path):
    for name, call, _ in _scan(path).calls:
        if name != "open":
            continue
        where = f"{path.name}:{call.lineno}"
        mode = call.args[1] if len(call.args) > 1 else None
        mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
        if mode is not None:
            assert isinstance(mode, ast.Constant), f"{where}: mode is not a literal"
            if "b" in mode.value:
                continue
        encoding = next((k.value for k in call.keywords if k.arg == "encoding"), None)
        assert isinstance(encoding, ast.Constant) and encoding.value == "utf-8", (
            f'{where}: text-mode open() without encoding="utf-8"'
        )


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_writers_live_in_wire_format_section(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    section = next((i + 1 for i, line in enumerate(lines) if line.startswith(SECTION)), None)
    for name, call, function in _scan(path).calls:
        if name not in OWNERS:
            continue
        where = f"{path.name}:{call.lineno}"
        if name == "csv.writer" and _writes_to_string(call, function):
            continue
        assert path.name == "network.py", f"{where}: {name} outside network.py"
        assert function is not None and function.name in OWNERS[name], (
            f"{where}: {name} outside {sorted(OWNERS[name])}"
        )
        assert section is not None and function.lineno > section, (
            f"{where}: {function.name} is not in the wire-format section"
        )
