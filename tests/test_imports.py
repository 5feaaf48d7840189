"""Every module-level import in ``src/attnflow/*.py`` is used. An AST scan
binds each imported name and looks for it anywhere else in its module;
``__init__.py``, which imports to re-export, is left out, as are the names
a module re-exports on purpose.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attnflow"

#: (module, name) imports kept for other modules to reach: perfbench traces
#: the solver's diagonals through flowcalc.
REEXPORTS = {("flowcalc.py", "fundamental_diagonals")}


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(tree: ast.Module):
    """(bound name, line) of each import at module level, those under a
    module-level ``if`` (such as ``if TYPE_CHECKING:``) included; none from
    ``__future__``."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.If):
            pending += node.body + node.orelse
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in _imports(tree)
              if name not in used and (path.name, name) not in REEXPORTS]
    assert not unused, f"unused imports: {unused}"
