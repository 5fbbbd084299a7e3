"""Every name a package module imports is referenced in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "backscatter_auth"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no ``ast.Name`` reads.

    ``import a.b`` binds ``a``; ``from __future__ import ...`` binds nothing
    a module reads.  Annotations count as reads; a quoted one does not, and
    none is needed under ``from __future__ import annotations``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unread_import_is_found():
    source = "from __future__ import annotations\nimport os\nimport math\nprint(math.pi)\n"
    assert _unused_imports(source) == ["os (line 2)"]
