"""Every module reads every name it imports.

An AST scan of ``src/``, ``tests/`` and ``demos/``: a name that an import
statement binds must be read somewhere in the same module, or be listed
in the module's ``__all__`` (a re-export).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(source: str) -> list[str]:
    """``"line N: name"`` for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_scanner_flags_unused_names_and_honours_all():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "print(np.pi, d)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: b"]


def test_every_imported_name_is_read():
    found = []
    for folder in SCANNED:
        for path in sorted((ROOT / folder).rglob("*.py")):
            found += [f"{path.relative_to(ROOT)} {item}"
                      for item in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
