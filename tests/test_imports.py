"""Every module reads every name it imports, and the package reads every
private name it defines.

An AST scan of ``src/``, ``tests/`` and ``demos/``: a name that an import
statement binds must be read somewhere in the same module, or be listed
in the module's ``__all__`` (a re-export).

A second scan covers ``src/`` alone: every private module-level
function, class or constant, and every private method, that the package
defines must be read somewhere in the package, so no private code is
kept alive by its tests alone.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(sources: dict[str, str]) -> tuple[int, list[str]]:
    """The number of private names ``sources`` (path -> source) define,
    and ``"path line N: name"`` for each one that none of them reads. A
    read is a name load, an attribute load or a from-import."""
    defined, read = [], set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path, node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined += [(path, item.lineno, item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    private = [(path, line, name) for path, line, name in defined if _is_private(name)]
    return len(private), [f"{path} line {line}: {name}" for path, line, name in private
                          if name not in read]


def test_private_scanner_flags_names_nothing_reads():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _helper(): return _LIMIT\n"
            "def _dead(): pass\n"
            "class _Box:\n"
            "    def __init__(self): self._size = 0\n"
            "    def _grow(self): pass\n"
            "    def _shrink(self): pass\n"
            "    def public(self): return self._grow()\n"
        ),
        "b.py": "from a import _helper, _Box\n",
    }
    assert unread_private_names(sources) == (
        7, ["a.py line 2: _UNUSED", "a.py line 4: _dead", "a.py line 8: _shrink"])


def test_every_private_name_in_the_package_is_read_there():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    scanned, unread = unread_private_names(sources)
    assert scanned > 0
    assert unread == []
