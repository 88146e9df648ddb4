"""No module imports a name it never uses.

An AST scan of `src/uavlc/*.py`, `tests/*.py` and `perfbench/*.py`: every
name an import statement binds must occur as a name somewhere else in the
same module. `__init__.py` files, whose imports are the package's
re-exports, and `from __future__` imports are exempt. The scan only reads
the files.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(path for pattern in ("src/uavlc/*.py", "tests/*.py",
                                      "perfbench/*.py")
                 for path in ROOT.glob(pattern)
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports and never used in it, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SCANNED,
                         ids=[str(p.relative_to(ROOT)) for p in SCANNED])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    assert SCANNED
    assert unused_imports("import os\nimport re as regex\n"
                          "from a.b import c, d as e\nfrom __future__ "
                          "import annotations\nprint(c, os.sep)\n") == [
        "regex", "e"]
