"""Every name a module imports is used (the repository ships no linter).

The scan covers src/foxh/*.py and tests/*.py; the package's __init__.py
imports its public API in order to re-export it and is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "foxh").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = {
        str(path.relative_to(ROOT)): names
        for path in files
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert found == {}
