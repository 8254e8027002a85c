"""Every imported name is used, every private name is read somewhere.

The repository ships no linter.  The import scan covers src/foxh/*.py and
tests/*.py; the package's __init__.py imports its public API in order to
re-export it and is exempt.  The private-name scan takes every module-level
name with a leading underscore (dunders aside) defined in src/foxh/*.py and
looks for a read of it, as a name, an attribute or an import, in any file of
src/, tests/ or perfbench/.  The option scan takes every keyword-only
parameter with a default on a function in src/foxh/*.py and looks for a call
of a function of that name, in the same three trees, that passes it by name:
an option that no caller sets is a constant.  The gamma-call scan fails on a
call of log_gamma or digamma inside a comprehension in src/foxh/*.py: both
take arrays, and one array call costs about what one scalar call does.
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


def unread_private_names(path: Path, read: set) -> list:
    """Module-level private names defined in path that are never read."""
    defined = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.startswith("_") \
                        and not name.id.startswith("__"):
                    defined[name.id] = node.lineno
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in read)


def names_read(path: Path) -> set:
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_no_unread_private_names():
    read = set()
    for tree in ("src", "tests", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            read |= names_read(path)
    found = {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / "src" / "foxh").glob("*.py"))
        if (names := unread_private_names(path, read))
    }
    assert found == {}


def keyword_options(path: Path) -> set:
    """(function, parameter) for every keyword-only parameter with a default."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    found.add((node.name, arg.arg))
    return found


def call_name(node: ast.Call):
    """The called function's name, plain or as an attribute; None otherwise."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def keywords_passed(path: Path) -> set:
    """(function, keyword) for every call that passes an argument by name."""
    passed = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            passed |= {(call_name(node), kw.arg) for kw in node.keywords if kw.arg is not None}
    return passed


def test_every_keyword_option_is_passed():
    passed = set()
    for tree in ("src", "tests", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            passed |= keywords_passed(path)
    found = {
        str(path.relative_to(ROOT)): sorted(f"{fn}({arg}=)" for fn, arg in unset)
        for path in sorted((ROOT / "src" / "foxh").glob("*.py"))
        if (unset := keyword_options(path) - passed)
    }
    assert found == {}


GAMMA_KERNELS = {"log_gamma", "digamma"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def gamma_calls_in_comprehensions(path: Path) -> list:
    """Lines of log_gamma/digamma calls made once per comprehension element."""
    found = set()
    for comp in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(comp, COMPREHENSIONS):
            continue
        for node in ast.walk(comp):
            if isinstance(node, ast.Call) and call_name(node) in GAMMA_KERNELS:
                found.add(f"{call_name(node)} (line {node.lineno})")
    return sorted(found)


def test_no_gamma_call_per_comprehension_element():
    found = {
        str(path.relative_to(ROOT)): calls
        for path in sorted((ROOT / "src" / "foxh").glob("*.py"))
        if (calls := gamma_calls_in_comprehensions(path))
    }
    assert found == {}
