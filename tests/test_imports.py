"""Every imported name is used, every private name is read somewhere.

The repository ships no linter.  The import scan covers src/foxh/*.py and
tests/*.py; the package's __init__.py imports its public API in order to
re-export it and is exempt.  The private-name scan takes every module-level
name with a leading underscore (dunders aside) defined in src/foxh/*.py and
looks for a read of it, as a name, an attribute or an import, in any file of
src/, tests/ or perfbench/.  The option scan takes every parameter with a
default on a function in src/foxh/*.py (a class's __init__ under the class's
name) and looks for a call of a function of that name, in the same three
trees, that passes it by name or, if it can be given by position, passes at
least as many positional arguments as reach it: an option that no caller
sets is a constant.  The default scan is its converse: it takes those
parameters and every dataclass field with a real default (a value, or
field() with default or default_factory) and fails where every call of
that name sets it, so the default is dead.  Names that foxh/__init__.py
exports, and methods of exported classes, are exempt: their defaults are
public conveniences.  The gamma-call scan fails on a
call of log_gamma or digamma inside a comprehension in src/foxh/*.py: both
take arrays, and one array call costs about what one scalar call does.
The import-cost scan runs `import foxh` in a fresh interpreter and fails if
any scipy module got loaded: the package needs only numpy, and importing
scipy.signal alone takes over a second.
"""

import ast
import os
import subprocess
import sys
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _field_has_default(value) -> bool:
    """Whether a dataclass field's right-hand side gives it a default:
    any value but a field(...) call without default or default_factory."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and call_name(value) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def defaults_declared(path: Path, fields: bool = False) -> set:
    """(owner, function, parameter, index) for every parameter with a default.

    function is the name a call uses: a class's __init__ goes under the
    class's name; owner is the enclosing class, None for a plain function.
    index is the parameter's place among a call's positional arguments,
    self or cls not counted in a method; None for keyword-only ones.  With
    fields, a dataclass's fields with a default count as its parameters.
    """
    found = set()

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if fields and _is_dataclass(child):
                    declared = [st for st in child.body if isinstance(st, ast.AnnAssign)
                                and isinstance(st.target, ast.Name)]
                    for i, st in enumerate(declared):
                        if _field_has_default(st.value):
                            found.add((child.name, child.name, st.target.id, i))
                visit(child, child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                name = cls if child.name == "__init__" else child.name
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                bound = int(cls is not None and not static)
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    found.add((cls, name, arg.arg, i - bound))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found.add((cls, name, arg.arg, None))
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


def keyword_options(path: Path) -> set:
    """(function, parameter, index) for every parameter with a default
    (see defaults_declared)."""
    return {(fn, arg, index) for _, fn, arg, index in defaults_declared(path)}


def call_name(node: ast.Call):
    """The called function's name, plain or as an attribute; None otherwise."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls_made(path: Path) -> list:
    """(function, keywords, positional count, star, double star) for every
    call: star when it spreads *args, double star when it spreads **kwargs."""
    return [(call_name(node), {kw.arg for kw in node.keywords if kw.arg is not None},
             len(node.args), any(isinstance(a, ast.Starred) for a in node.args),
             any(kw.arg is None for kw in node.keywords))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)]


def _all_calls() -> list:
    return [call for tree in ("src", "tests", "perfbench")
            for path in (ROOT / tree).rglob("*.py") for call in calls_made(path)]


def arguments_passed(calls) -> set:
    """(function, keyword) for every call that passes an argument by name,
    and (function, i) for every positional index i < len(args) of a call;
    a call that unpacks *args passes every index, as (function, None)."""
    passed = set()
    for name, keywords, n_args, star, _ in calls:
        passed |= {(name, kw) for kw in keywords}
        passed |= {(name, i) for i in range(n_args)}
        if star:
            passed.add((name, None))
    return passed


def test_every_keyword_option_is_passed():
    passed = arguments_passed(_all_calls())

    def is_set(fn, arg, index):
        return (fn, arg) in passed or index is not None and (
            (fn, index) in passed or (fn, None) in passed)

    found = {
        str(path.relative_to(ROOT)): unset
        for path in sorted((ROOT / "src" / "foxh").glob("*.py"))
        if (unset := sorted(f"{fn}({arg}=)" for fn, arg, index in keyword_options(path)
                            if not is_set(fn, arg, index)))
    }
    assert found == {}


def exported_names() -> set:
    """The names foxh/__init__.py imports to re-export."""
    tree = ast.parse((ROOT / "src" / "foxh" / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_no_default_is_overridden_by_every_call():
    # the converse of the option scan: a default that every call replaces is
    # dead.  Exported names and methods of exported classes keep theirs as
    # public conveniences; a call that unpacks arguments overrides nothing
    calls = _all_calls()
    exempt = exported_names()

    def overridden(fn, arg, index):
        mine = [call for call in calls if call[0] == fn]
        return bool(mine) and all(
            not (star or double) and (arg in kws or index is not None and index < n)
            for _, kws, n, star, double in mine)

    found = {
        str(path.relative_to(ROOT)): dead
        for path in sorted((ROOT / "src" / "foxh").glob("*.py"))
        if (dead := sorted(f"{fn}({arg}=)"
                           for owner, fn, arg, index in defaults_declared(path, fields=True)
                           if (owner or fn) not in exempt and overridden(fn, arg, index)))
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


def test_import_loads_no_scipy():
    code = ("import sys, foxh; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
