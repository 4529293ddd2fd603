"""Code that only the tests call lives in ``tests/``: every top-level function
and class of the library, and every method and property of a library class,
is named somewhere in ``src/`` or ``scripts/`` outside its own definition,
the package's re-exports not counting."""
import ast
import importlib
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "palrich").glob("*.py"))
SOURCES = [path for path in [*LIBRARY, *sorted((ROOT / "scripts").glob("*.py"))]
           if path.name != "__init__.py"]

# the benchmark harness binds these by name, so they stay until it unbinds them
BOUND_BY_BENCHMARK = {"special_factors", "return_structure",
                      "mirror_bounded_palindromicity", "unioccurrent_lps_scan"}


def names_used(tree: ast.Module) -> set[str]:
    """Names read in a module, each definition's own name not counted inside
    that definition."""
    used = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        used |= {n.id for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and n.id != own}
    return used


def names_and_attributes(node: ast.AST) -> Counter:
    """How often each name or attribute is read under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_library_name_has_a_caller():
    defined, used = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= names_used(tree)
        if path in LIBRARY:
            defined.update((stmt.name, path.name) for stmt in tree.body
                           if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)))
    uncalled = {name: module for name, module in defined.items()
                if name not in used and name not in BOUND_BY_BENCHMARK}
    assert not uncalled


def test_every_library_method_has_a_caller():
    # a dunder is called by Python, and an override of a method of a base
    # outside palrich (such as _Parser.error) by that base
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    everywhere = sum((names_and_attributes(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path in LIBRARY:
        if path not in trees:
            continue
        module = importlib.import_module(f"palrich.{path.stem}")
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            outside = [base for base in getattr(module, cls.name).__mro__[1:]
                       if not base.__module__.startswith("palrich")]
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name.startswith("__") and method.name.endswith("__")
                        or any(hasattr(base, method.name) for base in outside)):
                    continue
                if everywhere[method.name] == names_and_attributes(method)[method.name]:
                    uncalled.append(f"{path.name}: {cls.name}.{method.name}")
    assert not uncalled
