"""Code that only the tests call lives in ``tests/``: every top-level function
and class of the library is named somewhere in ``src/`` or ``scripts/``
outside its own definition, the package's re-exports not counting."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the benchmark harness binds these by name, so they stay until it unbinds them
BOUND_BY_BENCHMARK = {"special_factors", "return_structure",
                      "mirror_bounded_palindromicity"}


def names_used(tree: ast.Module) -> set[str]:
    """Names read in a module, each definition's own name not counted inside
    that definition."""
    used = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        used |= {n.id for n in ast.walk(stmt)
                 if isinstance(n, ast.Name) and n.id != own}
    return used


def test_every_library_name_has_a_caller():
    library = sorted((ROOT / "src" / "palrich").glob("*.py"))
    defined, used = {}, set()
    for path in [*library, *sorted((ROOT / "scripts").glob("*.py"))]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= names_used(tree)
        if path in library:
            defined.update((stmt.name, path.name) for stmt in tree.body
                           if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)))
    uncalled = {name: module for name, module in defined.items()
                if name not in used and name not in BOUND_BY_BENCHMARK}
    assert not uncalled
