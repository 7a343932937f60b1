"""The package keeps only code that its own modules reach: every top-level
function and class of ``src/steklovlab/*.py`` (``__init__`` aside), and every
method of those classes, is named by some ``ast.Name``, ``ast.Attribute`` or
import in those modules.  Code that only tests call lives in a test helper
module (``tests/fem_helpers.py``).  No module imports ``scipy.linalg``: the
run path's dense kernels are ``numpy.linalg`` only.  Every file a run reads
goes through ``mesh.read_json``, and ``mesh.is_number`` is the one test for
"a real number that is not a bool"."""

import ast
from pathlib import Path

import steklovlab

PACKAGE = Path(steklovlab.__file__).resolve().parent

# kept without a caller in the package
ALLOWED = {
    "cli._ArgumentParser.error",        # argparse calls it
}


def definitions(tree):
    """(qualified name, name) of each top-level function and class and of
    each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def unreferenced(package=PACKAGE):
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    named = {name for tree in trees.values() for name in references(tree)}
    return sorted(f"{module}.{qualified}" for module, tree in trees.items()
                  for qualified, name in definitions(tree)
                  if name not in named and f"{module}.{qualified}" not in ALLOWED)


def test_every_package_definition_has_a_caller_in_the_package():
    assert unreferenced() == []


def imported_modules(tree):
    """Every module an import statement of ``tree`` names, with its submodules
    (``from scipy import linalg`` names scipy.linalg)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_package_module_imports_scipy_linalg():
    importers = sorted(path.name for path in PACKAGE.glob("*.py")
                       if any(name == "scipy.linalg" or name.startswith("scipy.linalg.")
                              for name in imported_modules(ast.parse(path.read_text()))))
    assert importers == []


def _owned_nodes(node, owner="<module>"):
    """(name of the innermost function around it, or "<module>", node) of
    each node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        yield from _owned_nodes(child, child.name if isinstance(child, ast.FunctionDef) else owner)


def _names_bool(node):
    return any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node))


def test_one_json_reader_and_one_number_rule():
    readers, bool_tests = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("load", "loads")
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
                readers.append(f"{path.stem}.{owner}")
            is_bool_test = (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and _names_bool(node.args[1])
                or isinstance(node, ast.Compare) and any(map(_names_bool, node.comparators)))
            if is_bool_test:
                bool_tests.append(f"{path.stem}.{owner}")
    assert readers == ["mesh.read_json"]
    assert all(test == "mesh.is_number" for test in bool_tests), bool_tests
