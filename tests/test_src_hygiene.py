"""Static checks over the package source, with the standard `ast` only.

No linter is installed, so these two checks keep a refactor from leaving
dead code behind: every imported name is used in its module, and every
private function, method and class is referenced somewhere else in the
package.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coplaces"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported(tree):
    """The strings of a module-level `__all__` list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            return {element.value for element in node.value.elts}
    return set()


def _references(tree):
    """How often each name is read as a variable, an attribute or an
    imported name below `tree`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_sources_are_found():
    assert {path.name for path in MODULES} >= {"__init__.py", "cli.py",
                                                "ptnet.py", "matrix.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound != "annotations" and bound not in used:
                    unused.append(bound)
    assert unused == []


def test_every_private_definition_is_referenced_elsewhere():
    trees = [_tree(path) for path in MODULES]
    everywhere = Counter()
    for tree in trees:
        everywhere.update(_references(tree))
    dead = []
    for path, tree in zip(MODULES, trees):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)) and _private(node.name)):
                # a reference inside the definition itself, such as a
                # recursive call, does not keep it alive
                if everywhere[node.name] <= _references(node)[node.name]:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == []
