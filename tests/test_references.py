"""No helper that nothing calls: every module-level function and class of
the package is named somewhere else in the package.

A name counts when another top-level statement of any package module
uses it as a name, an attribute or a ``from ... import``; a function
that only calls itself is not referenced.
"""

import ast
from pathlib import Path

import oscdict

_PACKAGE = Path(oscdict.__file__).parent


def _names(node) -> set:
    """The names a syntax tree uses: names, attributes and imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_every_module_level_definition_is_referenced():
    statements = [(path.name, node)
                  for path in sorted(_PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    used = [_names(node) for _, node in statements]
    unreferenced = [
        f"{module}:{node.lineno} {node.name}"
        for k, (module, node) in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names
                    for m, names in enumerate(used) if m != k)]
    assert not unreferenced, unreferenced
