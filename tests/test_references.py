"""No helper that nothing calls: every module-level function, class and
constant of the package is named somewhere else in the package.

A name counts when another top-level statement of any package module
uses it as a name, an attribute or a ``from ... import``; a function
that only calls itself is not referenced, and a constant that only the
tests read is not either.  Dunder names (``__all__``, ``__version__``)
are left out.
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


def _defined(node) -> list:
    """The names a top-level statement defines: a function or class, or
    the plain names an assignment binds, dunder names left out."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            and not sub.id.startswith("__")]


def test_every_module_level_definition_is_referenced():
    statements = [(path.name, node)
                  for path in sorted(_PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    used = [_names(node) for _, node in statements]
    unreferenced = [
        f"{module}:{node.lineno} {name}"
        for k, (module, node) in enumerate(statements)
        for name in _defined(node)
        if not any(name in names for m, names in enumerate(used) if m != k)]
    assert not unreferenced, unreferenced
