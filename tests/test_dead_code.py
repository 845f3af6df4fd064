"""Guard: every top-level name in ``src/robineig``, private ones included, is
used by the package.

A function, class or constant that only tests call belongs in ``tests/``;
one that nothing calls should go.  Dunder names such as ``__version__`` are
not checked.  Names are resolved from the syntax tree, so docstrings and
comments do not count as uses.  A name defined in module M counts as used
when it is loaded in M outside its own definition, or when another module
imports it from M and loads it, or loads ``M.name`` after
``from . import M``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robineig"
EXEMPT = {("cli", "main")}  # the console-script entry point


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return {name: node for name, node in defs.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _loads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded in ``tree``, outside the subtree ``skip``."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _uses_elsewhere(tree: ast.Module, module: str) -> set[str]:
    """Names of ``module`` that another module's ``tree`` imports and loads."""
    used = set()
    loads = _loads(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module == module:
            used |= {alias.name for alias in node.names if (alias.asname or alias.name) in loads}
        elif node.module is None and any(alias.name == module for alias in node.names):
            used |= {attr.attr for attr in ast.walk(tree) if isinstance(attr, ast.Attribute)
                     and isinstance(attr.value, ast.Name) and attr.value.id == module}
    return used


def unused_names(package: Path = PACKAGE) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        elsewhere = set()
        for other, other_tree in trees.items():
            if other != module:
                elsewhere |= _uses_elsewhere(other_tree, module)
        for name, node in _definitions(tree).items():
            if (module, name) in EXEMPT or name in elsewhere or name in _loads(tree, skip=node):
                continue
            unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_is_used_by_the_package():
    assert unused_names() == []


def _copy_with(tmp_path, name: str) -> Path:
    """A copy of the package whose ``model.py`` ends with a function ``name``
    that nothing calls."""
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "model.py", "a") as fh:
        fh.write(f'\n\ndef {name}():\n    """{name}() is only named in this docstring."""\n'
                 f'    return {name}\n')
    return tmp_path


def test_the_guard_sees_an_unused_name(tmp_path):
    assert unused_names(_copy_with(tmp_path, "orphan")) == ["model.orphan"]


def test_the_guard_sees_an_unused_private_name(tmp_path):
    assert unused_names(_copy_with(tmp_path, "_orphan")) == ["model._orphan"]
