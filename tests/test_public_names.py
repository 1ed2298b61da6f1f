"""Every public name of a braincl module is used somewhere in the program.

A name listed in a module's ``__all__`` but loaded nowhere in ``src/``
(package ``__init__`` re-exports aside) is a helper that only tests call.
"""

import ast
from pathlib import Path

import braincl

SRC = Path(braincl.__file__).resolve().parent
# the core's gradient checker: a public tool for tests of differentiable ops
TEST_TOOLS = {"gradcheck", "directional_gradcheck"}


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"}


def _public_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def test_every_public_name_is_used_in_the_program():
    modules = _modules()
    loaded = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = [f"{path.relative_to(SRC)}: {name}" for path, tree in modules.items()
              for name in _public_names(tree) if name not in loaded | TEST_TOOLS]
    assert unused == []
    assert any(_public_names(tree) for tree in modules.values())  # the scan saw __all__
