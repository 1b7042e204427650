import ast
from pathlib import Path

import hyp2

SRC = Path(hyp2.__file__).parent


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_public_names_are_unique_and_resolve():
    assert len(hyp2.__all__) == len(set(hyp2.__all__))
    missing = [name for name in hyp2.__all__ if not hasattr(hyp2, name)]
    assert missing == []


def test_every_import_is_used():
    """No module of the package imports a name it never reads."""
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue  # its imports are the package's re-exports
        used = _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"
            ):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_function_and_class_is_referenced():
    """No private module-level function or class is dead code: some module of
    the package names it, bare, as an attribute or in a from-import."""
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    unreferenced = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    ]
    assert unreferenced == []
