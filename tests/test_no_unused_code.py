"""Every top-level function, class and assigned name in ``src/kiqa`` has a
user in the program: ``src/kiqa`` itself or the benchmark harness (``perfbench/*.py``,
not its tests). Code that only tests use belongs next to those tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "kiqa").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _is_all_assignment(node) -> bool:
    return isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _references(tree):
    """(name, line) of each name, attribute and string constant, skipping
    ``__all__``: listing a name there does not use it. Strings count because
    the benchmark's tracer binds functions by module and attribute name."""
    skipped = set()
    for node in tree.body:
        if _is_all_assignment(node):
            skipped.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _defined_names(node):
    """Names a top-level statement defines: a function or class, or the
    plain names an assignment binds (``__all__`` and other dunders aside)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def unused_definitions(files) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in files}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "kiqa":
            continue
        for node in tree.body:
            own = range(node.lineno, node.end_lineno + 1)
            for defined in _defined_names(node):
                used = any(
                    name == defined and not (other == path and line in own)
                    for other, pairs in refs.items()
                    for name, line in pairs
                )
                if not used:
                    unused.append(f"{path.stem}.{defined}")
    return unused


def test_every_top_level_definition_has_a_program_user():
    assert unused_definitions(PROGRAM) == []


def test_unused_definition_is_flagged(tmp_path):
    pkg = tmp_path / "kiqa"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used() + LIMIT\n\n\n"
        "LIMIT = 3\nUNUSED = LIMIT + 1\nPAIR_A, PAIR_B = 1, 2\nTYPED: int = PAIR_A\n"
        "__all__ = ['used', 'recursive', 'UNUSED']\n",
        encoding="utf-8",
    )
    assert unused_definitions([pkg / "mod.py"]) == ["mod.recursive", "mod.UNUSED", "mod.PAIR_B", "mod.TYPED"]
