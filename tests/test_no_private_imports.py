"""No ``src/kiqa`` module uses another module's private (``_name``) names,
whether it imports them or reads them off the module. A name that two
modules need is part of a public interface; ``fileio`` holds the file
helpers that several modules share."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "kiqa").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(files) -> list[str]:
    """Sorted ``<module>: <name>`` for each private name that a module imports
    from another kiqa module or reads as an attribute of one."""
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()  # local names bound to kiqa modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "kiqa"):
                binds_modules = node.module in (None, "kiqa")  # `from . import kb`, `from kiqa import kb`
                for alias in node.names:
                    if _is_private(alias.name):
                        found.append(f"{path.stem}: {alias.name}")
                    elif binds_modules:
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names if alias.name.startswith("kiqa.") and alias.asname)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _is_private(node.attr)):
                found.append(f"{path.stem}: {node.value.id}.{node.attr}")
    return sorted(found)


def test_no_module_uses_another_modules_private_names():
    assert private_uses(SOURCES) == []


def test_private_use_is_flagged(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import json\n"
        "import kiqa.encoder as enc\n"
        "from . import kb, textmodel as tm\n"
        "from .fileio import _tmp, read_utf8\n"
        "from kiqa.cli import _SCHEMA\n"
        "__all__ = ['_own']\n\n\n"
        "def _own():\n"
        "    return kb._read(), tm.__name__, tm._pad, enc._gelu, json._default_decoder, _own, read_utf8\n",
        encoding="utf-8",
    )
    assert private_uses([mod]) == ["mod: _SCHEMA", "mod: _tmp", "mod: enc._gelu", "mod: kb._read", "mod: tm._pad"]
