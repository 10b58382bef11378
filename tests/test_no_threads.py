"""No ``src/kiqa`` module imports ``threading``, ``queue``,
``multiprocessing`` or ``concurrent``, at the top or inside a function: a
training run works on the thread that calls it, and
``evaluation.run_shares``, which forks its children itself, is the one way
the program runs work in other processes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "kiqa").glob("*.py"))
BANNED = {"threading", "queue", "multiprocessing", "concurrent"}


def thread_imports(files) -> list[str]:
    """Sorted ``<module>: <import>`` for each import of a banned module or
    of a name from one."""
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.extend(f"{path.stem}: {a.name}" for a in node.names if a.name.split(".")[0] in BANNED)
            elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] in BANNED:
                found.append(f"{path.stem}: {node.module}")
    return sorted(found)


def test_no_module_imports_threading_or_queue():
    assert thread_imports(SOURCES) == []


def test_thread_import_is_flagged(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import json, queue\n"
        "from . import threading as local\n\n\n"
        "def run():\n"
        "    import threading\n"
        "    from queue import SimpleQueue\n"
        "    from concurrent.futures import ProcessPoolExecutor\n"
        "    return threading, SimpleQueue, ProcessPoolExecutor, local, json\n",
        encoding="utf-8",
    )
    assert thread_imports([mod]) == ["mod: concurrent.futures", "mod: queue", "mod: queue", "mod: threading"]
