"""Artifact writes that never leave a half-written file at the target path."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", encoding: str | None = None):
    """Yield a new temp file beside ``path``, opened with ``mode`` ("w" or
    "wb"). If the block ends normally, the temp file replaces ``path`` in one
    rename; if it raises, the temp file is removed and ``path`` keeps what it
    held before, if anything."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
