"""File access shared by every module: artifact writes that never leave a
half-written file at the target path, and UTF-8 and JSON Lines reads whose
errors name the file."""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


@contextmanager
def atomic_write(path, mode: str = "w", encoding: str | None = None):
    """Yield a new temp file beside ``path``, opened with ``mode`` ("w" or
    "wb"). If the block ends normally, the temp file replaces ``path`` in one
    rename, unless ``path`` is a regular file that already holds exactly its
    bytes: then ``path`` is left untouched, since a rename onto an existing
    file can cost tens of milliseconds. If the block raises, the temp file
    is removed and ``path`` keeps what it held before, if anything."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(16).hex()}.tmp")  # 128 random bits
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        if not _holds_same_bytes(path, tmp):
            os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _holds_same_bytes(path: Path, new: Path) -> bool:
    """Whether ``path`` is a regular file with exactly ``new``'s bytes:
    compared by size first, then by content."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return False
    if not stat.S_ISREG(st.st_mode) or st.st_size != os.stat(new).st_size:
        return False
    with open(path, "rb") as old_fh, open(new, "rb") as new_fh:
        while chunk := new_fh.read(1 << 20):
            if old_fh.read(len(chunk)) != chunk:
                return False
    return True


@contextmanager
def read_utf8(path, error: type[Exception]):
    """Yield ``path`` opened for reading as UTF-8 text. Bytes that are not
    UTF-8 raise ``error`` with a message that names the file, in place of a
    bare ``UnicodeDecodeError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_jsonl(path, error: type[Exception]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record) for each non-blank line of a UTF-8 JSON Lines
    file. A line that is not a JSON object raises ``error`` naming file and line."""
    with read_utf8(path, error) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}:{lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise error(f"{path}:{lineno}: record is not an object")
            yield lineno, rec
