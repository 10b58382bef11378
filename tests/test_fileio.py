import os

import pytest

from kiqa import fileio
from kiqa.fileio import atomic_write


@pytest.fixture
def replaces(monkeypatch):
    """Every os.replace that fileio makes, as (source, target)."""
    calls, replace = [], os.replace

    def counting(src, dst):
        calls.append((src, dst))
        replace(src, dst)

    monkeypatch.setattr(fileio.os, "replace", counting)
    return calls


def _write(path, data, mode="wb"):
    with atomic_write(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
        fh.write(data)


def test_a_new_file_is_renamed_into_place(tmp_path, replaces):
    target = tmp_path / "artifact"
    _write(target, "first\n", "w")
    assert target.read_text(encoding="utf-8") == "first\n"
    assert len(replaces) == 1 and list(tmp_path.iterdir()) == [target]


def test_the_same_bytes_leave_the_file_untouched(tmp_path, replaces):
    target = tmp_path / "artifact"
    data = bytes(range(256)) * 5000  # over one read chunk
    target.write_bytes(data)
    before = os.stat(target)
    _write(target, data)
    after = os.stat(target)
    assert replaces == []
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert target.read_bytes() == data and list(tmp_path.iterdir()) == [target]  # the temp file is gone


@pytest.mark.parametrize("new", [b"earlier run\n" + b"x", b"earlier rum\n", b"", bytes(range(256)) * 5000])
def test_other_bytes_replace_the_file(tmp_path, replaces, new):
    """A longer, shorter or empty body, and one of the same size that differs
    in one byte, each replace the file."""
    target = tmp_path / "artifact"
    target.write_bytes(b"earlier run\n")
    _write(target, new)
    assert target.read_bytes() == new
    assert len(replaces) == 1 and list(tmp_path.iterdir()) == [target]


def test_a_raising_block_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, replaces):
    target = tmp_path / "artifact"
    target.write_bytes(b"earlier run\n")
    with pytest.raises(RuntimeError, match="write failed"):
        with atomic_write(target, "wb") as fh:
            fh.write(b"earlier run\n")
            raise RuntimeError("write failed")
    assert target.read_bytes() == b"earlier run\n"
    assert replaces == [] and list(tmp_path.iterdir()) == [target]


def test_a_symlink_to_the_same_bytes_is_replaced_by_a_file(tmp_path, replaces):
    """Only a regular file counts as holding the bytes already: a link is
    replaced, as before, and its target stays as it was."""
    source, target = tmp_path / "source", tmp_path / "artifact"
    source.write_bytes(b"body\n")
    target.symlink_to(source)
    _write(target, b"body\n")
    assert len(replaces) == 1 and not target.is_symlink()
    assert target.read_bytes() == source.read_bytes() == b"body\n"
