import json
import math
import os
import threading
from collections import defaultdict

import numpy as np
import pytest

from kiqa.encoder import param_views
from kiqa.kb import load_kb


def assert_no_child_process():
    """Fails unless this process has no child process, running or ended but
    not reaped; an ended one is reaped here."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    assert pid, "a child process is still running"
    raise AssertionError(f"child process {pid} ended (status {status}) but was not reaped")


def open_pipes() -> set[str] | None:
    """This process's descriptors open on a pipe, each as "fd -> pipe:[inode]";
    None where /proc does not list them."""
    try:
        fds = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return None
    pipes = set()
    for fd in fds:
        try:
            link = os.readlink(f"/proc/self/fd/{fd}")
        except FileNotFoundError:  # the listing's own descriptor, closed since
            continue
        if link.startswith("pipe:"):
            pipes.add(f"{fd} -> {link}")
    return pipes


@pytest.fixture(autouse=True)
def no_thread_child_process_or_pipe_left():
    """Fails a test that leaves a thread it started alive, leaves a child
    process running or unreaped, such as one that ``predict_spans`` forks,
    or leaves a pipe descriptor open, such as the read end of a child's
    result pipe. The pipe check needs /proc."""
    before = set(threading.enumerate())
    pipes = open_pipes()
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    assert not left, f"threads left alive: {left}"
    assert_no_child_process()
    if pipes is not None:
        left = sorted(open_pipes() - pipes)
        assert not left, f"pipes left open: {left}"


class ProcessLog:
    """Tab-separated lines that a test's patched functions append to one
    file, each tagged with the pid of the process that ran it: the calling
    process or a child that ``predict_spans`` forked, whose memory the test
    cannot read. A line goes out in one write to a file opened for
    appending, so the lines of several processes do not interleave."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def clear(self):
        self.path.write_text("")

    def add(self, *fields):
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write("\t".join(map(str, (os.getpid(),) + fields)) + "\n")

    def by_process(self) -> dict[int, list[list[str]]]:
        """Each process's lines, in the order it wrote them, without the pid."""
        lines = defaultdict(list)
        for line in self.path.read_text(encoding="utf-8").splitlines():
            pid, *fields = line.split("\t")
            lines[int(pid)].append(fields)
        return dict(lines)


def ce_oracle(logits, target):
    """Straight-line softmax cross-entropy for one row."""
    mx = max(logits)
    denom = sum(math.exp(x - mx) for x in logits)
    return -(logits[target] - mx - math.log(denom))


def zeroed_grads(params):
    """Gradient views of a new zeroed buffer laid out as ``params.flat``, for
    ``loss_and_grad(..., grads=...)``."""
    return param_views(params.config, np.zeros_like(params.flat))


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


ENTITIES = [
    {"id": "Q1", "forms": {"en": "Kevin Durant", "zh": "凯文杜兰特"}},
    {"id": "Q2", "forms": {"en": "Basketball Player", "zh": "篮球运动员"}},
    {"id": "Q3", "forms": {"en": "Golden State", "zh": "金州勇士"}},
    {"id": "Q4", "forms": {"en": "Texas"}},
]

RELATIONS = [
    {"id": "P1", "forms": {"en": "is a", "zh": "是"}},
    {"id": "P2", "forms": {"en": "played for", "zh": "效力于"}},
]

TRIPLES = [
    {"h": "Q1", "r": "P1", "t": "Q2"},
    {"h": "Q1", "r": "P2", "t": "Q3"},
    {"h": "Q1", "r": "P2", "t": "Q4"},
]


@pytest.fixture
def kb_files(tmp_path):
    paths = (tmp_path / "entities.jsonl", tmp_path / "relations.jsonl", tmp_path / "triples.jsonl")
    write_jsonl(paths[0], ENTITIES)
    write_jsonl(paths[1], RELATIONS)
    write_jsonl(paths[2], TRIPLES)
    return paths


@pytest.fixture
def tiny_kb(kb_files):
    return load_kb(*kb_files)
