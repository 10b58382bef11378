"""A fixed reference workload that measures how fast the machine runs now."""

import time
import unicodedata

import numpy as np
from scipy.special import erf

_TEXT = "Kevin Durant played for Golden State. 凯文杜兰特效力于金州勇士. " * 40


def probe() -> int:
    """About 0.1 s of the kinds of work kiqa does: a per-character Python
    loop, elementwise float64 ufuncs, and small matmuls."""
    words = 0
    for _ in range(6):
        run = False
        for ch in _TEXT:
            word = unicodedata.category(ch)[0] in ("L", "N") and not 0x4E00 <= ord(ch) <= 0x9FFF
            words += word and not run
            run = word
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 40, 256))
    w = rng.normal(size=(256, 64)) * 0.05
    for _ in range(12):
        g = 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))
        h = g @ w
        e = np.exp(h - h.max(-1, keepdims=True))
        x = x * 0.999 + (e / e.sum(-1, keepdims=True)).sum() * 1e-9
    return words


def timings(n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t0)
    return out
