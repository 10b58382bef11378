"""Compact transformer encoder with exact analytic gradients.

Post-layer-norm blocks, GELU feed-forward, learned absolute position and
segment embeddings, an MLM head tied to the token embedding, and a linear
span head. Everything runs in float64 numpy; forward and backward passes are
written out by hand so gradients can be checked coordinate-by-coordinate
against finite differences. A step's large intermediates are written in place
into arrays it already owns, in the operation order of the straight-line
formula, so every result is bitwise that of the plain numpy expression.

A training step computes the last layer only where its loss head reads:
the masked slots of an entity-completion batch, the context positions of a
span batch. Q/K/V and attention run at every position, since every row is
a key; after that each op (output projection, residual, layer norms, FFN,
dropout) works within one row, so the rows no loss reads are skipped in the
forward and the backward. The result is exact in real arithmetic; only the
weight- and bias-gradient sums run over fewer rows and round differently.

``forward`` runs every batch whole. Its memory grows with B * L * L, so the
caller sizes each batch: inference batches are capped by a token budget
where ``evaluation.predict_spans`` builds them.

Parameter layout: ``EncoderParams.tensors`` are views into one float64
buffer, ``EncoderParams.flat``, packed end to end in sorted-name order
(``param_layout``). That is the order a checkpoint writes, so a checkpoint
body is that buffer's bytes. A training run keeps its gradients and AdamW
moments in buffers of the same layout (``param_views``).

Workspace rule: every forward takes a ``Workspace``, and from it every array
whose size grows with the batch: (B, L, d) activations and their gradients,
(N, d_ff) FFN arrays, (B, heads, L, L) scores, MLM and span logits, dropout
draws, the last layer's scatter target and the weight-gradient products. A
training run keeps one workspace; inference keeps one per process that
runs batches, for one ``predict_spans`` call. Each array is written with
``out=`` in the plain expression's operation order, so its values are
bitwise those of a fresh array, and a call after the first few maps no new
memory. Keys
name their layer only when the forward keeps a cache for a backward.

Thread rule: a training run on two or more CPUs keeps one ``Helper``
thread, which its workspace carries; inference has none. Only the thread
that made a workspace calls ``take``; it hands the helper the arrays a task
reads and writes. A training step with at least two examples and
``_SPLIT_TOKENS`` padded tokens splits: it runs the embedding, every layer
below the last (its forward and its whole input-gradient chain) and the
last layer's Q/K/V, scores, softmax, PV and their backward as two batch
halves (``_halves``), examples [0, B // 2) on the calling thread and
[B // 2, B) on the helper, each writing its rows of whole arrays. Any other
step runs whole on the calling thread and hands the helper nothing. A
stacked (B, ...) matmul is one BLAS call per example, so a half gets the
bits of the whole batch. Batch reductions and gathered rows never split: the
weight, bias and layer-norm gradients, the embedding scatters, the loss
heads, the dropout draws (at whole shape, in layer order) and the last
layer's ops at the rows its loss reads. A 2-D product changes bits when its
rows are cut: in 207 of 600 random cuts with a piece under 4 rows, and for
dy @ W.T in 134 of 597 with both pieces of 4 rows or more (2 CPUs, OpenBLAS,
1 thread). Each gradient tensor gets its additions on one thread, in the
one-thread order: in a split step the helper forms the last layer's
gathered-row gradients, the MLM head's product and the ``tok_emb`` scatter
while the calling thread forms the input gradients, and after each layer's
halves both threads take that layer's tasks from one deque. Every value is
bitwise that of one thread. The calling thread waits for the helper after
each pair of halves, before a layer below rewrites a buffer a task reads,
and before ``loss_and_grad`` returns; a task's exception is raised on the
calling thread.

GELU kernel rule: Phi(x) = 0.5 * (1 + erf(x / sqrt 2)) is bitwise that of
``scipy.special.erf``. Where |x / sqrt 2| <= 1, erf is Cephes' rational,
which scipy evaluates there, written as whole-array numpy passes in its
operation order; only the elements beyond go to scipy. On fresh data it
takes about 0.4 of scipy's time: 95 against 225 us on 120 x 256 inputs
(2 CPUs, 1 BLAS thread). GELU runs on the thread that runs its segment:
splitting its rows with the helper lost below about 180 rows and won no
training step.
"""

from __future__ import annotations

import collections
import json
import math
import queue
import sys
import threading
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import erf

from .errors import (
    ArtifactMismatchError,
    ConfigError,
    GoldPositionMaskedError,
    NoMaskedPositionsError,
    NonFiniteError,
)
from .fileio import atomic_write

_NEG = -1e9  # additive attention bias for padded keys; underflows to exactly 0 after softmax


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    max_len: int = 384
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.vocab_size, self.n_layers, self.n_heads, self.d_model, self.d_ff, self.max_len) < 1:
            raise ConfigError("all model dimensions must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(eq=False)
class EncoderParams:
    """The model's tensors, each a view into ``flat``: one float64 buffer laid
    out by ``param_layout``. Without ``flat`` every tensor starts at zero.
    Write a tensor in place (``t[...] = x``, ``t += x``); binding a new array
    to a name detaches it from the buffer, and ``save_checkpoint`` refuses."""

    config: ModelConfig
    flat: np.ndarray | None = None
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat is None:
            self.flat = np.zeros(param_layout(self.config)[-1][3])
        self.tensors = param_views(self.config, self.flat)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.config, self.flat.copy())


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    v, d, ff = config.vocab_size, config.d_model, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, d),
        "pos_emb": (config.max_len, d),
        "seg_emb": (2, d),
        "mlm_bias": (v,),
        "qa_ws": (d,),
        "qa_bs": (),
        "qa_we": (d,),
        "qa_be": (),
    }
    for i in range(config.n_layers):
        p = f"l{i}."
        shapes.update(
            {
                p + "wq": (d, d), p + "bq": (d,),
                p + "wk": (d, d), p + "bk": (d,),
                p + "wv": (d, d), p + "bv": (d,),
                p + "wo": (d, d), p + "bo": (d,),
                p + "ln1_g": (d,), p + "ln1_b": (d,),
                p + "w1": (d, ff), p + "b1": (ff,),
                p + "w2": (ff, d), p + "b2": (d,),
                p + "ln2_g": (d,), p + "ln2_b": (d,),
            }
        )
    return shapes


def param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int, int]]:
    """(name, shape, start, stop) of each tensor in a flat parameter buffer:
    sorted by name and packed end to end, the order of a checkpoint body."""
    shapes = param_shapes(config)
    layout, start = [], 0
    for name in sorted(shapes):
        stop = start + math.prod(shapes[name])
        layout.append((name, shapes[name], start, stop))
        start = stop
    return layout


def param_views(config: ModelConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each tensor of ``param_layout`` as a view into ``flat``, a contiguous
    float64 buffer of the layout's size; the 0-d span-head biases too."""
    layout = param_layout(config)
    if flat.dtype != np.float64 or flat.shape != (layout[-1][3],) or not flat.flags.c_contiguous:
        raise ValueError(f"need a contiguous float64 buffer of {layout[-1][3]} elements, got {flat.dtype} {flat.shape}")
    return {name: flat[start:stop].reshape(shape) for name, shape, start, stop in layout}


_MATRIX_KEYS = ("tok_emb", "pos_emb", "seg_emb", "wq", "wk", "wv", "wo", "w1", "w2", "qa_ws", "qa_we")


def init_params(config: ModelConfig, seed: int) -> EncoderParams:
    """normal(0, 0.02) weights, zero biases, unit layer-norm gains; seeded.
    Tensors are drawn in ``param_shapes`` order."""
    rng = np.random.default_rng(seed)
    params = EncoderParams(config)
    for name, shape in param_shapes(config).items():
        leaf = name.split(".")[-1]
        if leaf in _MATRIX_KEYS:
            params.tensors[name][...] = rng.normal(0.0, 0.02, size=shape)
        elif leaf in ("ln1_g", "ln2_g"):
            params.tensors[name][...] = 1.0
    return params


class Helper:
    """One thread beside the calling thread, for one training run. ``submit``
    queues a task, ``wait`` returns once every task queued before it has run
    and raises the first exception any of them raised; the tasks after a
    failed one, up to that ``wait``, are skipped. A task reads and writes only
    the arrays it is handed, takes nothing from a ``Workspace`` and calls no
    public kiqa function. Use it as a context manager: the thread ends,
    after the tasks already queued, however the block is left."""

    _FENCE = object()

    def __init__(self):
        self._tasks = queue.SimpleQueue()
        self._done = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name="kiqa-helper", daemon=True)

    def __enter__(self) -> "Helper":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tasks.put(None)
        self._thread.join()

    def submit(self, fn, *args) -> None:
        self._tasks.put((fn, args))

    def wait(self) -> None:
        self._tasks.put(self._FENCE)
        error = self._done.get()
        if error is not None:
            raise error

    def _run(self) -> None:
        error = None
        while (task := self._tasks.get()) is not None:
            if task is self._FENCE:
                self._done.put(error)
                error = None
            elif error is None:
                fn, args = task
                try:
                    fn(*args)
                except BaseException as exc:  # raised on the calling thread by its next wait
                    error = exc


class Workspace:
    """The encoder's one allocator: arrays reused from call to call, by key.
    One per training run, one per inference process and ``predict_spans``
    call; never shared between threads.

    ``take(key, shape, dtype)`` returns the first prod(shape) elements of the
    key's buffer, which is replaced by a larger one when a batch first needs
    more. A key is always taken with one dtype, float64 unless named.
    A call takes a key at most once while its array is still read, and the
    next call writes over it, results included. The forward's keys name their
    layer only when it keeps a cache for the backward; without one the layers
    share keys, as a layer reads the layer below's output (in Q/K/V and the
    first residual) before it writes its own. The backward's keys (``b.``)
    serve every layer, but for the input gradient a layer forms, whose key
    alternates between adjacent layers: a layer reads the gradient it gets
    from the layer above before it writes any of them, and with a helper
    the calling thread waits for it before rewriting a key one of its tasks
    reads (see ``_backward_to_params``).

    A training run's workspace may carry that run's ``Helper``, which only a
    step split into batch halves uses (see the module docstring). Only the
    thread that made the workspace calls ``take``; it hands the helper the
    arrays a task needs. A split step takes each array whole, and each half
    writes its own examples' rows of it; the halves of one segment share no
    row."""

    def __init__(self, helper: Helper | None = None):
        self._buffers: dict[str, np.ndarray] = {}
        self.helper = helper

    def take(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < n:
            buf = self._buffers[key] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


def _hand_off(helper, fn, *args):
    """fn(*args) on the step's helper, or here when it has none."""
    if helper is None:
        fn(*args)
    else:
        helper.submit(fn, *args)


def _join(helper):
    """Wait until the step's helper, if any, has run every task handed to it."""
    if helper is not None:
        helper.wait()


# Padded tokens (B * L) from which a training step with a helper and two or
# more examples runs its per-example work as two batch halves (see
# ``_halves``); a smaller step runs whole on one thread. Median
# ``loss_and_grad`` time whole -> split, best of two runs of 600 steps each
# in one process (d_model 64, d_ff 256, 2 layers, dropout 0.1, vocabulary
# 500, 2 CPUs, 1 BLAS thread): entity completion at 64 tokens 1.03 -> 1.23 ms,
# 96 1.28 -> 1.34, 120 1.65 -> 1.54, 216 2.40 -> 1.80, 312 3.17 -> 2.27;
# span at 64 tokens 1.15 -> 1.31, 96 1.53 -> 1.55, 128 1.89 -> 1.73, 336
# 6.01 -> 4.45.
_SPLIT_TOKENS = 120


def _halves(helper, B, fn, *args, meanwhile=None):
    """fn(s, *args) over examples s of a batch of B, where fn reads and
    writes only examples s of its batch-sized arrays. Without a helper it
    runs once here over all B examples; with one, over [B // 2, B) on the
    helper and [0, B // 2) here, and both halves are done on return.
    ``meanwhile()``, if given, runs here as well, on arrays fn does not
    touch: after fn, or with a helper while the helper starts its half.
    Returns this thread's fn result."""
    if helper is None:
        out = fn(slice(0, B), *args)
        if meanwhile is not None:
            meanwhile()
        return out
    half = B // 2
    helper.submit(fn, slice(half, B), *args)
    try:
        if meanwhile is not None:
            meanwhile()
        return fn(slice(0, half), *args)
    finally:
        helper.wait()


def _run_segments(s, segments):
    for fn, *args in segments:
        fn(s, *args)


def _collect(s, chain, *args):
    """The parameter-gradient tasks (fn, *args) that the input-gradient
    chain chain(s, *args) yields, once it has run at examples s. A task
    reads whole arrays, so it needs both halves' rows: it runs after the
    join, and each half yields the same tasks."""
    return list(chain(s, *args))


def _share(helper, tasks):
    """Runs tasks (fn, *args) on this thread and the step's helper, if any:
    each thread pops the next task from one deque, whose pops are
    thread-safe, until none is left. Each task writes tensors no other task
    writes, so which thread runs it changes no value. The caller joins."""
    tasks = collections.deque(tasks)
    if helper is not None:
        helper.submit(_run_tasks, tasks)
    _run_tasks(tasks)


def _run_tasks(tasks):
    while tasks:
        try:
            fn, *args = tasks.popleft()
        except IndexError:  # the other thread took the last one
            return
        fn(*args)


# ---------------------------------------------------------------- primitives

_LN_EPS = 1e-5
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _affine(x, w, b, out):
    """x @ w + b, with the bias added into the product, in out."""
    y = np.matmul(x, w, out=out)
    y += b
    return y


def _row_mean(x):
    """x.mean(-1, keepdims=True), bit for bit, without numpy's Python-level
    wrapper: the same sum, divided by the row length."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _layer_norm(x, g, b, xhat, inv, out):
    """g * xhat + b in out, keeping xhat and the inverse deviation inv, (..., 1)."""
    mu = _row_mean(x)
    np.subtract(x, mu, out=xhat)  # centred here, scaled to xhat below
    np.multiply(xhat, xhat, out=out)
    var = _row_mean(out)
    np.divide(1.0, np.sqrt(var + _LN_EPS), out=inv)
    xhat *= inv
    np.multiply(g, xhat, out=out)
    out += b
    return out


def _layer_norm_backward(dy, g, xhat, inv, dx, tmp):
    """dx of _layer_norm with gain g, in dx; tmp is scratch of dy's shape."""
    np.multiply(dy, g, out=dx)
    m1 = _row_mean(dx)
    np.multiply(dx, xhat, out=tmp)
    m2 = _row_mean(tmp)
    dx -= m1
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx


def _layer_norm_param_grads(dy, xhat, tmp, grad_g, grad_b):
    """Adds the layer norm's gain and bias grads, forming dy * xhat in tmp."""
    np.multiply(dy, xhat, out=tmp)
    grad_g += tmp.sum(axis=tuple(range(dy.ndim - 1)))
    grad_b += dy.sum(axis=tuple(range(dy.ndim - 1)))


def _linear_backward(dy, w, out):
    """dx of y = x @ w + b, in out."""
    return np.matmul(dy, w.T, out=out)


def _linear_param_grads(x, dy, gw, grad_w, grad_b):
    """Adds x.T @ dy, formed in gw, to grad_w and dy's row sum to grad_b."""
    grad_w += np.matmul(x.reshape(-1, x.shape[-1]).T, dy.reshape(-1, dy.shape[-1]), out=gw)
    grad_b += dy.sum(axis=tuple(range(dy.ndim - 1)))


# Cephes' erf (ndtr.c; Moshier, "Methods and Programs for Mathematical
# Functions", 1989) for |u| <= 1: u * T(z) / U(z), z = u * u, with U's
# leading coefficient 1. scipy.special.erf evaluates exactly this there.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)


# Elements per block of _gelu's tail path: its index array holds at most
# this many intp, 64 kB, which stays below glibc's default mmap threshold
# (128 kB), so the heap serves it call after call without mapping new pages.
_TAIL_BLOCK = 8192


def _gelu(x, phi, y, tmp, mask):
    """GELU(x) = x * phi in y, and phi = Phi(x) = 0.5 * (1 + erf(x / sqrt 2)),
    the standard normal CDF, which _gelu_grad reuses; tmp is float and mask
    bool scratch of x's shape. Bitwise as with scipy's erf: where |u| <= 1,
    u = x / sqrt 2, erf(u) is Cephes' rational as whole-array passes in its
    operation order (Horner steps for T, (z + U0) * z + U1 ... for U, then
    (u * T) / U). Only the elements beyond, Cephes' 1 - erfc branch, whose
    exp numpy's does not match, go to scipy: marked in mask, then gathered
    into tmp and scattered back by flat index, _TAIL_BLOCK elements at a
    time. fl(u * u) > 1 exactly when |u| > 1, and a NaN fails that test and
    stays NaN."""
    u = np.divide(x, _SQRT2, out=tmp)
    with np.errstate(over="ignore", invalid="ignore"):  # only at the tail, whose values scipy's replace
        z = np.multiply(u, u, out=y)
        tail = np.fmax.reduce(z, axis=None, initial=0.0) > 1.0
        p = np.multiply(z, _ERF_T[0], out=phi)
        p += _ERF_T[1]
        for c in _ERF_T[2:]:
            p *= z
            p += c
        p *= u
        q = np.add(z, _ERF_U[0], out=tmp)  # u is read for the last time above
        for c in _ERF_U[1:]:
            q *= z
            q += c
        p /= q
    if tail:
        marked = np.greater(z, 1.0, out=mask).reshape(-1)
        values = tmp.reshape(-1)  # free since the division
        for lo in range(0, marked.size, _TAIL_BLOCK):
            at = np.flatnonzero(marked[lo : lo + _TAIL_BLOCK])
            if at.size:
                at += lo
                v = np.take(x, at, out=values[: at.size], mode="clip")
                v /= _SQRT2
                np.put(phi, at, erf(v, out=v))
    phi += 1.0
    phi *= 0.5
    np.multiply(x, phi, out=y)
    return y, phi


def _gelu_grad(dy, x, phi, out):
    """dy * GELU'(x) in out, given phi = Phi(x) from _gelu."""
    np.multiply(-0.5, x, out=out)
    out *= x
    np.exp(out, out=out)
    out *= x
    out /= _SQRT_2PI
    out += phi
    out *= dy
    return out


def _softmax_last(x):
    """Softmax over the last axis, written over x, which the caller owns."""
    x -= x.max(-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(-1, keepdims=True)
    return x


def _gather(x, rows, ws, key):
    """Rows ``rows`` of x viewed as (B * L, d), in ws[key]. The rows are
    range-checked by the caller, so ``mode="clip"`` changes nothing and spares
    np.take its buffered copy."""
    flat = x.reshape(-1, x.shape[-1])
    return np.take(flat, rows, axis=0, out=ws.take(key, (len(rows), flat.shape[1])), mode="clip")


def _dropout_draw(p, rng, shape, ws, key, at=None):
    """Dropout's uniform draws, in ws[key], which ``_dropout`` turns into its
    keep mask; None without an rng. They are drawn at ``shape``, the whole
    (B, L, d) tensor's, and gathered at flat rows ``at`` when the layer
    computes only those rows, so the RNG stream and every mask entry do not
    depend on the rows computed."""
    if rng is None or p <= 0.0:
        return None
    draw = rng.random(out=ws.take(key if at is None else "draw", shape))
    return draw if at is None else _gather(draw, at, ws, key)


def _dropout(x, keep, p):
    """x times dropout's scaled keep mask, in place; the mask is formed over
    keep's draws: 1 / (1 - p) where a draw is at least p, else 0."""
    np.greater_equal(keep, p, out=keep)  # 1.0 where kept
    keep /= 1.0 - p
    x *= keep


def _dropout_backward(dy, keep, out, s):
    """dy * keep at rows s, in out; without a mask, dy. Returns the whole array."""
    if keep is None:
        return dy
    np.multiply(dy[s], keep[s], out=out[s])
    return out


def _split_heads(x, n_heads):
    B, L, d = x.shape
    return x.reshape(B, L, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x, out):
    """(B, heads, L, dh) x copied into out, (B, L, heads * dh)."""
    B, nh, L, dh = x.shape
    np.copyto(out.reshape(B, L, nh, dh), x.transpose(0, 2, 1, 3))
    return out


# ------------------------------------------------------------------- forward


def _check_inputs(params: EncoderParams, input_ids, segment_ids, attention_mask, positions=None):
    cfg = params.config
    ids = np.asarray(input_ids)
    segs = np.asarray(segment_ids)
    mask = np.asarray(attention_mask, dtype=np.float64)
    if ids.ndim != 2:
        raise ValueError(f"input_ids must be (batch, len), got shape {ids.shape}")
    if ids.shape != segs.shape or ids.shape != mask.shape:
        raise ValueError("input_ids, segment_ids and attention_mask shapes must agree")
    if ids.shape[1] > cfg.max_len:
        raise ValueError(f"sequence length {ids.shape[1]} exceeds max_len {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range")
    if segs.min() < 0 or segs.max() > 1:
        raise ValueError("segment id out of range")
    if positions is None:
        return ids, segs, mask, None
    rows, cols = (np.asarray(a, dtype=np.int64) for a in positions)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise ValueError("positions must be two 1-d index arrays of one length")
    if rows.size and not (0 <= rows.min() <= rows.max() < ids.shape[0] and 0 <= cols.min() <= cols.max() < ids.shape[1]):
        raise ValueError("position out of range")
    return ids, segs, mask, (rows, cols)


def _attention_arrays(ws, k, shape, nh):
    """A layer's attention arrays; "qh", "kh" and "vh" view Q, K and V by head."""
    B, L, d = shape
    sizes = {"q": shape, "k": shape, "v": shape, "probs": (B, nh, L, L), "pv": (B, nh, L, d // nh), "ctx": shape}
    a = {name: ws.take(k + name, size) for name, size in sizes.items()}
    for n in "qkv":
        a[n + "h"] = _split_heads(a[n], nh)
    return a


def _post_attention_arrays(ws, k, rows, d, ff):
    """A layer's arrays after the attention, at ``rows`` leading dims."""
    widths = {"o": d, "ln1.xhat": d, "ln1.inv": 1, "ln1.out": d, "1": ff, "gelu.phi": ff, "gelu.y": ff, "2": d,
              "ln2.xhat": d, "ln2.inv": 1, "ln2.out": d}
    a = {name: ws.take(k + name, rows + (n,)) for name, n in widths.items()}
    a["gelu.tmp"] = ws.take("gelu.tmp", rows + (ff,))  # read only inside _gelu: one key serves every layer
    a["gelu.mask"] = ws.take("gelu.mask", rows + (ff,), bool)  # _gelu's tail marks: one key too
    return a


def _embed(s, t, ids, segs, keep, p_drop, x, seg_rows):
    """Token + position + segment embeddings of examples s, with dropout, in x."""
    xs = np.take(t["tok_emb"], ids[s], axis=0, out=x[s], mode="clip")
    xs += t["pos_emb"][: ids.shape[1]][None, :, :]
    xs += np.take(t["seg_emb"], segs[s], axis=0, out=seg_rows[s], mode="clip")
    if keep is not None:
        _dropout(xs, keep[s], p_drop)


def _attention(s, t, p, h, key_bias, scale, a):
    """Layer p's Q/K/V, scores, softmax and PV of examples s, into a's arrays."""
    for n in "qkv":
        _affine(h[s], t[p + "w" + n], t[p + "b" + n], a[n][s])
    qh, kh, vh = a["qh"][s], a["kh"][s], a["vh"][s]
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2), out=a["probs"][s])
    scores *= scale
    scores += key_bias[s]
    probs = _softmax_last(scores)
    _merge_heads(np.matmul(probs, vh, out=a["pv"][s]), a["ctx"][s])


def _post_attention(s, t, p, ctx, h, keep_a, keep_f, p_drop, a):
    """Layer p after its attention, at rows s of ctx, h and a's arrays: output
    projection, dropout, residual, LN1, FFN with GELU, dropout, residual and
    LN2, each within one row."""
    r1 = _affine(ctx[s], t[p + "wo"], t[p + "bo"], a["o"][s])
    if keep_a is not None:
        _dropout(r1, keep_a[s], p_drop)
    r1 += h[s]
    n1 = _layer_norm(r1, t[p + "ln1_g"], t[p + "ln1_b"], a["ln1.xhat"][s], a["ln1.inv"][s], a["ln1.out"][s])
    f1 = _affine(n1, t[p + "w1"], t[p + "b1"], a["1"][s])
    g1, _ = _gelu(f1, a["gelu.phi"][s], a["gelu.y"][s], a["gelu.tmp"][s], a["gelu.mask"][s])
    r2 = _affine(g1, t[p + "w2"], t[p + "b2"], a["2"][s])
    if keep_f is not None:
        _dropout(r2, keep_f[s], p_drop)
    r2 += n1
    _layer_norm(r2, t[p + "ln2_g"], t[p + "ln2_b"], a["ln2.xhat"][s], a["ln2.inv"][s], a["ln2.out"][s])


def _layer(s, t, p, h, key_bias, scale, a, keep_a, keep_f, p_drop, post):
    """The whole of layer p at examples s."""
    _attention(s, t, p, h, key_bias, scale, a)
    _post_attention(s, t, p, a["ctx"], h, keep_a, keep_f, p_drop, post)


def forward(params: EncoderParams, input_ids, segment_ids, attention_mask, dropout_rng=None, positions=None, *,
            workspace: Workspace):
    """Hidden states (batch, len, d_model). PAD positions are excluded from
    attention via the mask; pass a dropout_rng only during training.

    The training form takes ``positions=(rows, cols)``, the positions a loss
    head reads; they may repeat. It returns the hidden states at those
    positions, shape (len(rows), d_model), and the cache the backward pass
    reads. Its last layer runs Q/K/V and attention at every position, and
    everything after the attention (output projection, dropout, residual,
    LN1, FFN+GELU, LN2) at the given rows only: each of those ops works
    within one row, so a row gets the same value as in the whole-layer
    formula. Dropout draws each mask at the whole (B, L, d) shape and
    gathers the rows, so the RNG stream is that of a whole-layer forward.
    Every batch-sized array, the returned ones included, is taken from
    ``workspace`` (see ``Workspace`` for its keys) and lives there until the
    workspace's next call. With a helper, a training step of two or more
    examples and ``_SPLIT_TOKENS`` padded tokens or more runs its
    per-example segments as two batch halves, and its cache keeps the helper
    for the backward; any other step runs whole on this thread alone (see
    the module docstring).

    The batch runs whole, with a (B, heads, L, L) score tensor per layer:
    the caller sizes it, as ``evaluation.predict_spans`` does by a token
    budget."""
    ids, segs, mask, positions = _check_inputs(params, input_ids, segment_ids, attention_mask, positions)
    ws = workspace
    cfg = params.config
    t = params.tensors
    nh = cfg.n_heads
    scale = 1.0 / math.sqrt(cfg.d_model // nh)
    B, L = ids.shape
    shape = (B, L, cfg.d_model)
    # The step's helper, if it splits into batch halves; a whole step runs on this thread alone.
    helper = ws.helper if positions is not None and B >= 2 and B * L >= _SPLIT_TOKENS else None
    # Flat (B * L) row of each read position; the ids and positions are range-checked, so "clip" clips nothing.
    at_rows = None if positions is None else positions[0] * L + positions[1]

    def key(i):
        return "l." if positions is None else f"l{i}."  # no cache: every layer takes one layer's keys

    def draw(i):
        """Appends layer i's dropout draws to ``drops``; the last layer's at the read rows."""
        at = at_rows if i == cfg.n_layers - 1 else None
        drops.append([_dropout_draw(cfg.dropout, dropout_rng, shape, ws, key(i) + n, at) for n in ("drop_a", "drop_f")])

    x = ws.take("emb", shape)
    drop0 = _dropout_draw(cfg.dropout, dropout_rng, shape, ws, "drop0")
    drops = []
    draw(0)
    key_bias = (1.0 - mask)[:, None, None, :] * _NEG  # (B,1,1,L)
    segments = [(_embed, t, ids, segs, drop0, cfg.dropout, x, ws.take("emb.seg", shape))]  # runs with layer 0
    layers = []
    h = x
    for i in range(cfg.n_layers):
        p, k = f"l{i}.", key(i)
        at = at_rows if i == cfg.n_layers - 1 else None
        a = _attention_arrays(ws, k, shape, nh)
        drop_a, drop_f = drops[i]
        # The draws stay in layer order; the next layer's run while the helper starts this layer's half.
        later = None if i == cfg.n_layers - 1 else (lambda: draw(i + 1))
        if at is None:
            post = _post_attention_arrays(ws, k, (B, L), cfg.d_model, cfg.d_ff)
            segments.append((_layer, t, p, h, key_bias, scale, a, drop_a, drop_f, cfg.dropout, post))
            _halves(helper, B, _run_segments, segments, meanwhile=later)
            ctx = a["ctx"]
        else:
            segments.append((_attention, t, p, h, key_bias, scale, a))
            _halves(helper, B, _run_segments, segments, meanwhile=later)
            ctx = _gather(a["ctx"], at, ws, k + "ctx.at")
            post = _post_attention_arrays(ws, k, (len(at),), cfg.d_model, cfg.d_ff)
            _post_attention(slice(None), t, p, ctx, _gather(h, at, ws, k + "h.at"), drop_a, drop_f, cfg.dropout, post)
        if positions is not None:
            layers.append({"h_in": h, "qh": a["qh"], "kh": a["kh"], "vh": a["vh"], "probs": a["probs"], "ctx": ctx,
                           "drop_a": drop_a, "ln1": (post["ln1.xhat"], post["ln1.inv"]), "n1": post["ln1.out"],
                           "f1": post["1"], "phi": post["gelu.phi"], "g1": post["gelu.y"], "drop_f": drop_f,
                           "ln2": (post["ln2.xhat"], post["ln2.inv"])})
        h = post["ln2.out"]
        segments = []

    if positions is None:
        return h
    return h, {"ids": ids, "segs": segs, "drop0": drop0, "layers": layers, "scale": scale, "at_rows": at_rows,
               "helper": helper}


def _post_attention_grads(ws, rows, d, ff, c):
    """The backward's arrays for a layer's ops after the attention, at
    ``rows`` leading dims: ``b.`` keys that every layer shares."""
    widths = {"ln2.gtmp": d, "ln2.dx": d, "ln2.tmp": d, "dx2": ff, "gelu": ff, "dx1": d, "ln1.gtmp": d, "ln1.dx": d,
              "ln1.tmp": d, "dxo": d}
    b = {name: ws.take("b." + name, rows + (n,)) for name, n in widths.items()}
    for name in ("drop_f", "drop_a"):
        b[name] = None if c[name] is None else ws.take("b." + name, rows + (d,))
    for n, shape in (("2", (ff, d)), ("1", (d, ff)), ("o", (d, d))):
        b["gw" + n] = ws.take("b.gw" + n, shape)
    return b


def _attention_grads(ws, shape, nh, parity, scatter):
    """The backward's arrays for a layer's attention and Q/K/V. The input
    gradient goes to ``b.dh<parity>``: a layer's LN2 task reads the gradient
    the layer above formed, so adjacent layers take different keys."""
    B, L, d = shape
    heads = (B, nh, L, d // nh)
    sizes = {"dscores": (B, nh, L, L), "dprobs": (B, nh, L, L), "dqh": heads, "dkh": heads, "dvh": heads,
             "mergedq": shape, "mergedk": shape, "mergedv": shape, "dxk": shape, "dxv": shape}
    b = {name: ws.take("b." + name, size) for name, size in sizes.items()}
    b["dh"] = ws.take(f"b.dh{parity}", shape)
    b["scatter"] = ws.take("b.scatter", shape) if scatter else None
    for n in "qkv":
        b["gw" + n] = ws.take("b.gw" + n, (d, d))
    return b


def _post_attention_backward(s, t, grads, p, c, dy, b):
    """Layer p's input-gradient chain from dy, the gradient of its output, to
    ``b["dxo"]``, that of its attention output, and ``b["ln1.dx"]``, that of
    its first residual, at rows s; yields its parameter-gradient tasks."""
    xhat, inv = c["ln2"]
    yield _layer_norm_param_grads, dy, xhat, b["ln2.gtmp"], grads[p + "ln2_g"], grads[p + "ln2_b"]
    dr2 = b["ln2.dx"]
    _layer_norm_backward(dy[s], t[p + "ln2_g"], xhat[s], inv[s], dr2[s], b["ln2.tmp"][s])
    ddrop_f = _dropout_backward(dr2, c["drop_f"], b["drop_f"], s)
    yield _linear_param_grads, c["g1"], ddrop_f, b["gw2"], grads[p + "w2"], grads[p + "b2"]
    df1 = b["gelu"]
    _gelu_grad(_linear_backward(ddrop_f[s], t[p + "w2"], b["dx2"][s]), c["f1"][s], c["phi"][s], df1[s])
    yield _linear_param_grads, c["n1"], df1, b["gw1"], grads[p + "w1"], grads[p + "b1"]
    dn1 = b["dx1"]
    _linear_backward(df1[s], t[p + "w1"], dn1[s])
    dn1[s] += dr2[s]
    xhat, inv = c["ln1"]
    yield _layer_norm_param_grads, dn1, xhat, b["ln1.gtmp"], grads[p + "ln1_g"], grads[p + "ln1_b"]
    dr1 = b["ln1.dx"]
    _layer_norm_backward(dn1[s], t[p + "ln1_g"], xhat[s], inv[s], dr1[s], b["ln1.tmp"][s])
    dao = _dropout_backward(dr1, c["drop_a"], b["drop_a"], s)
    yield _linear_param_grads, c["ctx"], dao, b["gwo"], grads[p + "wo"], grads[p + "bo"]
    _linear_backward(dao[s], t[p + "wo"], b["dxo"][s])


def _attention_backward(s, t, grads, p, c, dctx, dr1, nh, scale, b):
    """Layer p's input-gradient chain from dctx, the gradient of its
    attention output, to ``b["dh"]``, that of its input, at examples s, adding
    dr1, the first residual's, unless it is None; yields the Q/K/V tasks."""
    dctx = _split_heads(dctx[s], nh)
    probs = c["probs"][s]
    # dprobs, until turned into dscores in place
    dscores = np.matmul(dctx, c["vh"][s].transpose(0, 1, 3, 2), out=b["dscores"][s])
    dscores -= np.multiply(dscores, probs, out=b["dprobs"][s]).sum(-1, keepdims=True)
    dscores *= probs
    dqh = np.matmul(dscores, c["kh"][s], out=b["dqh"][s])
    dqh *= scale
    dkh = np.matmul(dscores.transpose(0, 1, 3, 2), c["qh"][s], out=b["dkh"][s])
    dkh *= scale
    dvh = np.matmul(probs.transpose(0, 1, 3, 2), dctx, out=b["dvh"][s])
    for n, dhead, dx in zip("qkv", (dqh, dkh, dvh), (b["dh"], b["dxk"], b["dxv"])):
        _merge_heads(dhead, b["merged" + n][s])
        yield _linear_param_grads, c["h_in"], b["merged" + n], b["gw" + n], grads[p + "w" + n], grads[p + "b" + n]
        _linear_backward(b["merged" + n][s], t[p + "w" + n], dx[s])
    dh = b["dh"][s]
    dh += b["dxk"][s]  # ((dxq + dxk) + dxv) + dr1, summed in that order
    dh += b["dxv"][s]
    if dr1 is not None:
        dh += dr1[s]


def _layer_backward(s, t, grads, p, c, dy, nh, scale, b):
    """The whole of layer p's input-gradient chain at examples s."""
    yield from _post_attention_backward(s, t, grads, p, c, dy, b)
    yield from _attention_backward(s, t, grads, p, c, b["dxo"], b["ln1.dx"], nh, scale, b)


def _backward_to_params(params: EncoderParams, cache, dh, grads, ws):
    """Backprop dh, the gradient wrt the last layer's output at the cache's
    positions, through the stack into grads. The last layer's row gradients
    are scattered, with add, into whole (B, L, d) tensors before its
    attention backward; the layers below run at every position.

    The calling thread forms the input gradients, the critical path. Each
    layer's per-example input-gradient chain runs through ``_halves``, as
    two batch halves if the forward split the step, and returns the
    weight, bias and layer-norm gradient tasks it yields (``_collect``).
    They run after it, each over the whole batch, on this thread or shared
    with the step's helper (``_share``): a task cut at examples would change
    a sum's bits. The last layer's gathered-row tasks and the embedding's
    ``tok_emb`` scatter (after the MLM head's product) go to the helper, if
    the step has one, as they form; the gathered rows' scatters and the
    ``pos_emb`` sum and ``seg_emb`` rows run whole. Each gradient tensor
    gets its additions on one thread in the one-thread order. With a
    helper, this thread waits for it before a layer below rewrites the
    ``b.`` keys the tasks read, and before returning."""
    t = params.tensors
    cfg = params.config
    nh, d = cfg.n_heads, cfg.d_model
    shape = cache["ids"].shape + (d,)
    B = shape[0]
    helper = cache["helper"]
    at = cache["at_rows"]
    for i in reversed(range(cfg.n_layers)):
        p = f"l{i}."
        c = cache["layers"][i]
        b = _attention_grads(ws, shape, nh, i % 2, scatter=at is not None)
        if at is None:
            b.update(_post_attention_grads(ws, shape[:2], d, cfg.d_ff, c))
            tasks = _halves(helper, B, _collect, _layer_backward, t, grads, p, c, dh, nh, cache["scale"], b)
        else:
            rows = _post_attention_grads(ws, (len(at),), d, cfg.d_ff, c)
            for task in _post_attention_backward(slice(None), t, grads, p, c, dh, rows):
                _hand_off(helper, *task)
            b["scatter"].fill(0.0)
            np.add.at(b["scatter"].reshape(-1, d), at, rows["dxo"])
            tasks = _halves(helper, B, _collect, _attention_backward, t, grads, p, c, b["scatter"], None, nh,
                            cache["scale"], b)
        dh = b["dh"]
        if at is not None:
            np.add.at(dh.reshape(-1, d), at, rows["ln1.dx"])
            at = None  # the layers below ran at every position
        if i > 0:
            _share(helper, tasks)
            _join(helper)  # before the layer below writes the b. keys this layer's tasks read

    if cache["drop0"] is not None:
        dh = np.multiply(dh, cache["drop0"], out=ws.take("b.drop0", shape))
    _hand_off(helper, np.add.at, grads["tok_emb"], cache["ids"], dh)  # after the MLM head's product, on one thread
    _share(helper, [(_pos_grads, grads["pos_emb"], dh), (_seg_grads, grads["seg_emb"], cache["segs"], dh), *tasks])
    _join(helper)


def _pos_grads(grad, dh):
    grad[: dh.shape[1]] += dh.sum(0)


def _seg_grads(grad, segs, dh):
    """Adds dh's rows into grad's row of their segment id. The buffer is
    zeroed each step and this is the tensor's only addition, so one reduce
    per id over its rows in order gives the bits of np.add.at."""
    for k, row in enumerate(grad):
        row += np.add.reduce(dh[segs == k], axis=0)


# ---------------------------------------------------------------- loss heads


def mlm_logits(params: EncoderParams, sel, ws):
    """Tied-embedding logits for gathered hidden rows ``sel`` of shape (M, d_model), in ws."""
    tok_emb = params.tensors["tok_emb"]
    logits = np.matmul(sel, tok_emb.T, out=ws.take("mlm.logits", (len(sel), len(tok_emb))))
    logits += params.tensors["mlm_bias"]
    return logits


def _mlm_param_grads(dlogits, sel, gw, grad_bias, grad_emb):
    """Adds the MLM head's bias grad and its tied-embedding product, formed in gw."""
    grad_bias += dlogits.sum(0)
    grad_emb += np.matmul(dlogits.T, sel, out=gw)


def qa_logits(params: EncoderParams, hidden):
    """Per-position start/end logits from the linear span head, as new arrays."""
    t = params.tensors
    start = hidden @ t["qa_ws"] + t["qa_bs"]
    end = hidden @ t["qa_we"] + t["qa_be"]
    return start, end


def cross_entropy(logits, targets, ws, key):
    """Per-row negative log-likelihood of ``targets`` under softmax(logits),
    and its gradient with respect to the logits (softmax minus one-hot).

    Classes excluded from a row carry -inf logits: they get probability 0 and
    gradient 0. The gradient is written in ws under ``key``.
    """
    logp = np.subtract(logits, logits.max(-1, keepdims=True), out=ws.take(key + ".logp", logits.shape))  # z, then logp
    dlogits = np.exp(logp, out=ws.take(key + ".dlogits", logits.shape))
    logp -= np.log(dlogits.sum(-1, keepdims=True))
    rows = np.arange(len(targets))
    np.exp(logp, out=dlogits)
    dlogits[rows, targets] -= 1.0
    return -logp[rows, targets], dlogits


@dataclass
class MLMBatch:
    input_ids: np.ndarray       # (B, L) int
    segment_ids: np.ndarray     # (B, L) int
    attention_mask: np.ndarray  # (B, L) 1.0 = token, 0.0 = pad
    mask_rows: np.ndarray       # (M,) sample index of each masked slot
    mask_cols: np.ndarray       # (M,) position of each masked slot
    target_ids: np.ndarray      # (M,)


@dataclass
class QABatch:
    input_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    start_gold: np.ndarray      # (B,) input positions
    end_gold: np.ndarray        # (B,)
    valid_mask: np.ndarray      # (B, L) bool, True where a span may start/end


def loss_and_grad(params: EncoderParams, batch, loss: str, dropout_rng=None, *, grads: dict[str, np.ndarray],
                  workspace: Workspace):
    """Scalar loss and its exact gradient for every parameter.

    loss="mlm" averages cross-entropy over the batch's masked positions
    (entity completion uses the same computation); loss="span" averages the
    half-sum of start and end cross-entropies over examples.

    The batch is checked before the forward. The forward then gets the
    positions the loss head reads, ``(mask_rows, mask_cols)`` for mlm and the
    ``valid_mask`` positions for span, and runs the last layer's
    post-attention ops at those rows only (see ``forward``). No other row's
    hidden state reaches the loss, so the value and gradients are those of
    the whole-layer formula in real arithmetic; the weight-gradient sums run
    over fewer rows, so they round differently.

    The gradient is added into ``grads``, name -> views of a zeroed buffer
    laid out as ``params.flat`` (see ``param_views``), which is returned.
    Batch-sized arrays come from ``workspace``. A training loop passes the
    same buffer and workspace at every step (see the module docstring).
    """
    ids = np.asarray(batch.input_ids)
    if loss == "mlm":
        rows = np.asarray(batch.mask_rows, dtype=np.int64)
        cols = np.asarray(batch.mask_cols, dtype=np.int64)
        targets = np.asarray(batch.target_ids, dtype=np.int64)
        M = rows.shape[0]
        if M == 0:
            raise NoMaskedPositionsError("batch has no masked positions")
        if targets.shape != rows.shape:
            raise ValueError("mask_rows, mask_cols and target_ids lengths must agree")
        positions = (rows, cols)
    elif loss == "span":
        valid = np.asarray(batch.valid_mask, dtype=bool)
        if valid.shape != ids.shape:
            raise ValueError("valid_mask shape must match input_ids")
        B = ids.shape[0]
        gold_s = np.asarray(batch.start_gold, dtype=np.int64)
        gold_e = np.asarray(batch.end_gold, dtype=np.int64)
        if not (valid[np.arange(B), gold_s].all() and valid[np.arange(B), gold_e].all()):
            raise GoldPositionMaskedError("gold span position outside the valid mask")
        positions = np.nonzero(valid)
    else:
        raise ValueError(f"unknown loss {loss!r}")

    sel, cache = forward(
        params, ids, batch.segment_ids, batch.attention_mask, dropout_rng=dropout_rng, positions=positions,
        workspace=workspace,
    )
    ws = workspace
    t = params.tensors
    if loss == "mlm":
        nll, dlogits = cross_entropy(mlm_logits(params, sel, ws), targets, ws, "ce")
        value = nll.mean()
        dlogits /= M
        _hand_off(cache["helper"], _mlm_param_grads, dlogits, sel, ws.take("mlm.gw", t["tok_emb"].shape),
                  grads["mlm_bias"], grads["tok_emb"])
        dsel = np.matmul(dlogits, t["tok_emb"], out=ws.take("mlm.dsel", sel.shape))
    else:
        start_logits, end_logits = logits = ws.take("qa.logits", (2,) + valid.shape)
        logits.fill(-np.inf)
        start_logits[positions], end_logits[positions] = qa_logits(params, sel)
        nll_s, dstart = cross_entropy(start_logits, gold_s, ws, "ce.s")  # both gradients are live at once
        nll_e, dend = cross_entropy(end_logits, gold_e, ws, "ce.e")
        value = (nll_s.sum() + nll_e.sum()) / (2.0 * B)
        dstart, dend = dstart[positions], dend[positions]
        for n, d in (("s", dstart), ("e", dend)):
            d /= 2.0 * B
            grads["qa_w" + n] += np.multiply(d[:, None], sel, out=ws.take("qa.tmp", sel.shape)).sum(0)
            grads["qa_b" + n] += d.sum()
        dsel = np.multiply(dstart[:, None], t["qa_ws"], out=ws.take("qa.dsel", sel.shape))
        dsel += np.multiply(dend[:, None], t["qa_we"], out=ws.take("qa.tmp", sel.shape))

    if not np.isfinite(value):
        raise NonFiniteError(f"{loss} loss is not finite")
    _backward_to_params(params, cache, dsel, grads, ws)
    return float(value), grads


# ---------------------------------------------------------------- checkpoint

_CKPT_MAGIC = b"KIQA-CKPT-v1\n"


def save_checkpoint(path, params: EncoderParams, meta: dict | None = None) -> None:
    """Versioned binary: one JSON header line, then raw little-endian float64
    buffers in sorted key order, which is ``params.flat`` byte for byte.
    Deterministic byte-for-byte, and written atomically: a failed save leaves
    any file already at ``path`` as it was. A tensor that no longer views its
    place in ``params.flat`` raises ValueError before anything is written."""
    layout = param_layout(params.config)
    base = params.flat.ctypes.data
    if params.tensors.keys() != {name for name, *_ in layout}:
        raise ValueError("the tensor names do not match the model config")
    for name, shape, start, _ in layout:
        t = params.tensors[name]
        if not (isinstance(t, np.ndarray) and t.dtype == np.float64 and t.shape == shape
                and t.flags.c_contiguous and t.ctypes.data == base + 8 * start):
            raise ValueError(f"tensor {name!r} is not a view of the parameter buffer")
    header = {
        "config": asdict(params.config),
        "meta": meta or {},
        "tensors": [[name, list(shape)] for name, shape, _, _ in layout],
    }
    with atomic_write(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8"))


def load_checkpoint(path) -> tuple[EncoderParams, dict]:
    """Read a ``save_checkpoint`` file; its body goes into the new parameter
    buffer with one ``readinto``. Every header tensor must match the config's
    shape, in layout order; a short body is named by the tensor it cuts."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _CKPT_MAGIC:
            raise ArtifactMismatchError(f"{path}: not a checkpoint file")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            config = ModelConfig(**header["config"])
            shapes = [(name, tuple(shape)) for name, shape in header["tensors"]]
            meta = header["meta"]
        except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSON and UTF-8 decoding
            raise ArtifactMismatchError(f"{path}: malformed checkpoint header ({exc!r})") from exc
        if not isinstance(meta, dict) or not all(isinstance(name, str) for name, _ in shapes):
            raise ArtifactMismatchError(f"{path}: malformed checkpoint header")
        layout = param_layout(config)
        expected = {name: shape for name, shape, _, _ in layout}
        for name, shape in shapes:
            if expected.get(name) != shape:
                raise ArtifactMismatchError(f"{path}: tensor {name!r} shape {shape} does not match config")
        missing = set(expected) - {name for name, _ in shapes}
        if missing:
            raise ArtifactMismatchError(f"{path}: missing tensors {sorted(missing)}")
        if [name for name, _ in shapes] != list(expected):
            raise ArtifactMismatchError(f"{path}: tensors not in sorted-name order")
        params = EncoderParams(config)
        got = fh.readinto(params.flat)
        if got != params.flat.nbytes:
            cut = next(name for name, _, _, stop in layout if 8 * stop > got)
            raise ArtifactMismatchError(f"{path}: truncated tensor {cut!r}")
        if fh.read(1):
            raise ArtifactMismatchError(f"{path}: trailing bytes after the last tensor")
    if sys.byteorder == "big":
        params.flat.byteswap(inplace=True)  # the body is little-endian
    return params, meta
