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
training run keeps one workspace; inference keeps one per share of a
``predict_spans`` call (``evaluation.run_shares``). Each array is written with
``out=`` in the plain expression's operation order, so its values are
bitwise those of a fresh array, and a call after the first few maps no new
memory. A key is per layer only for an array the backward reads; every
other array takes a key that serves all layers (see ``Workspace``). A
training step runs on the thread that calls it, one layer after another.

GELU kernel rule: Phi(x) = 0.5 * (1 + erf(x / sqrt 2)) is bitwise that of
``scipy.special.erf``. Where |x / sqrt 2| <= 1, erf is Cephes' rational,
which scipy evaluates there, written as whole-array numpy passes in its
operation order; only the elements beyond go to scipy. On fresh data it
takes about 0.4 of scipy's time: 95 against 225 us on 120 x 256 inputs
(2 CPUs, 1 BLAS thread).
"""

from __future__ import annotations

import json
import math
import sys
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
_FFN_OUT = "ffn.out"  # workspace key of every layer's FFN output, and of the last layer's gathered input rows


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
        dims = (self.vocab_size, self.n_layers, self.n_heads, self.d_model, self.d_ff, self.max_len)
        if any(type(dim) is not int for dim in dims) or min(dims) < 1:
            raise ConfigError(f"all model dimensions must be integers >= 1, got {dims}")
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


class Workspace:
    """The encoder's one allocator: arrays reused from call to call, by key.
    One per training run, one per inference process and ``predict_spans``
    call; never shared between threads.

    ``take(key, shape, dtype)`` returns the first prod(shape) elements of the
    key's buffer, which is replaced by a larger one when a batch first needs
    more. A key is always taken with one dtype, float64 unless named.
    A call takes a key at most once while its array is still read, and the
    next call writes over it, results included.

    A key is per layer only for an array the backward reads. Every other
    array takes one key for all layers, as a layer reads the layer below's
    output (in Q/K/V and the first residual) before it writes its own: the
    per-head PV, the output projection, the GELU output and the FFN output,
    each read only within its layer's forward; and, in a forward without a
    backward, the rest too, under ``l.`` keys that stand for every layer.
    GELU's output is formed again in the backward, by the forward's
    multiply, for w2's gradient. A key serves several arrays in turn where each is read
    for the last time before the next is written: the segment gather takes
    the last layer's dropout-draw key; a last layer run at some rows takes
    the output projection's key for its whole ctx, which is gathered at
    those rows before the projection is written, and the FFN output's key
    for its gathered input rows, which the first residual reads before the
    FFN writes them; the FFN backward writes dx2 into the GELU output's key
    and then GELU's gradient over it; each layer norm's backward writes its
    input gradient over its output gradient; a layer reads the gradient it
    gets from the layer above before it writes its own input gradient
    (``b.dh``); and each weight gradient's product is added into its tensor
    as soon as it is formed (``b.gw``)."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < n:
            buf = self._buffers[key] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


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


def _linear_param_grads(x, dy, ws, grad_w, grad_b):
    """Adds x.T @ dy, formed in ws's ``b.gw``, to grad_w and dy's row sum to grad_b."""
    gw = ws.take("b.gw", grad_w.shape)
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


def _gelu_grad(dy, x, phi, tmp):
    """dy * GELU'(x), written over dy, given phi = Phi(x) from _gelu; tmp is
    scratch of x's shape, which ends holding GELU'(x)."""
    np.multiply(-0.5, x, out=tmp)
    tmp *= x
    np.exp(tmp, out=tmp)
    tmp *= x
    tmp /= _SQRT_2PI
    tmp += phi
    dy *= tmp
    return dy


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


def _dropout_backward(dy, keep, ws):
    """dy * keep, in ws's ``b.drop``; without a mask, dy."""
    if keep is None:
        return dy
    return np.multiply(dy, keep, out=ws.take("b.drop", dy.shape))


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


def _attention_arrays(ws, k, shape, nh, ctx_key):
    """A layer's attention arrays; "qh", "kh" and "vh" view Q, K and V by head.
    The per-head PV, which only the merge into ctx reads, takes one key for
    every layer; ctx takes ``ctx_key``."""
    B, L, d = shape
    sizes = {"q": shape, "k": shape, "v": shape, "probs": (B, nh, L, L)}
    a = {name: ws.take(k + name, size) for name, size in sizes.items()}
    a["pv"] = ws.take("pv", (B, nh, L, d // nh))
    a["ctx"] = ws.take(ctx_key, shape)
    for n in "qkv":
        a[n + "h"] = _split_heads(a[n], nh)
    return a


def _post_attention_arrays(ws, k, rows, d, ff):
    """A layer's arrays after the attention, at ``rows`` leading dims. Those
    the backward reads take the layer's keys k. The output projection, the
    GELU output and the FFN output, each read only within the layer's
    forward, and _gelu's scratch take one key for every layer."""
    widths = {"ln1.xhat": d, "ln1.inv": 1, "ln1.out": d, "1": ff, "gelu.phi": ff, "ln2.xhat": d, "ln2.inv": 1,
              "ln2.out": d}
    a = {name: ws.take(k + name, rows + (n,)) for name, n in widths.items()}
    shared = {"o": d, "gelu.y": ff, _FFN_OUT: d, "gelu.tmp": ff}
    a.update({key: ws.take(key, rows + (n,)) for key, n in shared.items()})
    a["gelu.mask"] = ws.take("gelu.mask", rows + (ff,), bool)
    return a


def _attention(t, p, h, key_bias, scale, a):
    """Layer p's Q/K/V, scores, softmax and PV, into a's arrays."""
    for n in "qkv":
        _affine(h, t[p + "w" + n], t[p + "b" + n], a[n])
    scores = np.matmul(a["qh"], a["kh"].transpose(0, 1, 3, 2), out=a["probs"])
    scores *= scale
    scores += key_bias
    probs = _softmax_last(scores)
    _merge_heads(np.matmul(probs, a["vh"], out=a["pv"]), a["ctx"])


def _post_attention(t, p, ctx, h, keep_a, keep_f, p_drop, a):
    """Layer p after its attention, at the rows of ctx, h and a's arrays:
    output projection, dropout, residual, LN1, FFN with GELU, dropout,
    residual and LN2, each within one row."""
    r1 = _affine(ctx, t[p + "wo"], t[p + "bo"], a["o"])
    if keep_a is not None:
        _dropout(r1, keep_a, p_drop)
    r1 += h
    n1 = _layer_norm(r1, t[p + "ln1_g"], t[p + "ln1_b"], a["ln1.xhat"], a["ln1.inv"], a["ln1.out"])
    f1 = _affine(n1, t[p + "w1"], t[p + "b1"], a["1"])
    g1, _ = _gelu(f1, a["gelu.phi"], a["gelu.y"], a["gelu.tmp"], a["gelu.mask"])
    r2 = _affine(g1, t[p + "w2"], t[p + "b2"], a[_FFN_OUT])
    if keep_f is not None:
        _dropout(r2, keep_f, p_drop)
    r2 += n1
    _layer_norm(r2, t[p + "ln2_g"], t[p + "ln2_b"], a["ln2.xhat"], a["ln2.inv"], a["ln2.out"])


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
    gathers the rows, so the RNG stream is that of a whole-layer forward:
    the embedding's mask, then each layer's two, in layer order.
    Every batch-sized array, the returned ones included, is taken from
    ``workspace`` (see ``Workspace`` for its keys) and lives there until the
    workspace's next call.

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
    # Flat (B * L) row of each read position; the ids and positions are range-checked, so "clip" clips nothing.
    at_rows = None if positions is None else positions[0] * L + positions[1]

    drop0 = _dropout_draw(cfg.dropout, dropout_rng, shape, ws, "drop0")
    h = np.take(t["tok_emb"], ids, axis=0, out=ws.take("emb", shape), mode="clip")
    h += t["pos_emb"][:L][None, :, :]
    # the segment rows take the key of the last layer's dropout draws, which are drawn later
    h += np.take(t["seg_emb"], segs, axis=0, out=ws.take("draw", shape), mode="clip")
    if drop0 is not None:
        _dropout(h, drop0, cfg.dropout)
    key_bias = (1.0 - mask)[:, None, None, :] * _NEG  # (B,1,1,L)
    layers = []
    for i in range(cfg.n_layers):
        p = f"l{i}."
        k = "l." if positions is None else p  # no cache: every layer takes one layer's keys
        at = at_rows if i == cfg.n_layers - 1 else None
        drop_a, drop_f = [_dropout_draw(cfg.dropout, dropout_rng, shape, ws, k + n, at) for n in ("drop_a", "drop_f")]
        # a last layer run at some rows reads only their ctx, gathered before the output projection is written
        a = _attention_arrays(ws, k, shape, nh, k + "ctx" if at is None else "o")
        _attention(t, p, h, key_bias, scale, a)
        h_in, ctx = h, a["ctx"]
        if at is not None:
            # h's rows are read only by the first residual, before the FFN output is written
            h, ctx = _gather(h, at, ws, _FFN_OUT), _gather(ctx, at, ws, k + "ctx.at")
        post = _post_attention_arrays(ws, k, ctx.shape[:-1], cfg.d_model, cfg.d_ff)
        _post_attention(t, p, ctx, h, drop_a, drop_f, cfg.dropout, post)
        if positions is not None:
            layers.append({"h_in": h_in, "qh": a["qh"], "kh": a["kh"], "vh": a["vh"], "probs": a["probs"], "ctx": ctx,
                           "drop_a": drop_a, "ln1": (post["ln1.xhat"], post["ln1.inv"]), "n1": post["ln1.out"],
                           "f1": post["1"], "phi": post["gelu.phi"], "drop_f": drop_f,
                           "ln2": (post["ln2.xhat"], post["ln2.inv"])})
        h = post["ln2.out"]

    if positions is None:
        return h
    return h, {"ids": ids, "segs": segs, "drop0": drop0, "layers": layers, "scale": scale, "at_rows": at_rows}


def _post_attention_backward(ws, t, grads, p, c, dy):
    """Layer p's backward after its attention, from dy, the gradient of its
    output, at dy's rows, which it writes over: adds the layer's parameter
    gradients into grads and returns the gradients of its attention output
    and of its first residual. GELU's output, which the forward did not
    keep, is formed again for w2's gradient by the forward's multiply."""
    tmp = ws.take("b.ln.tmp", dy.shape)
    xhat, inv = c["ln2"]
    _layer_norm_param_grads(dy, xhat, tmp, grads[p + "ln2_g"], grads[p + "ln2_b"])
    dr2 = _layer_norm_backward(dy, t[p + "ln2_g"], xhat, inv, dy, tmp)  # each layer norm's dx over its dy
    ddrop_f = _dropout_backward(dr2, c["drop_f"], ws)
    f1, phi = c["f1"], c["phi"]
    scratch = ws.take("gelu.tmp", f1.shape)
    _linear_param_grads(np.multiply(f1, phi, out=scratch), ddrop_f, ws, grads[p + "w2"], grads[p + "b2"])
    dx2 = _linear_backward(ddrop_f, t[p + "w2"], ws.take("gelu.y", f1.shape))
    df1 = _gelu_grad(dx2, f1, phi, scratch)
    _linear_param_grads(c["n1"], df1, ws, grads[p + "w1"], grads[p + "b1"])
    dn1 = _linear_backward(df1, t[p + "w1"], ws.take("b.dx1", dy.shape))
    dn1 += dr2
    xhat, inv = c["ln1"]
    _layer_norm_param_grads(dn1, xhat, tmp, grads[p + "ln1_g"], grads[p + "ln1_b"])
    dr1 = _layer_norm_backward(dn1, t[p + "ln1_g"], xhat, inv, dn1, tmp)
    dao = _dropout_backward(dr1, c["drop_a"], ws)
    _linear_param_grads(c["ctx"], dao, ws, grads[p + "wo"], grads[p + "bo"])
    return _linear_backward(dao, t[p + "wo"], ws.take("b.dxo", dy.shape)), dr1


def _attention_backward(ws, t, grads, p, c, dctx, dr1, nh, scale):
    """Layer p's backward from dctx, the gradient of its attention output:
    adds the Q/K/V gradients into grads and returns the gradient of the
    layer's input, in ``b.dh``: ((dxq + dxk) + dxv) + dr1, summed in that
    order, with dr1, the first residual's, left out when it is None."""
    shape = dctx.shape
    probs = c["probs"]
    dctx = _split_heads(dctx, nh)
    # dprobs, until turned into dscores in place
    dscores = np.matmul(dctx, c["vh"].transpose(0, 1, 3, 2), out=ws.take("b.dscores", probs.shape))
    dscores -= np.multiply(dscores, probs, out=ws.take("b.dprobs", probs.shape)).sum(-1, keepdims=True)
    dscores *= probs
    dhead, merged = ws.take("b.dhead", dctx.shape), ws.take("b.merged", shape)
    dh, dx = ws.take("b.dh", shape), ws.take("b.dx", shape)
    for n, x, y in (("q", dscores, c["kh"]), ("k", dscores.transpose(0, 1, 3, 2), c["qh"]),
                    ("v", probs.transpose(0, 1, 3, 2), dctx)):
        np.matmul(x, y, out=dhead)
        if n != "v":
            dhead *= scale
        _merge_heads(dhead, merged)
        _linear_param_grads(c["h_in"], merged, ws, grads[p + "w" + n], grads[p + "b" + n])
        if n == "q":
            _linear_backward(merged, t[p + "wq"], dh)
        else:
            dh += _linear_backward(merged, t[p + "w" + n], dx)
    if dr1 is not None:
        dh += dr1
    return dh


def _backward_to_params(params: EncoderParams, cache, dh, grads, ws):
    """Backprop dh, the gradient wrt the last layer's output at the cache's
    positions, through the stack into grads. The last layer's row gradients
    are scattered, with add, into whole (B, L, d) tensors before its
    attention backward; the layers below run at every position. Each
    parameter gradient is added as soon as it is formed; ``tok_emb`` gets
    the MLM head's product (in ``loss_and_grad``) before its scatter here."""
    t = params.tensors
    cfg = params.config
    d = cfg.d_model
    shape = cache["ids"].shape + (d,)
    at = cache["at_rows"]
    for i in reversed(range(cfg.n_layers)):
        p, c = f"l{i}.", cache["layers"][i]
        dctx, dr1 = _post_attention_backward(ws, t, grads, p, c, dh)
        if at is None:
            dh = _attention_backward(ws, t, grads, p, c, dctx, dr1, cfg.n_heads, cache["scale"])
        else:
            scatter = ws.take("b.scatter", shape)
            scatter.fill(0.0)
            np.add.at(scatter.reshape(-1, d), at, dctx)
            dh = _attention_backward(ws, t, grads, p, c, scatter, None, cfg.n_heads, cache["scale"])
            np.add.at(dh.reshape(-1, d), at, dr1)
            at = None  # the layers below ran at every position

    if cache["drop0"] is not None:
        dh *= cache["drop0"]
    np.add.at(grads["tok_emb"], cache["ids"], dh)
    grads["pos_emb"][: dh.shape[1]] += dh.sum(0)
    _seg_grads(grads["seg_emb"], cache["segs"], dh)


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
        grads["mlm_bias"] += dlogits.sum(0)
        grads["tok_emb"] += np.matmul(dlogits.T, sel, out=ws.take("b.gw", t["tok_emb"].shape))
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
