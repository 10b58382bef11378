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

An inference forward (no positions, no dropout) runs the layer stack over blocks
of ``max(1, _BLOCK_TOKENS // L)`` rows at the batch's pad width ``L``, so its
score and feed-forward intermediates stay a few MB whatever the batch size.
Every op works within one row, so blocking changes no bit of the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

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
# Tokens per block of an inference forward. At d_ff = 256 and 4 heads a block
# holds a 0.5 MB FFN intermediate and an (8 KB * L) score tensor, 1 MB at
# L = 128; above L = 256 a block is one row (4.7 MB of scores at L = 384).
# Blocks of 512 tokens ran slower than one block per batch in a fresh process:
# glibc returned their freed temporaries to the OS and faulted them in again
# (2.7x one block's page faults over an eval set); 256-token blocks took 1/16.
_BLOCK_TOKENS = 256


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


@dataclass
class EncoderParams:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


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


_MATRIX_KEYS = ("tok_emb", "pos_emb", "seg_emb", "wq", "wk", "wv", "wo", "w1", "w2", "qa_ws", "qa_we")


def init_params(config: ModelConfig, seed: int) -> EncoderParams:
    """normal(0, 0.02) weights, zero biases, unit layer-norm gains; seeded."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        leaf = name.split(".")[-1]
        if leaf in _MATRIX_KEYS:
            tensors[name] = rng.normal(0.0, 0.02, size=shape)
        elif leaf in ("ln1_g", "ln2_g"):
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    return EncoderParams(config=config, tensors=tensors)


# ---------------------------------------------------------------- primitives

_LN_EPS = 1e-5
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _affine(x, t, p, n):
    """x @ t[p w<n>] + t[p b<n>], with the bias added into the product."""
    y = x @ t[p + "w" + n]
    y += t[p + "b" + n]
    return y


def _layer_norm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xhat = x - mu  # centred here, scaled to xhat below
    out = np.multiply(xhat, xhat)
    var = out.mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    np.multiply(g, xhat, out=out)
    out += b
    return out, (xhat, inv)


def _layer_norm_backward(dy, t, grads, name, cache):
    """dx of _layer_norm with gain t[name_g] and bias t[name_b]; adds their grads."""
    xhat, inv = cache
    tmp = np.multiply(dy, xhat)
    grads[name + "_g"] += tmp.sum(axis=tuple(range(dy.ndim - 1)))
    grads[name + "_b"] += dy.sum(axis=tuple(range(dy.ndim - 1)))
    dx = dy * t[name + "_g"]
    m1 = dx.mean(-1, keepdims=True)
    np.multiply(dx, xhat, out=tmp)
    m2 = tmp.mean(-1, keepdims=True)
    dx -= m1
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx


def _linear_backward(t, grads, p, n, x, dy):
    """dx of y = x @ t[p w<n>] + t[p b<n>]; adds the weight and bias grads."""
    w = p + "w" + n
    grads[w] += x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    grads[p + "b" + n] += dy.sum(axis=tuple(range(dy.ndim - 1)))
    return dy @ t[w].T


def _gelu(x):
    """GELU(x) = x * phi and phi = Phi(x), the standard normal CDF, which
    _gelu_grad reuses."""
    phi = x / _SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    return x * phi, phi


def _gelu_grad(dy, x, phi):
    """dy * GELU'(x), given phi = Phi(x) from _gelu."""
    out = np.multiply(-0.5, x)
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


def _dropout(x, p, rng, shape, at=None):
    """x with dropout applied, written over x, which the caller owns; and the
    scaled keep mask. The mask is drawn at ``shape``, the whole (B, L, d)
    tensor's, and gathered at positions ``at`` when x holds only those rows,
    so the RNG stream and every mask entry do not depend on the rows computed."""
    if rng is None or p <= 0.0:
        return x, None
    draw = rng.random(shape)
    keep = (draw if at is None else draw[at]) >= p
    keep = keep / (1.0 - p)
    x *= keep
    return x, keep


def _dropout_backward(dy, keep):
    return dy if keep is None else dy * keep


def _split_heads(x, n_heads):
    B, L, d = x.shape
    return x.reshape(B, L, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    B, nh, L, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, nh * dh)


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


def forward(params: EncoderParams, input_ids, segment_ids, attention_mask, dropout_rng=None, positions=None):
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

    Without positions or a dropout_rng, the rows go through the layer stack
    in blocks of ``max(1, _BLOCK_TOKENS // len)`` and are written into one
    result. The embedding gather, the per-row stacked matmuls, the key bias,
    softmax and layer norm each work within one row, so a row meets the same
    numpy calls at the same width in any block, and the result is bitwise
    that of one block. Training stays one block: the backward pass reads the
    whole batch's cache, and dropout draws its masks at the batch's shape."""
    ids, segs, mask, positions = _check_inputs(params, input_ids, segment_ids, attention_mask, positions)
    if positions is not None or dropout_rng is not None:
        return _forward_rows(params, ids, segs, mask, dropout_rng, positions)
    rows = max(1, _BLOCK_TOKENS // ids.shape[1])
    h = np.empty(ids.shape + (params.config.d_model,))
    for lo in range(0, len(ids), rows):
        block = slice(lo, lo + rows)
        h[block] = _forward_rows(params, ids[block], segs[block], mask[block])
    return h


def _forward_rows(params: EncoderParams, ids, segs, mask, dropout_rng=None, positions=None):
    """The layer stack of ``forward`` over checked inputs, in one block; with
    positions, the last layer's post-attention ops run at those rows and the
    cache is returned too."""
    cfg = params.config
    t = params.tensors
    scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
    shape = ids.shape + (cfg.d_model,)

    x = t["tok_emb"][ids]
    x += t["pos_emb"][: ids.shape[1]][None, :, :]
    x += t["seg_emb"][segs]
    x, drop0 = _dropout(x, cfg.dropout, dropout_rng, shape)

    key_bias = (1.0 - mask)[:, None, None, :] * _NEG  # (B,1,1,L)
    layers = []
    h = x
    for i in range(cfg.n_layers):
        p = f"l{i}."
        qh, kh, vh = (_split_heads(_affine(h, t, p, n), cfg.n_heads) for n in "qkv")
        scores = qh @ kh.transpose(0, 1, 3, 2)
        scores *= scale
        scores += key_bias
        probs = _softmax_last(scores)
        ctx = _merge_heads(probs @ vh)
        h_in = h
        at = positions if i == cfg.n_layers - 1 else None
        if at is not None:
            ctx, h = ctx[at], h[at]
        r1, drop_a = _dropout(_affine(ctx, t, p, "o"), cfg.dropout, dropout_rng, shape, at)
        r1 += h
        n1, ln1_cache = _layer_norm(r1, t[p + "ln1_g"], t[p + "ln1_b"])
        f1 = _affine(n1, t, p, "1")
        g1, phi = _gelu(f1)
        r2, drop_f = _dropout(_affine(g1, t, p, "2"), cfg.dropout, dropout_rng, shape, at)
        r2 += n1
        out, ln2_cache = _layer_norm(r2, t[p + "ln2_g"], t[p + "ln2_b"])
        if positions is not None:
            layers.append(
                {
                    "h_in": h_in, "qh": qh, "kh": kh, "vh": vh, "probs": probs, "ctx": ctx,
                    "drop_a": drop_a, "ln1": ln1_cache, "n1": n1, "f1": f1, "phi": phi, "g1": g1,
                    "drop_f": drop_f, "ln2": ln2_cache,
                }
            )
        h = out

    if positions is None:
        return h
    cache = {
        "ids": ids, "segs": segs, "mask": mask, "drop0": drop0, "layers": layers, "scale": scale,
        "positions": positions,
    }
    return h, cache


def _backward_to_params(params: EncoderParams, cache, dh, grads):
    """Backprop dh, the gradient wrt the last layer's output at the cache's
    positions, through the stack into grads. The last layer's row gradients
    are scattered, with add, into whole (B, L, d) tensors before its
    attention backward; the layers below run at every position."""
    t = params.tensors
    at = cache["positions"]
    for i in reversed(range(params.config.n_layers)):
        p = f"l{i}."
        c = cache["layers"][i]
        dr2 = _layer_norm_backward(dh, t, grads, p + "ln2", c["ln2"])
        dg1 = _linear_backward(t, grads, p, "2", c["g1"], _dropout_backward(dr2, c["drop_f"]))
        df1 = _gelu_grad(dg1, c["f1"], c["phi"])
        dn1 = _linear_backward(t, grads, p, "1", c["n1"], df1)
        dn1 += dr2
        dr1 = _layer_norm_backward(dn1, t, grads, p + "ln1", c["ln1"])
        dao = _dropout_backward(dr1, c["drop_a"])
        dctx = _linear_backward(t, grads, p, "o", c["ctx"], dao)
        if at is not None:
            drows = dctx
            dctx = np.zeros(c["h_in"].shape)
            np.add.at(dctx, at, drows)
        dctx = _split_heads(dctx, params.config.n_heads)
        probs = c["probs"]
        dscores = dctx @ c["vh"].transpose(0, 1, 3, 2)  # dprobs, until turned into dscores in place
        dscores -= (dscores * probs).sum(-1, keepdims=True)
        dscores *= probs
        dqh = dscores @ c["kh"]
        dqh *= cache["scale"]
        dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"]
        dkh *= cache["scale"]
        dvh = probs.transpose(0, 1, 3, 2) @ dctx
        dh, dxk, dxv = (
            _linear_backward(t, grads, p, n, c["h_in"], _merge_heads(d)) for n, d in zip("qkv", (dqh, dkh, dvh))
        )
        dh += dxk  # ((dxq + dxk) + dxv) + dr1, summed in that order
        dh += dxv
        if at is None:
            dh += dr1
        else:
            np.add.at(dh, at, dr1)
            at = None  # the layers below ran at every position

    dh = _dropout_backward(dh, cache["drop0"])
    np.add.at(grads["tok_emb"], cache["ids"], dh)
    grads["pos_emb"][: dh.shape[1]] += dh.sum(0)
    np.add.at(grads["seg_emb"], cache["segs"], dh)


# ---------------------------------------------------------------- loss heads


def mlm_logits(params: EncoderParams, sel):
    """Tied-embedding logits for gathered hidden rows ``sel`` of shape (M, d_model)."""
    return sel @ params.tensors["tok_emb"].T + params.tensors["mlm_bias"]


def qa_logits(params: EncoderParams, hidden):
    """Per-position start/end logits from the linear span head."""
    t = params.tensors
    start = hidden @ t["qa_ws"] + t["qa_bs"]
    end = hidden @ t["qa_we"] + t["qa_be"]
    return start, end


def cross_entropy(logits, targets):
    """Per-row negative log-likelihood of ``targets`` under softmax(logits),
    and its gradient with respect to the logits (softmax minus one-hot).

    Classes excluded from a row carry -inf logits: they get probability 0 and
    gradient 0.
    """
    z = logits - logits.max(-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
    rows = np.arange(len(targets))
    dlogits = np.exp(logp)
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


def loss_and_grad(params: EncoderParams, batch, loss: str, dropout_rng=None):
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
    )
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    t = params.tensors
    if loss == "mlm":
        nll, dlogits = cross_entropy(mlm_logits(params, sel), targets)
        value = nll.mean()
        dlogits /= M
        grads["mlm_bias"] += dlogits.sum(0)
        grads["tok_emb"] += dlogits.T @ sel
        dsel = dlogits @ t["tok_emb"]
    else:
        start_logits, end_logits = np.full(valid.shape, -np.inf), np.full(valid.shape, -np.inf)
        start_logits[positions], end_logits[positions] = qa_logits(params, sel)
        nll_s, dstart = cross_entropy(start_logits, gold_s)
        nll_e, dend = cross_entropy(end_logits, gold_e)
        value = (nll_s.sum() + nll_e.sum()) / (2.0 * B)
        dstart, dend = dstart[positions], dend[positions]
        for n, d in (("s", dstart), ("e", dend)):
            d /= 2.0 * B
            grads["qa_w" + n] += (d[:, None] * sel).sum(0)
            grads["qa_b" + n] += d.sum()
        dsel = dstart[:, None] * t["qa_ws"] + dend[:, None] * t["qa_we"]

    if not np.isfinite(value):
        raise NonFiniteError(f"{loss} loss is not finite")
    _backward_to_params(params, cache, dsel, grads)
    return float(value), grads


# ---------------------------------------------------------------- checkpoint

_CKPT_MAGIC = b"KIQA-CKPT-v1\n"


def save_checkpoint(path, params: EncoderParams, meta: dict | None = None) -> None:
    """Versioned binary: one JSON header line, then raw little-endian float64
    buffers in sorted key order. Deterministic byte-for-byte, and written
    atomically: a failed save leaves any file already at ``path`` as it was."""
    names = sorted(params.tensors)
    header = {
        "config": asdict(params.config),
        "meta": meta or {},
        "tensors": [[n, list(params.tensors[n].shape)] for n in names],
    }
    with atomic_write(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(params.tensors[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[EncoderParams, dict]:
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
        expected = param_shapes(config)
        tensors: dict[str, np.ndarray] = {}
        for name, shape in shapes:
            if name not in expected or expected[name] != shape:
                raise ArtifactMismatchError(f"{path}: tensor {name!r} shape {shape} does not match config")
            n_items = int(np.prod(shape)) if shape else 1
            buf = fh.read(n_items * 8)
            if len(buf) != n_items * 8:
                raise ArtifactMismatchError(f"{path}: truncated tensor {name!r}")
            tensors[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
        missing = set(expected) - set(tensors)
        if missing:
            raise ArtifactMismatchError(f"{path}: missing tensors {sorted(missing)}")
        if fh.read(1):
            raise ArtifactMismatchError(f"{path}: trailing bytes after the last tensor")
    return EncoderParams(config=config, tensors=tensors), meta
