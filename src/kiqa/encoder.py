"""Compact transformer encoder with exact analytic gradients.

Post-layer-norm blocks, GELU feed-forward, learned absolute position and
segment embeddings, an MLM head tied to the token embedding, and a linear
span head. Everything runs in float64 numpy; forward and backward passes are
written out by hand so gradients can be checked coordinate-by-coordinate
against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import erf

from .errors import (
    ArtifactMismatchError,
    GoldPositionMaskedError,
    NoMaskedPositionsError,
    NonFiniteError,
)

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
            raise ValueError("all model dimensions must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


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


def _layer_norm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _layer_norm_backward(dy, g, cache):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    m1 = dxhat.mean(-1, keepdims=True)
    m2 = (dxhat * xhat).mean(-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x):
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _softmax_last(x):
    z = x - x.max(-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(-1, keepdims=True)


def _dropout(x, p, rng):
    if rng is None or p <= 0.0:
        return x, None
    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * keep, keep


# ------------------------------------------------------------------- forward


def _check_inputs(params: EncoderParams, input_ids, segment_ids, attention_mask):
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
    return ids, segs, mask


def forward(params: EncoderParams, input_ids, segment_ids, attention_mask, dropout_rng=None, return_cache=False):
    """Hidden states (batch, len, d_model). PAD positions are excluded from
    attention via the mask; pass a dropout_rng only during training."""
    cfg = params.config
    t = params.tensors
    ids, segs, mask = _check_inputs(params, input_ids, segment_ids, attention_mask)
    B, L = ids.shape
    nh, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = 1.0 / math.sqrt(dh)

    x = t["tok_emb"][ids] + t["pos_emb"][:L][None, :, :] + t["seg_emb"][segs]
    x, drop0 = _dropout(x, cfg.dropout, dropout_rng)

    key_bias = (1.0 - mask)[:, None, None, :] * _NEG  # (B,1,1,L)
    layers = []
    h = x
    for i in range(cfg.n_layers):
        p = f"l{i}."
        q = h @ t[p + "wq"] + t[p + "bq"]
        k = h @ t[p + "wk"] + t[p + "bk"]
        v = h @ t[p + "wv"] + t[p + "bv"]
        qh = q.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        scores = qh @ kh.transpose(0, 1, 3, 2) * scale + key_bias
        probs = _softmax_last(scores)
        ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        ao = ctx @ t[p + "wo"] + t[p + "bo"]
        ao, drop_a = _dropout(ao, cfg.dropout, dropout_rng)
        r1 = h + ao
        n1, ln1_cache = _layer_norm(r1, t[p + "ln1_g"], t[p + "ln1_b"])
        f1 = n1 @ t[p + "w1"] + t[p + "b1"]
        g1 = _gelu(f1)
        f2 = g1 @ t[p + "w2"] + t[p + "b2"]
        f2, drop_f = _dropout(f2, cfg.dropout, dropout_rng)
        r2 = n1 + f2
        out, ln2_cache = _layer_norm(r2, t[p + "ln2_g"], t[p + "ln2_b"])
        layers.append(
            {
                "h_in": h, "qh": qh, "kh": kh, "vh": vh, "probs": probs, "ctx": ctx,
                "drop_a": drop_a, "ln1": ln1_cache, "n1": n1, "f1": f1, "g1": g1,
                "drop_f": drop_f, "ln2": ln2_cache,
            }
        )
        h = out

    if not return_cache:
        return h
    cache = {"ids": ids, "segs": segs, "mask": mask, "drop0": drop0, "layers": layers, "scale": scale}
    return h, cache


def _backward_to_params(params: EncoderParams, cache, dh, grads):
    """Backprop dh (grad wrt final hidden states) through the stack into grads."""
    cfg = params.config
    t = params.tensors
    B, L = cache["ids"].shape
    nh, dh_dim = cfg.n_heads, cfg.d_model // cfg.n_heads
    scale = cache["scale"]

    def flat(a):
        return a.reshape(-1, a.shape[-1])

    for i in reversed(range(cfg.n_layers)):
        p = f"l{i}."
        c = cache["layers"][i]
        dr2, dg, db = _layer_norm_backward(dh, t[p + "ln2_g"], c["ln2"])
        grads[p + "ln2_g"] += dg
        grads[p + "ln2_b"] += db
        dn1 = dr2.copy()
        df2 = dr2 if c["drop_f"] is None else dr2 * c["drop_f"]
        grads[p + "w2"] += flat(c["g1"]).T @ flat(df2)
        grads[p + "b2"] += df2.sum((0, 1))
        dg1 = df2 @ t[p + "w2"].T
        df1 = dg1 * _gelu_grad(c["f1"])
        grads[p + "w1"] += flat(c["n1"]).T @ flat(df1)
        grads[p + "b1"] += df1.sum((0, 1))
        dn1 += df1 @ t[p + "w1"].T
        dr1, dg, db = _layer_norm_backward(dn1, t[p + "ln1_g"], c["ln1"])
        grads[p + "ln1_g"] += dg
        grads[p + "ln1_b"] += db
        dh = dr1.copy()
        dao = dr1 if c["drop_a"] is None else dr1 * c["drop_a"]
        grads[p + "wo"] += flat(c["ctx"]).T @ flat(dao)
        grads[p + "bo"] += dao.sum((0, 1))
        dctx = (dao @ t[p + "wo"].T).reshape(B, L, nh, dh_dim).transpose(0, 2, 1, 3)
        dprobs = dctx @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["probs"].transpose(0, 1, 3, 2) @ dctx
        probs = c["probs"]
        dscores = probs * (dprobs - (dprobs * probs).sum(-1, keepdims=True))
        dqh = dscores @ c["kh"] * scale
        dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"] * scale
        dq = dqh.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        dk = dkh.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        dv = dvh.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        h_in = c["h_in"]
        grads[p + "wq"] += flat(h_in).T @ flat(dq)
        grads[p + "bq"] += dq.sum((0, 1))
        grads[p + "wk"] += flat(h_in).T @ flat(dk)
        grads[p + "bk"] += dk.sum((0, 1))
        grads[p + "wv"] += flat(h_in).T @ flat(dv)
        grads[p + "bv"] += dv.sum((0, 1))
        dh += dq @ t[p + "wq"].T + dk @ t[p + "wk"].T + dv @ t[p + "wv"].T

    if cache["drop0"] is not None:
        dh = dh * cache["drop0"]
    np.add.at(grads["tok_emb"], cache["ids"], dh)
    grads["pos_emb"][:L] += dh.sum(0)
    np.add.at(grads["seg_emb"], cache["segs"], dh)


# ---------------------------------------------------------------- loss heads


def mlm_logits(params: EncoderParams, hidden, positions):
    """Tied-embedding logits at the given positions of one sequence."""
    hidden = np.asarray(hidden)
    if hidden.ndim != 2:
        raise ValueError("mlm_logits expects hidden of shape (len, d_model)")
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= hidden.shape[0]):
        raise ValueError("position out of range")
    return hidden[positions] @ params.tensors["tok_emb"].T + params.tensors["mlm_bias"]


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
    """
    hidden, cache = forward(
        params, batch.input_ids, batch.segment_ids, batch.attention_mask,
        dropout_rng=dropout_rng, return_cache=True,
    )
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    dh = np.zeros_like(hidden)

    if loss == "mlm":
        rows = np.asarray(batch.mask_rows, dtype=np.int64)
        cols = np.asarray(batch.mask_cols, dtype=np.int64)
        targets = np.asarray(batch.target_ids, dtype=np.int64)
        M = rows.shape[0]
        if M == 0:
            raise NoMaskedPositionsError("batch has no masked positions")
        sel = hidden[rows, cols]
        logits = sel @ params.tensors["tok_emb"].T + params.tensors["mlm_bias"]
        nll, dlogits = cross_entropy(logits, targets)
        value = nll.mean()
        dlogits /= M
        grads["mlm_bias"] += dlogits.sum(0)
        grads["tok_emb"] += dlogits.T @ sel
        dsel = dlogits @ params.tensors["tok_emb"]
        np.add.at(dh, (rows, cols), dsel)
    elif loss == "span":
        start_logits, end_logits = qa_logits(params, hidden)
        valid = np.asarray(batch.valid_mask, dtype=bool)
        B = hidden.shape[0]
        gold_s = np.asarray(batch.start_gold, dtype=np.int64)
        gold_e = np.asarray(batch.end_gold, dtype=np.int64)
        if not (valid[np.arange(B), gold_s].all() and valid[np.arange(B), gold_e].all()):
            raise GoldPositionMaskedError("gold span position outside the valid mask")
        nll_s, dstart = cross_entropy(np.where(valid, start_logits, -np.inf), gold_s)
        nll_e, dend = cross_entropy(np.where(valid, end_logits, -np.inf), gold_e)
        value = (nll_s.sum() + nll_e.sum()) / (2.0 * B)
        dstart /= 2.0 * B
        dend /= 2.0 * B
        t = params.tensors
        grads["qa_ws"] += (dstart[..., None] * hidden).sum((0, 1))
        grads["qa_bs"] += dstart.sum()
        grads["qa_we"] += (dend[..., None] * hidden).sum((0, 1))
        grads["qa_be"] += dend.sum()
        dh += dstart[..., None] * t["qa_ws"] + dend[..., None] * t["qa_we"]
    else:
        raise ValueError(f"unknown loss {loss!r}")

    if not np.isfinite(value):
        raise NonFiniteError(f"{loss} loss is not finite")
    _backward_to_params(params, cache, dh, grads)
    return float(value), grads


# ---------------------------------------------------------------- checkpoint

_CKPT_MAGIC = b"KIQA-CKPT-v1\n"


def save_checkpoint(path, params: EncoderParams, meta: dict | None = None) -> None:
    """Versioned binary: one JSON header line, then raw little-endian float64
    buffers in sorted key order. Deterministic byte-for-byte."""
    names = sorted(params.tensors)
    header = {
        "config": asdict(params.config),
        "meta": meta or {},
        "tensors": [[n, list(params.tensors[n].shape)] for n in names],
    }
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for n in names:
            fh.write(np.ascontiguousarray(params.tensors[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[EncoderParams, dict]:
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _CKPT_MAGIC:
            raise ArtifactMismatchError(f"{path}: not a checkpoint file")
        header = json.loads(fh.readline().decode("utf-8"))
        config = ModelConfig(**header["config"])
        expected = param_shapes(config)
        tensors: dict[str, np.ndarray] = {}
        for name, shape in header["tensors"]:
            shape = tuple(shape)
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
    return EncoderParams(config=config, tensors=tensors), header["meta"]
