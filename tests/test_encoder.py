import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import erf

from kiqa import encoder
from kiqa.encoder import (
    _NEG,
    EncoderParams,
    MLMBatch,
    ModelConfig,
    QABatch,
    Workspace,
    _gelu,
    _gelu_grad,
    _layer_norm,
    _layer_norm_backward,
    _layer_norm_param_grads,
    _seg_grads,
    _softmax_last,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    mlm_logits,
    param_layout,
    param_shapes,
    param_views,
    qa_logits,
    save_checkpoint,
)
from kiqa.errors import ArtifactMismatchError, GoldPositionMaskedError, NoMaskedPositionsError

from conftest import ce_oracle, zeroed_grads

TINY = ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=16, max_len=16, dropout=0.0)


def scaled_params(config, seed, scale=10.0):
    """Weights at std ~0.2: keeps gradients well above the finite-difference
    truncation noise of an h=1e-4 probe."""
    params = init_params(config, seed)
    for name, tensor in params.tensors.items():
        if name.split(".")[-1] not in ("ln1_g", "ln2_g"):
            tensor *= scale
    return params


def make_inputs(config, seed=0, B=2, L=7, pad_from=None):
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, config.vocab_size, size=(B, L))
    segs = rng.integers(0, 2, size=(B, L))
    mask = np.ones((B, L))
    if pad_from is not None:
        mask[:, pad_from:] = 0.0
        ids[:, pad_from:] = 0
        segs[:, pad_from:] = 0
    return ids, segs, mask


# ------------------------------------------------- straight-line forward oracle


def oracle_forward(params, ids_row, segs_row):
    """Independent per-position reimplementation of the unpadded forward pass."""
    cfg = params.config
    t = params.tensors
    L = len(ids_row)
    d, nh = cfg.d_model, cfg.n_heads
    dh = d // nh

    def layer_norm(vec, g, b):
        mu = sum(vec) / d
        var = sum((x - mu) ** 2 for x in vec) / d
        return [g[k] * (vec[k] - mu) / math.sqrt(var + 1e-5) + b[k] for k in range(d)]

    def gelu(x):
        return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))

    h = [
        [t["tok_emb"][ids_row[p], k] + t["pos_emb"][p, k] + t["seg_emb"][segs_row[p], k] for k in range(d)]
        for p in range(L)
    ]
    for li in range(cfg.n_layers):
        pfx = f"l{li}."
        q = [[sum(h[p][m] * t[pfx + "wq"][m, k] for m in range(d)) + t[pfx + "bq"][k] for k in range(d)] for p in range(L)]
        kk = [[sum(h[p][m] * t[pfx + "wk"][m, k] for m in range(d)) + t[pfx + "bk"][k] for k in range(d)] for p in range(L)]
        v = [[sum(h[p][m] * t[pfx + "wv"][m, k] for m in range(d)) + t[pfx + "bv"][k] for k in range(d)] for p in range(L)]
        ctx = [[0.0] * d for _ in range(L)]
        for head in range(nh):
            lo = head * dh
            for p in range(L):
                scores = [
                    sum(q[p][lo + x] * kk[p2][lo + x] for x in range(dh)) / math.sqrt(dh)
                    for p2 in range(L)
                ]
                mx = max(scores)
                exps = [math.exp(s - mx) for s in scores]
                total = sum(exps)
                weights = [e / total for e in exps]
                for x in range(dh):
                    ctx[p][lo + x] = sum(weights[p2] * v[p2][lo + x] for p2 in range(L))
        ao = [[sum(ctx[p][m] * t[pfx + "wo"][m, k] for m in range(d)) + t[pfx + "bo"][k] for k in range(d)] for p in range(L)]
        n1 = [layer_norm([h[p][k] + ao[p][k] for k in range(d)], t[pfx + "ln1_g"], t[pfx + "ln1_b"]) for p in range(L)]
        ff = []
        for p in range(L):
            mid = [gelu(sum(n1[p][m] * t[pfx + "w1"][m, j] for m in range(d)) + t[pfx + "b1"][j]) for j in range(cfg.d_ff)]
            ff.append([sum(mid[j] * t[pfx + "w2"][j, k] for j in range(cfg.d_ff)) + t[pfx + "b2"][k] for k in range(d)])
        h = [layer_norm([n1[p][k] + ff[p][k] for k in range(d)], t[pfx + "ln2_g"], t[pfx + "ln2_b"]) for p in range(L)]
    return np.array(h)


def test_forward_matches_oracle():
    params = scaled_params(TINY, seed=1)
    ids, segs, mask = make_inputs(TINY, seed=2, B=1, L=5)
    got = forward(params, ids, segs, mask, workspace=Workspace())[0]
    want = oracle_forward(params, ids[0], segs[0])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_forward_single_token():
    params = scaled_params(TINY, seed=4)
    ids = np.array([[7]])
    segs = np.array([[1]])
    got = forward(params, ids, segs, np.ones((1, 1)), workspace=Workspace())[0]
    want = oracle_forward(params, [7], [1])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_attention_rows_sum_to_one():
    params = scaled_params(TINY, seed=1)
    ids, segs, mask = make_inputs(TINY, seed=3, B=2, L=7, pad_from=5)
    _, cache = forward(params, ids, segs, mask, positions=np.nonzero(mask), workspace=Workspace())
    probs = cache["layers"][0]["probs"]  # (B, heads, L, L)
    sums = probs.sum(-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)
    # no attention mass on padded keys
    assert np.all(probs[:, :, :, 5:] == 0.0)


def test_pad_positions_do_not_affect_real_tokens():
    params = scaled_params(TINY, seed=1)
    ids, segs, mask = make_inputs(TINY, seed=5, B=1, L=7, pad_from=5)
    base = forward(params, ids, segs, mask, workspace=Workspace())
    ids2 = ids.copy()
    ids2[0, 5], ids2[0, 6] = ids2[0, 6], ids2[0, 5]  # permute PAD slot contents
    ids2[0, 5] = 3
    perturbed = forward(params, ids2, segs, mask, workspace=Workspace())
    np.testing.assert_array_equal(base[0, :5], perturbed[0, :5])


def test_forward_deterministic_without_dropout():
    params = scaled_params(TINY, seed=6)
    ids, segs, mask = make_inputs(TINY, seed=7)
    np.testing.assert_array_equal(forward(params, ids, segs, mask, workspace=Workspace()),
                                  forward(params, ids, segs, mask, workspace=Workspace()))


def test_dropout_reproducible_with_seeded_rng():
    cfg = ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=16, max_len=16, dropout=0.3)
    params = scaled_params(cfg, seed=6)
    ids, segs, mask = make_inputs(cfg, seed=7)
    a = forward(params, ids, segs, mask, dropout_rng=np.random.default_rng(11), workspace=Workspace())
    b = forward(params, ids, segs, mask, dropout_rng=np.random.default_rng(11), workspace=Workspace())
    c = forward(params, ids, segs, mask, dropout_rng=np.random.default_rng(12), workspace=Workspace())
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_permutation_equivariance_without_positions():
    params = scaled_params(TINY, seed=8)
    params.tensors["pos_emb"][:] = 0.0
    params.tensors["seg_emb"][:] = 0.0
    ids, segs, mask = make_inputs(TINY, seed=9, B=1, L=6)
    perm = np.array([3, 1, 5, 0, 4, 2])
    base = forward(params, ids, segs, mask, workspace=Workspace())
    permuted = forward(params, ids[:, perm], segs[:, perm], mask, workspace=Workspace())
    np.testing.assert_allclose(base[0, perm], permuted[0], rtol=1e-12, atol=1e-14)


def test_forward_input_validation():
    params = scaled_params(TINY, seed=1)
    with pytest.raises(ValueError):
        forward(params, np.array([[99]]), np.array([[0]]), np.ones((1, 1)), workspace=Workspace())  # id out of range
    with pytest.raises(ValueError):
        forward(params, np.zeros((1, 20), dtype=int), np.zeros((1, 20), dtype=int), np.ones((1, 20)),
                workspace=Workspace())
    with pytest.raises(ValueError):
        forward(params, np.zeros((1, 4), dtype=int), np.zeros((1, 3), dtype=int), np.ones((1, 4)),
                workspace=Workspace())


# ------------------------------------------------------ bitwise kernel oracles
# The kernels write their intermediates in place; these are the plain
# expressions they replace, which they must match bit for bit, sign of zero
# included.


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def awkward(rng, shape, scale=3.0):
    """Normal values, plus entries with |x| >= 40 (erf saturates, exp(-x*x/2)
    underflows), signed zeros and, past 1-d, a last row of -0.0."""
    x = rng.normal(scale=scale, size=shape)
    flat = x.reshape(-1)  # a view of x
    pick = rng.permutation(flat.size)
    k = flat.size // 8
    flat[pick[:k]] = rng.uniform(40.0, 80.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    flat[pick[k : k + 4]] = -0.0
    flat[pick[k + 4 : k + 8]] = 0.0
    if x.ndim > 1:
        x[(-1,) * (x.ndim - 1)] = -0.0
    return x


def gelu_oracle(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_grad_oracle(dy, x):
    return dy * (0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))


def layer_norm_oracle(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    return g * xhat + b, xhat, inv


def layer_norm_backward_oracle(dy, g, xhat, inv):
    axes = tuple(range(dy.ndim - 1))
    dxhat = dy * g
    m1 = dxhat.mean(-1, keepdims=True)
    m2 = (dxhat * xhat).mean(-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def softmax_oracle(x):
    z = x - x.max(-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(-1, keepdims=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gelu_kernels_match_plain_expressions(seed):
    rng = np.random.default_rng(seed)
    x = awkward(rng, (3, 7, 32))
    dy = awkward(rng, x.shape)
    x0, dy0 = x.copy(), dy.copy()
    y, phi = _gelu(x, np.empty_like(x), np.empty_like(x), np.empty_like(x), np.empty(x.shape, bool))
    assert_bitwise(y, gelu_oracle(x0))
    assert_bitwise(phi, 0.5 * (1.0 + erf(x0 / math.sqrt(2.0))))
    got = _gelu_grad(dy, x, phi, np.empty_like(x))
    assert got is dy  # written over dy
    assert_bitwise(got, gelu_grad_oracle(dy0, x0))
    assert_bitwise(x, x0)


# _gelu's rational gives scipy's bits only while scipy.special.erf evaluates
# Cephes' erf for |u| <= 1 with each multiply and add rounded on its own (no
# fused multiply-add, as scipy's x86-64 builds). A scipy that changes either
# fails these tests rather than silently changing a checkpoint.


def assert_gelu_matches_scipy(x):
    """_gelu over x gives bitwise the plain expressions' Phi and GELU, leaves
    x as it was and overwrites whatever its output and scratch arrays held."""
    x0 = x.copy()
    phi, y, tmp = (np.full_like(x, 7.0) for _ in range(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow in the rational at the tail stays inside the kernel
        got_y, got_phi = _gelu(x, phi, y, tmp, np.ones(x.shape, bool))
    assert got_y is y and got_phi is phi
    assert_bitwise(phi, 0.5 * (1.0 + erf(x0 / math.sqrt(2.0))))
    assert_bitwise(y, gelu_oracle(x0))
    assert_bitwise(x, x0)


def xs_for(us):
    """The x near us * sqrt 2 with fl(x / sqrt 2) in us: the inputs at
    which the kernel's erf sees exactly those u (an x step moves u by about
    1.4 ulp, so a u with no such x is one the kernel never meets)."""
    us = np.asarray(us, dtype=np.float64)
    x = us * math.sqrt(2.0)
    near = [x]
    for direction in (np.inf, -np.inf):
        step = x
        for _ in range(3):
            step = np.nextafter(step, direction)
            near.append(step)
    near = np.concatenate(near)
    return near[np.isin(near / math.sqrt(2.0), us)]


def test_gelu_matches_scipy_over_a_dense_sweep_of_the_rational_and_its_edges():
    tiny = np.finfo(np.float64).tiny
    above_one = np.nextafter(1.0, 2.0)
    edges = np.array([0.0, 5e-324, 1e-320, np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0), 1e-300, 1e-160,
                      1e-8, 0.5, np.nextafter(1.0, 0.0), 1.0, above_one, np.nextafter(above_one, 2.0)])
    us = np.concatenate([edges, -edges])
    x = xs_for(us)
    assert np.isin(us, x / math.sqrt(2.0)).all()  # the kernel meets every edge value
    assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()  # both signs of zero
    sweep = np.linspace(-math.sqrt(2.0), math.sqrt(2.0), 400_001)
    both = np.concatenate([x, sweep])
    for arr in (x, sweep, both[: len(both) // 7 * 7].reshape(-1, 7)):
        assert_gelu_matches_scipy(arr)


@pytest.mark.parametrize("sigma, tail", [(0.2, (0.0, 0.0)), (0.7, (0.13, 0.18)), (1.5, (0.47, 0.53))])
def test_gelu_matches_scipy_on_normal_inputs_with_and_without_a_tail(sigma, tail):
    """u = x / sqrt 2 normal with sd sigma: no element, about 15 % and about
    half of them beyond |u| = 1, where scipy's own branch runs."""
    u = np.random.default_rng(11).normal(scale=sigma, size=(120, 256))
    x = u * math.sqrt(2.0)
    assert tail[0] <= np.mean(np.abs(x / math.sqrt(2.0)) > 1.0) <= tail[1]
    assert_gelu_matches_scipy(x)


@pytest.mark.parametrize("shape", [(0, 16), (1, 16), (1, 1), (3, 0), (2, 5, 16)])
def test_gelu_matches_scipy_on_all_tail_no_tail_empty_and_one_row_arrays(shape):
    rng = np.random.default_rng(12)
    sign = rng.choice([-1.0, 1.0], size=shape)
    assert_gelu_matches_scipy(sign * rng.uniform(1.5, 9.0, size=shape))  # every |u| > 1
    assert_gelu_matches_scipy(sign * rng.uniform(0.0, 1.4, size=shape))  # every |u| < 1
    assert_gelu_matches_scipy(sign * 10.0 ** rng.uniform(1.0, 300.0, size=shape))  # u * u overflows in places
    if math.prod(shape):
        assert_gelu_matches_scipy(awkward(rng, shape))


def test_gelu_of_infinities_saturates_and_nan_stays_nan_in_place():
    x = np.array([[np.inf, -np.inf, np.nan, 0.5, -1e300], [-np.nan, 1e300, -0.3, np.inf, 3.0]])
    phi, y, tmp = (np.empty_like(x) for _ in range(3))
    with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0, as in the plain expression
        _gelu(x, phi, y, tmp, np.empty(x.shape, bool))
        want = gelu_oracle(x)
    nan = np.isnan(x)
    assert np.array_equal(np.isnan(phi), nan)
    assert_bitwise(phi[~nan], 0.5 * (1.0 + erf(x[~nan] / math.sqrt(2.0))))
    assert phi[0, 0] == phi[1, 3] == phi[1, 1] == 1.0 and phi[0, 1] == phi[0, 4] == 0.0
    assert np.array_equal(np.isnan(y), np.isnan(want)) and np.isnan(y[nan]).all()
    assert_bitwise(y[~np.isnan(want)], want[~np.isnan(want)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layer_norm_kernels_match_plain_expressions(seed):
    rng = np.random.default_rng(seed)
    x = awkward(rng, (3, 7, 16))
    g, b = awkward(rng, (16,), scale=1.0), rng.normal(size=16)
    xhat, inv = np.empty_like(x), np.empty(x.shape[:-1] + (1,))
    out = _layer_norm(x, g, b, xhat, inv, np.empty_like(x))
    want_out, want_xhat, want_inv = layer_norm_oracle(x, g, b)
    assert_bitwise(out, want_out)
    assert_bitwise(xhat, want_xhat)
    assert_bitwise(inv, want_inv)

    dy = awkward(rng, x.shape)
    dy0 = dy.copy()
    grads = {"ln_g": np.zeros(16), "ln_b": np.zeros(16)}
    dx = _layer_norm_backward(dy, g, xhat, inv, np.empty_like(dy), np.empty_like(dy))
    _layer_norm_param_grads(dy, xhat, np.empty_like(dy), grads["ln_g"], grads["ln_b"])
    want_dx, want_dg, want_db = layer_norm_backward_oracle(dy0, g, want_xhat, want_inv)
    assert_bitwise(dx, want_dx)
    assert_bitwise(grads["ln_g"], 0.0 + want_dg)
    assert_bitwise(grads["ln_b"], 0.0 + want_db)
    assert_bitwise(dy, dy0)


@pytest.mark.parametrize("seg_ids", ["mixed", "no segment 1", "only segment 1"])
def test_segment_embedding_grads_match_add_at_bitwise(seg_ids):
    """_seg_grads, one reduce per segment id over that id's rows, gives the
    bits of np.add.at into a zeroed buffer: with rows and entries of -0.0,
    zero rows, and a segment no token has."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        B, L, d = (1, 1, 8) if trial == 0 else (rng.integers(1, 7), rng.integers(1, 12), 8)  # first: one -0.0 row
        dh = awkward(rng, (B, L, d))
        dh[rng.random((B, L)) < 0.2] = 0.0
        dh[rng.random((B, L, d)) < 0.2] = -0.0
        dh[0, 0] = -0.0  # a whole row of -0.0
        segs = {"mixed": rng.integers(0, 2, size=(B, L)), "no segment 1": np.zeros((B, L), dtype=np.int64),
                "only segment 1": np.ones((B, L), dtype=np.int64)}[seg_ids]
        want = np.zeros((2, d))
        np.add.at(want, segs, dh)
        got = np.zeros((2, d))
        _seg_grads(got, segs, dh)
        assert_bitwise(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_softmax_kernel_matches_plain_expression(seed):
    rng = np.random.default_rng(seed)
    B, H, L = 3, 2, 9
    scores = awkward(rng, (B, H, L, L), scale=10.0)
    scores[:, :, 2] *= 20.0  # gaps beyond exp's range: those weights underflow to 0
    mask = np.ones((B, L))
    mask[1:, 6:] = 0.0  # padded keys
    scores += (1.0 - mask)[:, None, None, :] * _NEG
    want = softmax_oracle(scores)
    got = _softmax_last(scores)
    assert got is scores  # written over its argument
    assert_bitwise(got, want)
    assert (got[1:, :, :, 6:] == 0.0).all()


def plain_forward(params, ids, segs, mask, rng=None, tape=None, positions=None):
    """forward as plain expressions over the kernel oracles, drawing the
    dropout masks in the same order. With ``positions``, the last layer's
    post-attention ops run at those rows, and the hidden states there are
    returned. A ``tape`` list receives, in forward order, each dropout keep
    mask (None without dropout) and, after each layer's two masks, a dict of
    that layer's intermediates."""
    cfg, t = params.config, params.tensors
    B, L = ids.shape
    nh, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    tape = [] if tape is None else tape

    def dropout(x, at=None):
        keep = None if rng is None else (rng.random((B, L, cfg.d_model)) >= cfg.dropout) / (1.0 - cfg.dropout)
        keep = keep if keep is None or at is None else keep[at]
        tape.append(keep)
        return x if keep is None else x * keep

    def heads(x):
        return x.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)

    h = dropout(t["tok_emb"][ids] + t["pos_emb"][:L][None, :, :] + t["seg_emb"][segs])
    key_bias = (1.0 - mask)[:, None, None, :] * _NEG
    for i in range(cfg.n_layers):
        w = {k[len(f"l{i}.") :]: v for k, v in t.items() if k.startswith(f"l{i}.")}
        qh, kh, vh = (heads(h @ w["w" + n] + w["b" + n]) for n in "qkv")
        probs = softmax_oracle(qh @ kh.transpose(0, 1, 3, 2) * (1.0 / math.sqrt(dh)) + key_bias)
        ctx = (probs @ vh).transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        at = positions if i == cfg.n_layers - 1 else None
        h_at, ctx = (h, ctx) if at is None else (h[at], ctx[at])
        n1, *ln1 = layer_norm_oracle(h_at + dropout(ctx @ w["wo"] + w["bo"], at), w["ln1_g"], w["ln1_b"])
        f1 = n1 @ w["w1"] + w["b1"]
        g1 = gelu_oracle(f1)
        out, *ln2 = layer_norm_oracle(n1 + dropout(g1 @ w["w2"] + w["b2"], at), w["ln2_g"], w["ln2_b"])
        tape.append({"h_in": h, "qh": qh, "kh": kh, "vh": vh, "probs": probs, "ctx": ctx,
                     "ln1": ln1, "n1": n1, "f1": f1, "g1": g1, "ln2": ln2})
        h = out
    return h


def scatter_add(out, at, rows):
    """out with each row added at its position, one at a time as np.add.at does."""
    out = out.copy()
    for r, c, v in zip(*at, rows):
        out[r, c] = out[r, c] + v
    return out


def plain_backward(params, batch, kind, rng=None, whole_last_layer=False):
    """loss_and_grad as plain expressions over the kernel oracles: the loss
    value and every parameter gradient, each sum in the order of the formula.
    The last layer runs at the rows the loss reads, as in loss_and_grad, or,
    with ``whole_last_layer``, at every position, and the loss reads the rows
    from its output."""
    cfg, t = params.config, params.tensors
    ids, segs = batch.input_ids, batch.segment_ids
    B, L = ids.shape
    nh, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    positions = (batch.mask_rows, batch.mask_cols) if kind == "mlm" else np.nonzero(batch.valid_mask)
    tape = []
    if whole_last_layer:
        sel = plain_forward(params, ids, segs, batch.attention_mask, rng, tape)[positions]
    else:
        sel = plain_forward(params, ids, segs, batch.attention_mask, rng, tape, positions)
    grads = {k: np.zeros_like(v) for k, v in t.items()}

    def add(name, value):
        grads[name] = grads[name] + value

    def cross_entropy(logits, targets):
        z = logits - logits.max(-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(-1, keepdims=True))
        return -logp[np.arange(len(targets)), targets], np.exp(logp) - np.eye(logits.shape[-1])[targets]

    def undrop(dy, keep):
        return dy if keep is None else dy * keep

    def linear(p, n, x, dy):
        add(p + "w" + n, x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1]))
        add(p + "b" + n, dy.sum(tuple(range(dy.ndim - 1))))
        return dy @ t[p + "w" + n].T

    def layer_norm(name, dy, cache):
        dx, dg, db = layer_norm_backward_oracle(dy, t[name + "_g"], *cache)
        add(name + "_g", dg)
        add(name + "_b", db)
        return dx

    if kind == "mlm":
        nll, dlogits = cross_entropy(sel @ t["tok_emb"].T + t["mlm_bias"], batch.target_ids)
        value = nll.mean()
        dlogits = dlogits / len(nll)
        add("mlm_bias", dlogits.sum(0))
        add("tok_emb", dlogits.T @ sel)
        dsel = dlogits @ t["tok_emb"]
    else:
        logits = np.full((2, B, L), -np.inf)
        logits[0][positions] = sel @ t["qa_ws"] + t["qa_bs"]
        logits[1][positions] = sel @ t["qa_we"] + t["qa_be"]
        nll_s, dstart = cross_entropy(logits[0], batch.start_gold)
        nll_e, dend = cross_entropy(logits[1], batch.end_gold)
        value = (nll_s.sum() + nll_e.sum()) / (2.0 * B)
        dstart, dend = dstart[positions] / (2.0 * B), dend[positions] / (2.0 * B)
        for n, d in (("s", dstart), ("e", dend)):
            add("qa_w" + n, (d[:, None] * sel).sum(0))
            add("qa_b" + n, d.sum())
        dsel = dstart[:, None] * t["qa_ws"] + dend[:, None] * t["qa_we"]
    dh_out = scatter_add(np.zeros((B, L, cfg.d_model)), positions, dsel) if whole_last_layer else dsel

    for i in reversed(range(cfg.n_layers)):
        p = f"l{i}."
        at = None if whole_last_layer or i < cfg.n_layers - 1 else positions
        c, keep_f, keep_a = tape.pop(), tape.pop(), tape.pop()
        dr2 = layer_norm(p + "ln2", dh_out, c["ln2"])
        df1 = gelu_grad_oracle(linear(p, "2", c["g1"], undrop(dr2, keep_f)), c["f1"])
        dr1 = layer_norm(p + "ln1", linear(p, "1", c["n1"], df1) + dr2, c["ln1"])
        dctx = linear(p, "o", c["ctx"], undrop(dr1, keep_a))
        if at is not None:
            dctx = scatter_add(np.zeros((B, L, cfg.d_model)), at, dctx)
        dctx = dctx.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        probs = c["probs"]
        dprobs = dctx @ c["vh"].transpose(0, 1, 3, 2)
        dscores = (dprobs - (dprobs * probs).sum(-1, keepdims=True)) * probs
        dqh = (dscores @ c["kh"]) * (1.0 / math.sqrt(dh))
        dkh = (dscores.transpose(0, 1, 3, 2) @ c["qh"]) * (1.0 / math.sqrt(dh))
        dvh = probs.transpose(0, 1, 3, 2) @ dctx
        dxq, dxk, dxv = (
            linear(p, n, c["h_in"], d.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model))
            for n, d in zip("qkv", (dqh, dkh, dvh))
        )
        dh_out = dr1 + ((dxq + dxk) + dxv) if at is None else scatter_add((dxq + dxk) + dxv, at, dr1)

    dx = undrop(dh_out, tape.pop())
    grads["pos_emb"][:L] = grads["pos_emb"][:L] + dx.sum(0)
    for b, l in np.ndindex(B, L):  # np.add.at's order: one position at a time
        grads["tok_emb"][ids[b, l]] = grads["tok_emb"][ids[b, l]] + dx[b, l]
        grads["seg_emb"][segs[b, l]] = grads["seg_emb"][segs[b, l]] + dx[b, l]
    return value, grads


def bitwise_config(dropout):
    # head size 6: the score scale 1/sqrt(6) is not a power of two, so scaling early would round differently
    return ModelConfig(vocab_size=16, n_layers=2, n_heads=2, d_model=12, d_ff=16, max_len=16, dropout=dropout)


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_forward_matches_plain_expressions_bitwise(dropout):
    """Covers the in-place work outside the kernels: embedding sum, affine
    maps, score scaling and key bias, dropout and residual adds; for the whole
    batch and, in the training form, at a last layer computed at some rows."""
    cfg = bitwise_config(dropout)
    params = scaled_params(cfg, seed=5, scale=100.0)  # large pre-activations reach erf's saturation
    ids, segs, mask = make_inputs(cfg, seed=4, B=3, L=7, pad_from=5)
    rng = (lambda: np.random.default_rng(9)) if dropout else (lambda: None)
    want = plain_forward(params, ids, segs, mask, rng())
    assert_bitwise(forward(params, ids, segs, mask, dropout_rng=rng(), workspace=Workspace()), want)
    at = (np.array([2, 0, 1, 0, 2]), np.array([6, 3, 0, 3, 1]))  # a repeat and a padded position
    want_at = plain_forward(params, ids, segs, mask, rng(), positions=at)
    assert_bitwise(forward(params, ids, segs, mask, dropout_rng=rng(), positions=at, workspace=Workspace())[0], want_at)


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["mlm", "span"])
def test_loss_and_grad_matches_plain_backward_bitwise(dropout, kind):
    """Covers the in-place sums of the backward pass: the dscores update, the
    residual gradients and the four-way sum into each layer's input."""
    cfg = bitwise_config(dropout)
    params = scaled_params(cfg, seed=5)
    batch = make_mlm_batch(cfg, seed=4) if kind == "mlm" else make_qa_batch(cfg, seed=4)
    rng = (lambda: np.random.default_rng(9)) if dropout else (lambda: None)
    value, grads = loss_and_grad(params, batch, kind, dropout_rng=rng(), grads=zeroed_grads(params),
                                 workspace=Workspace())
    want_value, want_grads = plain_backward(params, batch, kind, rng())
    assert value == want_value
    assert grads.keys() == want_grads.keys()
    for name, grad in grads.items():
        assert_bitwise(grad, want_grads[name])


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["mlm", "span"])
def test_loss_and_grad_matches_whole_last_layer(kind, dropout, n_layers):
    """Computing the last layer at the read rows only is exact: the loss and
    every gradient equal those of a forward and backward that run the whole
    last layer, up to the rounding of sums over fewer rows."""
    cfg = ModelConfig(vocab_size=16, n_layers=n_layers, n_heads=2, d_model=12, d_ff=16, max_len=16, dropout=dropout)
    params = scaled_params(cfg, seed=5)
    batch = make_mlm_batch(cfg, seed=4) if kind == "mlm" else make_qa_batch(cfg, seed=4)
    rng = (lambda: np.random.default_rng(9)) if dropout else (lambda: None)
    value, grads = loss_and_grad(params, batch, kind, dropout_rng=rng(), grads=zeroed_grads(params),
                                 workspace=Workspace())
    want_value, want_grads = plain_backward(params, batch, kind, rng(), whole_last_layer=True)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, want_grads[name], rtol=1e-12, atol=0.0, err_msg=name)


def sized_batch(config, kind, seed, B, L):
    """A batch of shape (B, L), padded from column L - 1 on in every other row."""
    rng = np.random.default_rng(seed)
    ids, segs, mask = make_inputs(config, seed=seed, B=B, L=L)
    mask[1::2, L - 1:], ids[1::2, L - 1:] = 0.0, 0
    if kind == "mlm":
        rows, cols = rng.integers(0, B, size=B + 1), rng.integers(0, L - 1, size=B + 1)
        return MLMBatch(ids, segs, mask, rows, cols, rng.integers(0, config.vocab_size, size=B + 1))
    valid = np.zeros((B, L), dtype=bool)
    valid[:, 1 : L - 1] = True
    gold = rng.integers(1, L - 1, size=(2, B))
    return QABatch(ids, segs, mask, gold.min(0), gold.max(0), valid)


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["mlm", "span"])
def test_workspace_steps_match_fresh_arrays_bitwise(dropout, kind):
    """Steps that share one workspace and one gradient buffer, over batches
    that grow and shrink, give the loss and gradients of steps on a fresh
    workspace and of the plain expressions, bit for bit, on one layer and on
    two: no step reads another's leftovers, and no backward key that serves
    several arrays in turn is rewritten while one of them is still read."""
    for n_layers in (1, 2):
        cfg = dataclasses.replace(bitwise_config(dropout), n_layers=n_layers)
        params = scaled_params(cfg, seed=5)
        workspace = encoder.Workspace()
        grad = np.zeros_like(params.flat)
        grads = param_views(cfg, grad)
        for seed, (B, L) in enumerate([(3, 9), (2, 5), (4, 12), (1, 4), (3, 9)]):
            batch = sized_batch(cfg, kind, seed, B, L)
            rng = (lambda: np.random.default_rng(seed)) if dropout else (lambda: None)
            want_value, want_grads = loss_and_grad(params, batch, kind, dropout_rng=rng(),
                                                   grads=zeroed_grads(params), workspace=Workspace())
            grad.fill(0.0)
            value, got = loss_and_grad(params, batch, kind, dropout_rng=rng(), grads=grads, workspace=workspace)
            plain_value, plain_grads = plain_backward(params, batch, kind, rng())
            assert got is grads and value == want_value == plain_value
            for name, tensor in want_grads.items():
                assert_bitwise(grads[name], tensor)
                assert_bitwise(grads[name], plain_grads[name])


class ShapeRecordingWorkspace(Workspace):
    """A workspace that records each key's (shape, dtype) takes."""

    def __init__(self):
        super().__init__()
        self.takes: dict[str, set] = {}

    def take(self, key, shape, dtype=np.float64):
        self.takes.setdefault(key, set()).add((tuple(shape), np.dtype(dtype)))
        return super().take(key, shape, dtype)


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("kind", ["mlm", "span"])
def test_a_training_step_keeps_per_layer_only_the_ffn_arrays_its_backward_reads(kind, n_layers):
    """Of the float per-token arrays of width d_ff, a training step's
    workspace holds each layer's pre-activation and Phi, which the backward
    reads, plus two keys that serve every layer: _gelu's scratch, and GELU's
    output, which the FFN backward reuses for dx2. GELU's output is formed
    again in the backward rather than kept per layer."""
    cfg = dataclasses.replace(bitwise_config(0.2), n_layers=n_layers, d_ff=20)  # d_ff apart from vocab and d_model
    params = scaled_params(cfg, seed=5)
    workspace = ShapeRecordingWorkspace()
    batch = sized_batch(cfg, kind, 1, 3, 9)
    loss_and_grad(params, batch, kind, dropout_rng=np.random.default_rng(1), grads=zeroed_grads(params),
                  workspace=workspace)
    weight_shapes = {tensor.shape for tensor in params.tensors.values()}  # the weight-gradient products
    wide = sorted(key for key, takes in workspace.takes.items()
                  if any(dtype == np.float64 and shape[-1] == cfg.d_ff and shape not in weight_shapes
                         for shape, dtype in takes))
    assert len(wide) <= 2 * n_layers + 2, wide


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_cacheless_forwards_share_one_workspace_bitwise(dropout, n_layers):
    """One workspace drives forwards without a cache, whose layers all take
    one layer's keys, over batches whose widths grow and shrink. Each result
    equals, bit for bit, that of a fresh workspace and the plain expressions:
    a layer reads the layer below's output before it writes its own."""
    cfg = ModelConfig(vocab_size=16, n_layers=n_layers, n_heads=2, d_model=12, d_ff=16, max_len=16, dropout=dropout)
    params = scaled_params(cfg, seed=5)
    workspace = Workspace()
    for seed, (B, L) in enumerate([(3, 9), (2, 5), (4, 12), (1, 4), (3, 9)]):
        batch = sized_batch(cfg, "mlm", seed, B, L)
        inputs = (params, batch.input_ids, batch.segment_ids, batch.attention_mask)
        rng = (lambda: np.random.default_rng(seed)) if dropout else (lambda: None)
        got = forward(*inputs, dropout_rng=rng(), workspace=workspace)
        assert_bitwise(got, forward(*inputs, dropout_rng=rng(), workspace=Workspace()))
        assert_bitwise(got, plain_forward(*inputs, rng()))


# ---------------------------------------------------------------- no aliasing


def _snapshot(obj):
    return {k: v.copy() for k, v in vars(obj).items()}


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["mlm", "span"])
def test_step_leaves_inputs_unchanged_and_repeats_bitwise(dropout, kind):
    """forward and loss_and_grad read params and batch without writing them,
    and two calls on the same batch and dropout seed agree bit for bit."""
    cfg = ModelConfig(vocab_size=16, n_layers=2, n_heads=2, d_model=8, d_ff=16, max_len=16, dropout=dropout)
    params = scaled_params(cfg, seed=3)
    batch = make_mlm_batch(cfg, seed=2) if kind == "mlm" else make_qa_batch(cfg, seed=2)
    tensors, fields = {k: v.copy() for k, v in params.tensors.items()}, _snapshot(batch)

    def rng():
        return np.random.default_rng(7) if dropout else None

    h1 = forward(params, batch.input_ids, batch.segment_ids, batch.attention_mask, dropout_rng=rng(),
                 workspace=Workspace())
    value1, grads1 = loss_and_grad(params, batch, kind, dropout_rng=rng(), grads=zeroed_grads(params),
                                   workspace=Workspace())
    value2, grads2 = loss_and_grad(params, batch, kind, dropout_rng=rng(), grads=zeroed_grads(params),
                                   workspace=Workspace())
    h2 = forward(params, batch.input_ids, batch.segment_ids, batch.attention_mask, dropout_rng=rng(),
                 workspace=Workspace())
    assert value1 == value2
    assert_bitwise(h1, h2)
    for name in grads1:
        assert_bitwise(grads1[name], grads2[name])
        assert grads1[name] is not params.tensors[name]
    for name, tensor in params.tensors.items():
        assert_bitwise(tensor, tensors[name])
    for name, value in _snapshot(batch).items():
        assert_bitwise(value, fields[name])


# ----------------------------------------------------------------- loss heads


def test_mlm_logits_zero_hidden_equals_bias():
    params = scaled_params(TINY, seed=1)
    params.tensors["mlm_bias"][:] = np.linspace(-1.0, 1.0, 16)  # init leaves it at zero
    hidden = np.zeros((5, TINY.d_model))
    logits = mlm_logits(params, hidden[[0, 3]], Workspace())
    np.testing.assert_allclose(logits, np.broadcast_to(params.tensors["mlm_bias"], (2, 16)))


def test_mlm_logits_orthonormal_rows_argmax():
    params = init_params(TINY, seed=2)
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(TINY.d_model, TINY.d_model)))
    params.tensors["tok_emb"][: TINY.d_model] = q.T[: TINY.d_model]
    params.tensors["tok_emb"][TINY.d_model :] = 0.0
    params.tensors["mlm_bias"][:] = 0.0
    v = 5
    hidden = params.tensors["tok_emb"][v][None, :]
    logits = mlm_logits(params, hidden, Workspace())
    assert logits.argmax() == v


def test_mlm_logits_shape():
    params = scaled_params(TINY, seed=1)
    hidden = np.zeros((4, TINY.d_model))
    assert mlm_logits(params, hidden[[0, 1]], Workspace()).shape == (2, 16)


def test_qa_logits_matches_oracle():
    params = scaled_params(TINY, seed=3)
    rng = np.random.default_rng(1)
    hidden = rng.normal(size=(2, 6, TINY.d_model))
    start, end = qa_logits(params, hidden)
    t = params.tensors
    for b in range(2):
        for p in range(6):
            s = sum(hidden[b, p, k] * t["qa_ws"][k] for k in range(TINY.d_model)) + t["qa_bs"]
            e = sum(hidden[b, p, k] * t["qa_we"][k] for k in range(TINY.d_model)) + t["qa_be"]
            assert abs(start[b, p] - s) < 1e-10
            assert abs(end[b, p] - e) < 1e-10


def test_qa_logits_zero_hidden_is_bias_and_linear():
    params = scaled_params(TINY, seed=3)
    zeros = np.zeros((1, 4, TINY.d_model))
    start, end = qa_logits(params, zeros)
    np.testing.assert_allclose(start, float(params.tensors["qa_bs"]))
    np.testing.assert_allclose(end, float(params.tensors["qa_be"]))
    hidden = np.random.default_rng(2).normal(size=(1, 4, TINY.d_model))
    s1, _ = qa_logits(params, hidden)
    s3, _ = qa_logits(params, 3.0 * hidden)
    np.testing.assert_allclose(s3 - float(params.tensors["qa_bs"]), 3.0 * (s1 - float(params.tensors["qa_bs"])), rtol=1e-12)


# ------------------------------------------------------------- gradient check


def make_mlm_batch(config, seed=0):
    rng = np.random.default_rng(seed)
    ids, segs, mask = make_inputs(config, seed=seed, B=2, L=7, pad_from=5)
    return MLMBatch(
        input_ids=ids, segment_ids=segs, attention_mask=mask,
        mask_rows=np.array([0, 0, 1]), mask_cols=np.array([2, 4, 1]),
        target_ids=rng.integers(0, config.vocab_size, size=3),
    )


def make_qa_batch(config, seed=0):
    rng = np.random.default_rng(seed + 50)
    ids = rng.integers(5, config.vocab_size, size=(2, 8))
    segs = np.zeros((2, 8), dtype=np.int64)
    segs[:, 4:] = 1
    mask = np.ones((2, 8))
    valid = np.zeros((2, 8), dtype=bool)
    valid[:, 4:7] = True
    return QABatch(
        input_ids=ids, segment_ids=segs, attention_mask=mask,
        start_gold=np.array([4, 5]), end_gold=np.array([5, 6]), valid_mask=valid,
    )


def gradcheck(params, batch, loss_kind, h=1e-4, tol=1e-5, dropout_seed=None):
    """Central finite differences vs analytic gradient, per coordinate. With a
    dropout_seed every evaluation draws the same dropout masks."""

    def loss():
        rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
        return loss_and_grad(params, batch, loss_kind, dropout_rng=rng, grads=zeroed_grads(params),
                             workspace=Workspace())

    _, grads = loss()
    worst = 0.0
    for name, tensor in params.tensors.items():
        indices = np.ndindex(tensor.shape) if tensor.ndim else [()]
        for idx in indices:
            orig = tensor[idx]
            tensor[idx] = orig + h
            lp, _ = loss()
            tensor[idx] = orig - h
            lm, _ = loss()
            tensor[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[name][idx] if tensor.ndim else float(grads[name])
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            worst = max(worst, rel)
            assert rel <= tol, f"{name}{idx}: fd={fd:.3e} analytic={an:.3e} rel={rel:.3e}"
    return worst


def test_gradcheck_mlm_small():
    params = scaled_params(TINY, seed=2)
    gradcheck(params, make_mlm_batch(TINY, seed=3), "mlm")


def test_gradcheck_span_small():
    params = scaled_params(TINY, seed=2)
    gradcheck(params, make_qa_batch(TINY, seed=3), "span")


def test_gradcheck_with_dropout_mask_fixed():
    """Gradient is exact for a *fixed* dropout mask (same rng seed per eval)."""
    cfg = ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=16, max_len=16, dropout=0.2)
    params = scaled_params(cfg, seed=2)
    batch = make_mlm_batch(cfg, seed=1)
    _, grads = loss_and_grad(params, batch, "mlm", dropout_rng=np.random.default_rng(5), grads=zeroed_grads(params),
                             workspace=Workspace())
    h = 1e-4
    name, idx = "l0.wq", (0, 0)
    tensor = params.tensors[name]
    orig = tensor[idx]
    tensor[idx] = orig + h
    lp, _ = loss_and_grad(params, batch, "mlm", dropout_rng=np.random.default_rng(5), grads=zeroed_grads(params),
                          workspace=Workspace())
    tensor[idx] = orig - h
    lm, _ = loss_and_grad(params, batch, "mlm", dropout_rng=np.random.default_rng(5), grads=zeroed_grads(params),
                          workspace=Workspace())
    tensor[idx] = orig
    fd = (lp - lm) / (2 * h)
    assert abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-6) < 1e-4


def test_gradcheck_two_layers_padded_with_dropout():
    """Every coordinate of a two-layer stack, with padded keys and all three
    dropout masks fixed: covers the layer-to-layer backward path."""
    cfg = ModelConfig(vocab_size=12, n_layers=2, n_heads=2, d_model=8, d_ff=8, max_len=8, dropout=0.2)
    params = scaled_params(cfg, seed=2)
    gradcheck(params, make_mlm_batch(cfg, seed=1), "mlm", tol=1e-4, dropout_seed=5)


SCATTER_CFG = ModelConfig(vocab_size=12, n_layers=2, n_heads=2, d_model=8, d_ff=8, max_len=8, dropout=0.2)


def test_gradcheck_mlm_repeated_position():
    """A batch that reads one (row, col) twice: the last layer computes that
    row twice, and both row gradients add into the attention backward."""
    params = scaled_params(SCATTER_CFG, seed=2)
    batch = make_mlm_batch(SCATTER_CFG, seed=1)
    batch.mask_rows, batch.mask_cols = np.array([0, 1, 0, 1]), np.array([2, 1, 4, 1])
    batch.target_ids = np.array([3, 7, 9, 4])
    gradcheck(params, batch, "mlm", tol=1e-4, dropout_seed=5)


def test_gradcheck_span_uneven_windows_and_padded_row():
    """Rows with different valid windows, and one row padded past its
    window: the span rows scatter into a batch whose unread rows differ."""
    params = scaled_params(SCATTER_CFG, seed=2)
    rng = np.random.default_rng(6)
    ids = rng.integers(5, SCATTER_CFG.vocab_size, size=(3, 8))
    segs = np.zeros((3, 8), dtype=np.int64)
    segs[:, 3:] = 1
    mask = np.ones((3, 8))
    mask[2, 6:], ids[2, 6:], segs[2, 6:] = 0.0, 0, 0
    valid = np.zeros((3, 8), dtype=bool)
    valid[0, 4:7], valid[1, 3:8], valid[2, 4:6] = True, True, True
    batch = QABatch(input_ids=ids, segment_ids=segs, attention_mask=mask,
                    start_gold=np.array([4, 3, 4]), end_gold=np.array([6, 5, 5]), valid_mask=valid)
    gradcheck(params, batch, "span", tol=1e-4, dropout_seed=5)


def test_read_positions_are_checked():
    params = scaled_params(TINY, seed=1)
    ids, segs, mask = make_inputs(TINY, seed=3, B=2, L=7)
    for rows, cols in (([0, 2], [1, 1]), ([0, 1], [7, 0]), ([-1], [0]), ([0, 1], [1]), ([[0]], [[1]])):
        with pytest.raises(ValueError):
            forward(params, ids, segs, mask, positions=(np.array(rows), np.array(cols)), workspace=Workspace())


def test_loss_value_matches_oracle():
    """mlm: mean cross-entropy over masked slots; span: half-sum of start and
    end cross-entropies over each row's valid positions, averaged over rows."""
    params = scaled_params(TINY, seed=4)
    mlm = make_mlm_batch(TINY, seed=5)
    hidden = forward(params, mlm.input_ids, mlm.segment_ids, mlm.attention_mask, workspace=Workspace())
    nll = [
        ce_oracle(list(hidden[r, c] @ params.tensors["tok_emb"].T + params.tensors["mlm_bias"]), t)
        for r, c, t in zip(mlm.mask_rows, mlm.mask_cols, mlm.target_ids)
    ]
    value, _ = loss_and_grad(params, mlm, "mlm", grads=zeroed_grads(params), workspace=Workspace())
    assert abs(value - sum(nll) / len(nll)) <= 1e-10

    qa = make_qa_batch(TINY, seed=5)
    qa.valid_mask[1, 3:8] = True  # rows differ in their valid positions
    hidden = forward(params, qa.input_ids, qa.segment_ids, qa.attention_mask, workspace=Workspace())
    start, end = qa_logits(params, hidden)
    total = 0.0
    for b in range(len(qa.input_ids)):
        ctx = list(np.flatnonzero(qa.valid_mask[b]))
        total += ce_oracle([start[b, p] for p in ctx], ctx.index(qa.start_gold[b]))
        total += ce_oracle([end[b, p] for p in ctx], ctx.index(qa.end_gold[b]))
    value, _ = loss_and_grad(params, qa, "span", grads=zeroed_grads(params), workspace=Workspace())
    assert abs(value - total / (2 * len(qa.input_ids))) <= 1e-10


def test_loss_identical_samples_equals_single():
    params = scaled_params(TINY, seed=3)
    single = make_qa_batch(TINY, seed=2)
    double = QABatch(
        input_ids=np.concatenate([single.input_ids[:1]] * 2),
        segment_ids=np.concatenate([single.segment_ids[:1]] * 2),
        attention_mask=np.concatenate([single.attention_mask[:1]] * 2),
        start_gold=np.array([single.start_gold[0]] * 2),
        end_gold=np.array([single.end_gold[0]] * 2),
        valid_mask=np.concatenate([single.valid_mask[:1]] * 2),
    )
    one = QABatch(
        input_ids=single.input_ids[:1], segment_ids=single.segment_ids[:1],
        attention_mask=single.attention_mask[:1], start_gold=single.start_gold[:1],
        end_gold=single.end_gold[:1], valid_mask=single.valid_mask[:1],
    )
    l2, _ = loss_and_grad(params, double, "span", grads=zeroed_grads(params), workspace=Workspace())
    l1, _ = loss_and_grad(params, one, "span", grads=zeroed_grads(params), workspace=Workspace())
    assert abs(l2 - l1) < 1e-12


def test_loss_errors(monkeypatch):
    params = scaled_params(TINY, seed=1)
    monkeypatch.setattr(encoder, "forward", None)  # raised before the forward runs
    batch = make_mlm_batch(TINY, seed=0)
    empty = MLMBatch(batch.input_ids, batch.segment_ids, batch.attention_mask,
                     np.array([], dtype=int), np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(NoMaskedPositionsError):
        loss_and_grad(params, empty, "mlm", grads=zeroed_grads(params), workspace=Workspace())
    qa = make_qa_batch(TINY, seed=0)
    qa.start_gold = np.array([0, 5])  # position 0 is outside the valid mask
    with pytest.raises(GoldPositionMaskedError):
        loss_and_grad(params, qa, "span", grads=zeroed_grads(params), workspace=Workspace())
    short = make_mlm_batch(TINY, seed=0)
    short.target_ids = short.target_ids[:2]
    with pytest.raises(ValueError):
        loss_and_grad(params, short, "mlm", grads=zeroed_grads(params), workspace=Workspace())
    narrow = make_qa_batch(TINY, seed=0)
    narrow.valid_mask = narrow.valid_mask[:, :5]
    with pytest.raises(ValueError):
        loss_and_grad(params, narrow, "span", grads=zeroed_grads(params), workspace=Workspace())


def test_weight_tying_is_object_identity():
    params = scaled_params(TINY, seed=1)
    hidden = np.ones((3, TINY.d_model))
    before = mlm_logits(params, hidden[[0]], Workspace()).copy()
    params.tensors["tok_emb"] += 1.0  # mutate the shared matrix
    after = mlm_logits(params, hidden[[0]], Workspace())
    assert not np.allclose(before, after)  # no stale copy anywhere


# ------------------------------------------------------------------ misc API


def test_param_shapes_complete():
    shapes = param_shapes(TINY)
    params = init_params(TINY, seed=0)
    assert set(shapes) == set(params.tensors)
    for name, shape in shapes.items():
        assert params.tensors[name].shape == shape


def test_init_deterministic():
    a = init_params(TINY, seed=42)
    b = init_params(TINY, seed=42)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
    assert np.all(a.tensors["l0.ln1_g"] == 1.0)
    assert np.all(a.tensors["l0.bq"] == 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=16, d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=16, dropout=1.0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)


def test_checkpoint_round_trip(tmp_path):
    params = scaled_params(TINY, seed=9)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, meta={"config_hash": "abc"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"config_hash": "abc"}
    assert loaded.config == TINY
    for name in params.tensors:
        np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
    # deterministic bytes
    path2 = tmp_path / "model2.bin"
    save_checkpoint(path2, loaded, meta={"config_hash": "abc"})
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ArtifactMismatchError):
        load_checkpoint(path)
    good = tmp_path / "good.bin"
    save_checkpoint(good, init_params(TINY, seed=0))
    path.write_bytes(good.read_bytes() + b"\0")
    with pytest.raises(ArtifactMismatchError, match="trailing bytes"):
        load_checkpoint(path)
    magic = good.read_bytes().split(b"\n", 1)[0] + b"\n"
    bad_config = {"config": {"vocab_size": 0}, "meta": {}, "tensors": []}
    # Dims that pass a `< 1` check but are not ints, each with tensors whose shapes match them.
    float_dim = json.loads(good.read_bytes().split(b"\n", 2)[1])
    float_dim["config"]["max_len"] = 6.0
    float_dim["tensors"] = [[name, [6, 8] if name == "pos_emb" else shape] for name, shape in float_dim["tensors"]]
    bool_dim = json.loads(good.read_bytes().split(b"\n", 2)[1])
    bool_dim["config"]["n_layers"] = True
    for header in (b"not json", b"\xff\xfe", b"[1]", b'{"config": {}}', b'{"config": {"vocab_size": 16}}',
                   json.dumps(bad_config).encode(), b'{"config": {"vocab_size": 16}, "meta": [], "tensors": []}',
                   b'{"config": {"vocab_size": 16}, "meta": {}, "tensors": [[["tok_emb"], [16, 8]]]}',
                   json.dumps(float_dim).encode(), json.dumps(bool_dim).encode()):
        path.write_bytes(magic + header + b"\n")
        with pytest.raises(ArtifactMismatchError, match="bad.bin"):
            load_checkpoint(path)


def test_checkpoint_body_is_the_parameter_buffer(tmp_path):
    """The body is params.flat's bytes; a short body is refused, naming the
    tensor it cuts; a header whose tensors are out of layout order, or a
    tensor rebound off the buffer, is refused."""
    params = scaled_params(TINY, seed=9)
    path = tmp_path / "model.bin"
    save_checkpoint(path, params)
    magic, header, body = path.read_bytes().split(b"\n", 2)
    assert body == params.flat.astype("<f8").tobytes()
    names = [name for name, *_ in param_layout(TINY)]
    assert names == sorted(params.tensors) == [name for name, _ in json.loads(header)["tensors"]]

    head = path.read_bytes()[: -len(body)]
    bad = tmp_path / "bad.bin"
    for name, _, start, stop in param_layout(TINY):
        for cut in (8 * start, 8 * stop - 1):
            bad.write_bytes(head + body[:cut])
            with pytest.raises(ArtifactMismatchError, match=f"truncated tensor '{name}'"):
                load_checkpoint(bad)

    tensors = json.loads(header)["tensors"]
    swapped = dict(json.loads(header), tensors=[tensors[1], tensors[0], *tensors[2:]])
    bad.write_bytes(magic + b"\n" + json.dumps(swapped).encode() + b"\n" + body)
    with pytest.raises(ArtifactMismatchError, match="order"):
        load_checkpoint(bad)

    params.tensors["l0.wq"] = params.tensors["l0.wq"].copy()
    with pytest.raises(ValueError, match="l0.wq"):
        save_checkpoint(tmp_path / "detached.bin", params)
    assert not (tmp_path / "detached.bin").exists()


def test_params_copy_is_one_new_buffer():
    params = scaled_params(TINY, seed=9)
    copy = params.copy()
    assert not np.shares_memory(copy.flat, params.flat)
    assert_bitwise(copy.flat, params.flat)
    for name, tensor in copy.tensors.items():
        assert np.shares_memory(tensor, copy.flat), name
        assert_bitwise(tensor, params.tensors[name])
    copy.tensors["qa_bs"][...] += 1.0
    assert float(copy.tensors["qa_bs"]) != float(params.tensors["qa_bs"])
