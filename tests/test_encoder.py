import math

import numpy as np
import pytest

from kiqa.encoder import (
    EncoderParams,
    MLMBatch,
    ModelConfig,
    QABatch,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    mlm_logits,
    param_shapes,
    qa_logits,
    save_checkpoint,
)
from kiqa.errors import ArtifactMismatchError, GoldPositionMaskedError, NoMaskedPositionsError

from conftest import ce_oracle

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
    got = forward(params, ids, segs, mask)[0]
    want = oracle_forward(params, ids[0], segs[0])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_forward_single_token():
    params = scaled_params(TINY, seed=4)
    ids = np.array([[7]])
    segs = np.array([[1]])
    got = forward(params, ids, segs, np.ones((1, 1)))[0]
    want = oracle_forward(params, [7], [1])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_attention_rows_sum_to_one():
    params = scaled_params(TINY, seed=1)
    ids, segs, mask = make_inputs(TINY, seed=3, B=2, L=7, pad_from=5)
    _, cache = forward(params, ids, segs, mask, return_cache=True)
    probs = cache["layers"][0]["probs"]  # (B, heads, L, L)
    sums = probs.sum(-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)
    # no attention mass on padded keys
    assert np.all(probs[:, :, :, 5:] == 0.0)


def test_pad_positions_do_not_affect_real_tokens():
    params = scaled_params(TINY, seed=1)
    ids, segs, mask = make_inputs(TINY, seed=5, B=1, L=7, pad_from=5)
    base = forward(params, ids, segs, mask)
    ids2 = ids.copy()
    ids2[0, 5], ids2[0, 6] = ids2[0, 6], ids2[0, 5]  # permute PAD slot contents
    ids2[0, 5] = 3
    perturbed = forward(params, ids2, segs, mask)
    np.testing.assert_array_equal(base[0, :5], perturbed[0, :5])


def test_forward_deterministic_without_dropout():
    params = scaled_params(TINY, seed=6)
    ids, segs, mask = make_inputs(TINY, seed=7)
    np.testing.assert_array_equal(forward(params, ids, segs, mask), forward(params, ids, segs, mask))


def test_dropout_reproducible_with_seeded_rng():
    cfg = ModelConfig(vocab_size=16, n_layers=1, n_heads=2, d_model=8, d_ff=16, max_len=16, dropout=0.3)
    params = scaled_params(cfg, seed=6)
    ids, segs, mask = make_inputs(cfg, seed=7)
    a = forward(params, ids, segs, mask, dropout_rng=np.random.default_rng(11))
    b = forward(params, ids, segs, mask, dropout_rng=np.random.default_rng(11))
    c = forward(params, ids, segs, mask, dropout_rng=np.random.default_rng(12))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_permutation_equivariance_without_positions():
    params = scaled_params(TINY, seed=8)
    params.tensors["pos_emb"][:] = 0.0
    params.tensors["seg_emb"][:] = 0.0
    ids, segs, mask = make_inputs(TINY, seed=9, B=1, L=6)
    perm = np.array([3, 1, 5, 0, 4, 2])
    base = forward(params, ids, segs, mask)
    permuted = forward(params, ids[:, perm], segs[:, perm], mask)
    np.testing.assert_allclose(base[0, perm], permuted[0], rtol=1e-12, atol=1e-14)


def test_forward_input_validation():
    params = scaled_params(TINY, seed=1)
    with pytest.raises(ValueError):
        forward(params, np.array([[99]]), np.array([[0]]), np.ones((1, 1)))  # id out of range
    with pytest.raises(ValueError):
        forward(params, np.zeros((1, 20), dtype=int), np.zeros((1, 20), dtype=int), np.ones((1, 20)))
    with pytest.raises(ValueError):
        forward(params, np.zeros((1, 4), dtype=int), np.zeros((1, 3), dtype=int), np.ones((1, 4)))


# ----------------------------------------------------------------- loss heads


def test_mlm_logits_zero_hidden_equals_bias():
    params = scaled_params(TINY, seed=1)
    hidden = np.zeros((5, TINY.d_model))
    logits = mlm_logits(params, hidden, [0, 3])
    np.testing.assert_allclose(logits, np.broadcast_to(params.tensors["mlm_bias"], (2, 16)))


def test_mlm_logits_orthonormal_rows_argmax():
    params = init_params(TINY, seed=2)
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(TINY.d_model, TINY.d_model)))
    params.tensors["tok_emb"][: TINY.d_model] = q.T[: TINY.d_model]
    params.tensors["tok_emb"][TINY.d_model :] = 0.0
    params.tensors["mlm_bias"][:] = 0.0
    v = 5
    hidden = params.tensors["tok_emb"][v][None, :]
    logits = mlm_logits(params, hidden, [0])
    assert logits.argmax() == v


def test_mlm_logits_shape_and_range_check():
    params = scaled_params(TINY, seed=1)
    hidden = np.zeros((4, TINY.d_model))
    assert mlm_logits(params, hidden, [0, 1]).shape == (2, 16)
    with pytest.raises(ValueError):
        mlm_logits(params, hidden, [4])


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


def gradcheck(params, batch, loss_kind, h=1e-4, tol=1e-5):
    """Central finite differences vs analytic gradient, per coordinate."""
    _, grads = loss_and_grad(params, batch, loss_kind)
    worst = 0.0
    for name, tensor in params.tensors.items():
        indices = np.ndindex(tensor.shape) if tensor.ndim else [()]
        for idx in indices:
            orig = tensor[idx]
            tensor[idx] = orig + h
            lp, _ = loss_and_grad(params, batch, loss_kind)
            tensor[idx] = orig - h
            lm, _ = loss_and_grad(params, batch, loss_kind)
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
    _, grads = loss_and_grad(params, batch, "mlm", dropout_rng=np.random.default_rng(5))
    h = 1e-4
    name, idx = "l0.wq", (0, 0)
    tensor = params.tensors[name]
    orig = tensor[idx]
    tensor[idx] = orig + h
    lp, _ = loss_and_grad(params, batch, "mlm", dropout_rng=np.random.default_rng(5))
    tensor[idx] = orig - h
    lm, _ = loss_and_grad(params, batch, "mlm", dropout_rng=np.random.default_rng(5))
    tensor[idx] = orig
    fd = (lp - lm) / (2 * h)
    assert abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-6) < 1e-4


def test_loss_value_matches_oracle():
    """mlm: mean cross-entropy over masked slots; span: half-sum of start and
    end cross-entropies over each row's valid positions, averaged over rows."""
    params = scaled_params(TINY, seed=4)
    mlm = make_mlm_batch(TINY, seed=5)
    hidden = forward(params, mlm.input_ids, mlm.segment_ids, mlm.attention_mask)
    nll = [
        ce_oracle(list(mlm_logits(params, hidden[r], [c])[0]), t)
        for r, c, t in zip(mlm.mask_rows, mlm.mask_cols, mlm.target_ids)
    ]
    value, _ = loss_and_grad(params, mlm, "mlm")
    assert abs(value - sum(nll) / len(nll)) <= 1e-10

    qa = make_qa_batch(TINY, seed=5)
    qa.valid_mask[1, 3:8] = True  # rows differ in their valid positions
    hidden = forward(params, qa.input_ids, qa.segment_ids, qa.attention_mask)
    start, end = qa_logits(params, hidden)
    total = 0.0
    for b in range(len(qa.input_ids)):
        ctx = list(np.flatnonzero(qa.valid_mask[b]))
        total += ce_oracle([start[b, p] for p in ctx], ctx.index(qa.start_gold[b]))
        total += ce_oracle([end[b, p] for p in ctx], ctx.index(qa.end_gold[b]))
    value, _ = loss_and_grad(params, qa, "span")
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
    l2, _ = loss_and_grad(params, double, "span")
    l1, _ = loss_and_grad(params, one, "span")
    assert abs(l2 - l1) < 1e-12


def test_loss_errors():
    params = scaled_params(TINY, seed=1)
    batch = make_mlm_batch(TINY, seed=0)
    empty = MLMBatch(batch.input_ids, batch.segment_ids, batch.attention_mask,
                     np.array([], dtype=int), np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(NoMaskedPositionsError):
        loss_and_grad(params, empty, "mlm")
    qa = make_qa_batch(TINY, seed=0)
    qa.start_gold = np.array([0, 5])  # position 0 is outside the valid mask
    with pytest.raises(GoldPositionMaskedError):
        loss_and_grad(params, qa, "span")


def test_weight_tying_is_object_identity():
    params = scaled_params(TINY, seed=1)
    hidden = np.ones((3, TINY.d_model))
    before = mlm_logits(params, hidden, [0]).copy()
    params.tensors["tok_emb"] += 1.0  # mutate the shared matrix
    after = mlm_logits(params, hidden, [0])
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
