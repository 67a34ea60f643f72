"""Backbone structure, mask-driven attention, and gradient checks."""

import tracemalloc

import numpy as np
import pytest

from outpainter.backbone import (
    Attention,
    Backbone,
    BackboneConfig,
    Block,
    MaskScaler,
    feature_stats,
    mask_multipliers,
    position_encoding,
    tokenize,
    untokenize,
)
from outpainter.nn import layer_norm, sinusoid_table
from outpainter.tensor import Tensor, no_grad


# standardized control features for small_cfg's d_model on 8 tokens
ZERO_FEATURES = Tensor(np.zeros((8, 16)))


def small_cfg(**kw):
    base = dict(n_blocks=2, d_model=16, n_heads=2, gamma=0.5, mlp_ratio=4, d_latent=48)
    base.update(kw)
    return BackboneConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        BackboneConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        BackboneConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        BackboneConfig(n_blocks=1)


def test_untokenize_keeps_leading_axes():
    rng = np.random.default_rng(19)
    z = rng.standard_normal((2, 3, 5, 4, 6))
    tokens = np.stack([tokenize(zi) for zi in z])
    np.testing.assert_array_equal(untokenize(tokens, (3, 5, 4)), z)


def test_token_count_and_order():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, 2, 2, 48))
    tok = tokenize(z)
    assert tok.shape == (8, 48)
    # frame-major, row-major, column fastest: token i <-> (r, c, f)
    h, w, s = 2, 2, 2
    for i in range(8):
        f, rest = divmod(i, h * w)
        r, c = divmod(rest, w)
        np.testing.assert_array_equal(tok[i], z[r, c, f])
    np.testing.assert_array_equal(tok[1], z[0, 1, 0])
    np.testing.assert_array_equal(tok[2], z[1, 0, 0])
    np.testing.assert_array_equal(tok[4], z[0, 0, 1])


def test_tokenize_untokenize_bijection():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((3, 5, 4, 6))
    np.testing.assert_array_equal(untokenize(tokenize(z), (3, 5, 4)), z)
    zt = Tensor(z)
    np.testing.assert_array_equal(untokenize(tokenize(zt), (3, 5, 4)).data, z)


def test_position_encoding_cached_read_only():
    pe = position_encoding((2, 3, 4), 16)
    assert position_encoding((2, 3, 4), 16) is pe
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0


def test_position_encoding_distinguishes_axes():
    pe = position_encoding((2, 3, 4), 16)
    assert pe.shape == (24, 16)
    # all tokens get distinct encodings on this grid
    assert len({tuple(np.round(row, 9)) for row in pe}) == 24
    # chunked structure: row / col / frame own disjoint channel ranges
    rows, cols, frames = (sinusoid_table(np.arange(n), d) for n, d in ((2, 4), (3, 4), (4, 8)))
    for idx in (0, 7, 23):
        f, rest = divmod(idx, 6)
        r, c = divmod(rest, 3)
        np.testing.assert_allclose(pe[idx], np.concatenate([rows[r], cols[c], frames[f]]),
                                   atol=1e-12)


def test_every_accepted_d_model_encodes_sites_distinctly():
    accepted = []
    for d_model in range(1, 65):
        try:
            BackboneConfig(d_model=d_model, n_heads=1)
        except ValueError:
            continue
        accepted.append(d_model)
        pe = position_encoding((3, 3, 2), d_model)
        assert len({tuple(np.round(row, 9)) for row in pe}) == 18, d_model
    assert accepted == list(range(6, 65, 2))


def test_mask_scaler_bounded():
    rng = np.random.default_rng(2)
    scaler = MaskScaler(rng)
    # blow up the weights to probe saturation
    scaler.fc1.W.data *= 50
    scaler.fc2.W.data *= 50
    x = Tensor(rng.uniform(-100, 100, size=(10**6 // 100, 1)))
    for _ in range(100):
        y = scaler(x).data
        assert (y >= -1).all() and (y <= 1).all()
        x = Tensor(rng.uniform(-1000, 1000, size=x.shape))


def test_mask_multipliers_gamma_zero_and_range():
    rng = np.random.default_rng(3)
    scaler = MaskScaler(rng)
    m = Tensor(rng.uniform(0, 1, size=(20, 1)))
    np.testing.assert_array_equal(mask_multipliers(scaler, m, 0.0).data, 1.0)
    mult = mask_multipliers(scaler, m, 0.5).data
    assert (mult >= 0.5).all() and (mult <= 1.5).all()
    # saturated F output of -1 gives multiplier 1 - gamma
    sat = MaskScaler(rng)
    sat.fc1.W.data[:] = 100.0
    sat.fc1.b.data[:] = 0.0
    sat.fc2.W.data[:] = -100.0
    sat.fc2.b.data[:] = 0.0
    out = mask_multipliers(sat, Tensor(np.ones((1, 1))), 0.5).data
    np.testing.assert_allclose(out, 0.5, atol=1e-12)


def standard_attention(q, k, v, n_heads):
    """Plain multi-head attention on raw arrays, for the reduction check."""
    L, d = q.shape
    dh = d // n_heads
    out = np.empty((L, d))
    for h in range(n_heads):
        qs, ks, vs = (a[:, h * dh:(h + 1) * dh] for a in (q, k, v))
        logits = qs @ ks.T / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        out[:, h * dh:(h + 1) * dh] = a @ vs
    return out


def test_uniform_multipliers_reduce_to_standard_attention():
    rng = np.random.default_rng(4)
    attn = Attention(rng, d_model=16, n_heads=4)
    x = Tensor(rng.standard_normal((10, 16)))
    ones = Tensor(np.ones((10, 1)))
    got = attn(x, ones).data
    q, k, v = attn.wq(x).data, attn.wk(x).data, attn.wv(x).data
    ref = standard_attention(q, k, v, 4) @ attn.wo.W.data + attn.wo.b.data
    assert np.abs(got - ref).max() <= 1e-12


def test_attention_single_token_returns_value_row():
    rng = np.random.default_rng(5)
    attn = Attention(rng, d_model=8, n_heads=2)
    x = Tensor(rng.standard_normal((1, 8)))
    got = attn(x, Tensor(np.ones((1, 1)))).data
    ref = attn.wv(x).data @ attn.wo.W.data + attn.wo.b.data
    np.testing.assert_allclose(got, ref, atol=1e-14)


def test_attention_rows_sum_to_one_any_multipliers():
    rng = np.random.default_rng(6)
    for _ in range(10):
        L, H, dh = 7, 2, 3
        q = Tensor(rng.standard_normal((L, H * dh)))
        mult = Tensor(rng.uniform(0.5, 1.5, size=(L, 1)))
        attn = Attention(rng, H * dh, H)
        # probe the softmax through a value matrix of ones: output pre-wo
        # equals row sums of attention weights
        attn.wv.W.data[:] = 0.0
        attn.wv.b.data[:] = 1.0
        attn.wo.W.data = np.eye(H * dh)
        attn.wo.b.data[:] = 0.0
        out = attn(q, mult).data
        np.testing.assert_allclose(out, 1.0, atol=1e-12)


def test_attention_multiplier_length_mismatch():
    rng = np.random.default_rng(7)
    attn = Attention(rng, 8, 2)
    with pytest.raises(ValueError):
        attn(Tensor(np.zeros((4, 8))), Tensor(np.ones((3, 1))))


def test_batched_attention_equals_per_slice():
    rng = np.random.default_rng(17)
    attn = Attention(rng, d_model=16, n_heads=4)
    x = rng.standard_normal((3, 10, 16))
    mult = Tensor(rng.uniform(0.5, 1.5, size=(10, 1)))
    with no_grad():
        got = attn(Tensor(x), mult).data
        for i in range(3):
            np.testing.assert_array_equal(got[i], attn(Tensor(x[i]), mult).data)


def test_attention_keeps_one_score_array():
    # at 464 tokens an (L, L) score tile dwarfs everything else the call
    # holds; under no_grad one tile serves every head in turn, and softmax
    # computes in it instead of a second buffer
    rng = np.random.default_rng(18)
    L, d, heads = 464, 64, 4
    attn = Attention(rng, d_model=d, n_heads=heads)
    x, mult = Tensor(rng.standard_normal((L, d))), Tensor(np.ones((L, 1)))
    tile_bytes = L * L * 8
    with no_grad():
        ref = attn(x, mult).data
        tracemalloc.start()
        try:
            got = attn(x, mult).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    np.testing.assert_array_equal(got, ref)
    assert peak < 2 * tile_bytes, f"peak {peak / tile_bytes:.2f} score tiles"


def test_attention_refuses_heads_that_do_not_divide_the_width():
    with pytest.raises(ValueError, match="d_model 10 not divisible by 4 heads"):
        Attention(np.random.default_rng(0), 10, 4)


def test_two_token_hand_computed_attention():
    # single head, d_k = 2, worked out scalar by scalar
    rng = np.random.default_rng(8)
    attn = Attention(rng, 2, 1)
    x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    g = 1.25  # common multiplier for both tokens
    mult = Tensor(np.full((2, 1), g))
    q, k, v = attn.wq(x).data, attn.wk(x).data, attn.wv(x).data
    import math

    expect = np.empty((2, 2))
    for i in range(2):
        l0 = g * (q[i, 0] * k[0, 0] + q[i, 1] * k[0, 1]) / math.sqrt(2)
        l1 = g * (q[i, 0] * k[1, 0] + q[i, 1] * k[1, 1]) / math.sqrt(2)
        e0, e1 = math.exp(l0), math.exp(l1)
        a0, a1 = e0 / (e0 + e1), e1 / (e0 + e1)
        expect[i, 0] = a0 * v[0, 0] + a1 * v[1, 0]
        expect[i, 1] = a0 * v[0, 1] + a1 * v[1, 1]
    expect = expect @ attn.wo.W.data + attn.wo.b.data
    np.testing.assert_allclose(attn(x, mult).data, expect, atol=1e-12)


def test_block_zero_init_matches_plain_prenorm():
    rng = np.random.default_rng(9)
    cfg = small_cfg()
    block = Block(rng, cfg)
    x = Tensor(rng.standard_normal((6, 16)))
    cond = Tensor(rng.standard_normal(16))
    mult = Tensor(np.ones((6, 1)))
    got = block(x, cond, mult).data
    # plain pre-norm: x + attn(LN(x)); x + mlp(LN(x))
    h = layer_norm(x)
    y = x + block.attn(h, mult)
    ref = (y + block.mlp_fc2(block.mlp_fc1(layer_norm(y)).tanh())).data
    np.testing.assert_allclose(got, ref, atol=1e-14)


def test_block_residual_identity_when_branches_zeroed():
    rng = np.random.default_rng(10)
    block = Block(rng, small_cfg())
    block.attn.wo.W.data[:] = 0.0
    block.attn.wo.b.data[:] = 0.0
    block.mlp_fc2.W.data[:] = 0.0
    block.mlp_fc2.b.data[:] = 0.0
    x = np.random.default_rng(1).standard_normal((5, 16))
    out = block(Tensor(x), Tensor(np.zeros(16)), Tensor(np.ones((5, 1)))).data
    np.testing.assert_array_equal(out, x)


def _fd_check_params(loss_fn, params, tol=1e-4, step=1e-5, sample_at_most=None, rng=None):
    """Tape gradient vs central differences for every named parameter."""
    loss = loss_fn()
    loss.backward()
    for name, p in params:
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        idxs = range(flat.size)
        if sample_at_most is not None and flat.size > sample_at_most:
            idxs = rng.choice(flat.size, size=sample_at_most, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            with no_grad():
                hi = loss_fn().item()
            flat[i] = orig - step
            with no_grad():
                lo = loss_fn().item()
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            err = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
            assert err <= tol, f"{name}[{i}]: tape {gflat[i]:.6e} fd {fd:.6e} rel {err:.2e}"


def test_single_block_gradient_check():
    rng = np.random.default_rng(11)
    block = Block(rng, small_cfg())
    # move conditioning off the zero init so its gradients are exercised
    for _, p in block.named_params():
        p.data += rng.normal(0, 0.05, size=p.data.shape)
    x = rng.standard_normal((4, 16))
    cond = rng.standard_normal(16)
    m = rng.uniform(0, 1, size=(4, 1))
    target = rng.standard_normal((4, 16))

    def loss_fn():
        out = block(Tensor(x), Tensor(cond), mask_multipliers(block.scaler, Tensor(m), 0.5))
        return ((out - target) ** 2).mean()

    _fd_check_params(loss_fn, block.named_params(), sample_at_most=6,
                     rng=np.random.default_rng(0))


def test_backbone_forward_shape_and_injection_zero():
    # zero features add exactly block 1's live per-channel mean
    rng = np.random.default_rng(12)
    cfg = small_cfg()
    bb = Backbone(cfg, rng)
    z = rng.standard_normal((2, 2, 2, 48))
    mult = bb.multipliers(rng.uniform(0, 1, size=(8, 1)))
    with no_grad():
        out = bb.forward(z, 10, mult, None, ZERO_FEATURES).data
        cond = bb.condition_vector(10, None)
        x = bb.blocks[0](bb.patchify(z), cond, mult[0])
        x = x + feature_stats(x)[0]
        x = bb.blocks[1](x, cond, mult[1])
        ref = untokenize(bb.head(layer_norm(x)), (2, 2, 2)).data
    assert out.shape == z.shape
    np.testing.assert_array_equal(out, ref)


def test_backbone_injection_shape_mismatch():
    rng = np.random.default_rng(13)
    bb = Backbone(small_cfg(), rng)
    z = rng.standard_normal((2, 2, 2, 48))
    with pytest.raises(ValueError):
        bb.forward(z, 10, bb.multipliers(np.ones((8, 1))), None, Tensor(np.zeros((7, 16))))


def test_forward_rejects_mask_not_in_token_order():
    # an (h, w, s, 1) mask must be tokenized first, not reshaped in spatial order
    rng = np.random.default_rng(13)
    bb = Backbone(small_cfg(), rng)
    z = rng.standard_normal((2, 2, 2, 48))
    with pytest.raises(ValueError):
        bb.forward(z, 10, bb.multipliers(np.ones((2, 2, 2, 1))), None, ZERO_FEATURES)


def test_forward_rejects_injection_that_would_broadcast():
    # one (1, d) row would otherwise be added silently to every token
    rng = np.random.default_rng(13)
    bb = Backbone(small_cfg(), rng)
    z = rng.standard_normal((2, 2, 2, 48))
    with pytest.raises(ValueError):
        bb.forward(z, 10, bb.multipliers(np.ones((8, 1))), None, Tensor(np.ones((1, 16))))


def test_backbone_gamma_zero_equals_standard_everywhere():
    # gamma=0 forward must be independent of the mask values entirely
    rng = np.random.default_rng(14)
    bb = Backbone(small_cfg(gamma=0.0), rng)
    z = rng.standard_normal((2, 2, 2, 48))
    with no_grad():
        feats = Tensor(rng.standard_normal((8, 16)))
        a = bb.forward(z, 3, bb.multipliers(rng.uniform(0, 1, (8, 1))), None, feats).data
        b = bb.forward(z, 3, bb.multipliers(rng.uniform(0, 1, (8, 1))), None, feats).data
    np.testing.assert_array_equal(a, b)


def test_backbone_end_to_end_gradient_check(stats_on_tape):
    rng = np.random.default_rng(15)
    cfg = small_cfg()
    bb = Backbone(cfg, rng)
    for _, p in bb.named_params():
        p.data += rng.normal(0, 0.05, size=p.data.shape)
    z = rng.standard_normal((2, 2, 2, 48))
    m_tok = rng.uniform(0, 1, size=(8, 1))
    target = rng.standard_normal(z.shape)
    feats = Tensor(rng.standard_normal((8, 16)))

    def loss_fn():
        # both conditioning branches so every parameter participates
        out_c = bb.forward(z, 100, bb.multipliers(m_tok), bb.text_embed, feats)
        out_u = bb.forward(z, 100, bb.multipliers(m_tok), None, feats)
        return ((out_c - target) ** 2).mean() + ((out_u - target) ** 2).mean()

    _fd_check_params(loss_fn, bb.named_params(), sample_at_most=4,
                     rng=np.random.default_rng(1))


def test_timestep_changes_output_through_conditioning():
    rng = np.random.default_rng(16)
    bb = Backbone(small_cfg(), rng)
    # non-zero conditioning projections
    for b in bb.blocks:
        b.ada.W.data = rng.normal(0, 0.1, size=b.ada.W.data.shape)
    z = rng.standard_normal((2, 2, 2, 48))
    m = np.ones((8, 1))
    with no_grad():
        a = bb.forward(z, 1, bb.multipliers(m), None, ZERO_FEATURES).data
        b = bb.forward(z, 900, bb.multipliers(m), None, ZERO_FEATURES).data
    assert np.abs(a - b).max() > 1e-8
