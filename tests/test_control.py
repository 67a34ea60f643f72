"""Control branch: conv extraction, alignment, injection."""

import numpy as np
import pytest

from outpainter.backbone import BackboneConfig, feature_stats, tokenize
from outpainter.control import ControlBranch, _patch_indices, standardize
from outpainter.model import OutpaintingModel
from outpainter.tensor import Tensor, no_grad


def make_branch(seed=0, hidden=8, d_model=16):
    return ControlBranch(np.random.default_rng(seed),
                         BackboneConfig(d_model=d_model, control_hidden=hidden))


def test_zero_input_zero_bias_gives_zero_features():
    cb = make_branch()
    for conv in (cb.conv1, cb.conv2, cb.conv3):
        conv.b.data[:] = 0.0
    cb.proj.b.data[:] = 0.0
    with no_grad():
        out = cb.extract(np.zeros((3, 4, 2, 48)), np.zeros((3, 4, 2, 1))).data
    np.testing.assert_array_equal(out, 0.0)


def test_extract_token_count_and_order():
    cb = make_branch()
    rng = np.random.default_rng(1)
    z = rng.standard_normal((3, 4, 2, 48))
    m = (rng.random((3, 4, 2, 1)) < 0.5).astype(float)
    with no_grad():
        out = cb.extract(z, m).data
    assert out.shape == (24, 16)

    # per-frame independence: editing frame 1 leaves frame-0 tokens alone
    z2 = z.copy()
    z2[:, :, 1] += 1.0
    with no_grad():
        out2 = cb.extract(z2, m).data
    np.testing.assert_array_equal(out2[:12], out[:12])
    assert np.abs(out2[12:] - out[12:]).max() > 0


def test_extract_translation_covariance_interior():
    cb = make_branch()
    rng = np.random.default_rng(2)
    h, w = 6, 8
    z = rng.standard_normal((h, w, 1, 48))
    m = np.ones((h, w, 1, 1))
    zs = np.roll(z, 1, axis=1)  # shift one latent column
    with no_grad():
        a = cb.extract(z, m).data.reshape(h, w, 16)
        b = cb.extract(zs, np.ones((h, w, 1, 1))).data.reshape(h, w, 16)
    # interior: columns whose 3x3 stacks (depth 3 convs: 3-wide halo) stay
    # off the wrap-around and padding borders
    np.testing.assert_allclose(b[3:-3, 4:-3], np.roll(a, 1, axis=1)[3:-3, 4:-3], atol=1e-12)


def test_patch_indices_match_loop_reference():
    # token order frame, row, col; patch element order dy, dx, channel
    for h, w, s, c in ((4, 4, 8, 49), (4, 4, 29, 16), (2, 3, 1, 5)):
        want = [[np.ravel_multi_index((i + dy, j + dx, f, ch), (h + 2, w + 2, s, c))
                 for dy in range(3) for dx in range(3) for ch in range(c)]
                for f in range(s) for i in range(h) for j in range(w)]
        np.testing.assert_array_equal(_patch_indices(h, w, s, c), want)


def test_patch_indices_cached_read_only():
    idx = _patch_indices(3, 2, 4, 7)
    assert _patch_indices(3, 2, 4, 7) is idx
    with pytest.raises(ValueError):
        idx[0, 0] = 0


def test_extract_shape_mismatch():
    cb = make_branch()
    with pytest.raises(ValueError):
        cb.extract(np.zeros((3, 4, 2, 48)), np.zeros((3, 4, 1, 1)))


def test_align_hits_target_stats():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = Tensor(rng.standard_normal((30, 6)) * rng.uniform(0.1, 5) + rng.uniform(-3, 3))
        mu = rng.standard_normal(6)
        sigma = rng.uniform(0.2, 4.0, size=6)
        with no_grad():
            y = (standardize(x) * Tensor(sigma) + Tensor(mu)).data
        np.testing.assert_allclose(y.mean(axis=0), mu, atol=1e-6)
        np.testing.assert_allclose(y.std(axis=0), sigma, atol=1e-6)


def test_align_fixed_point():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((40, 4))
    mu, sigma = x.mean(axis=0), x.std(axis=0)
    with no_grad():
        y = (standardize(Tensor(x)) * Tensor(sigma) + Tensor(mu)).data
    assert np.abs(y - x).max() <= 1e-10


def test_align_constant_channel_lands_on_target_mean():
    x = Tensor(np.full((10, 3), 7.0))
    with no_grad():
        y = (standardize(x) * Tensor(np.ones(3)) + Tensor(np.array([1.0, -2.0, 0.5]))).data
    np.testing.assert_allclose(y, np.broadcast_to([1.0, -2.0, 0.5], (10, 3)), atol=1e-12)


def test_align_idempotent():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((25, 5)))
    mu, sigma = Tensor(rng.standard_normal(5)), Tensor(rng.uniform(0.5, 2, 5))
    with no_grad():
        once = (standardize(x) * sigma + mu).data
        twice = (standardize(Tensor(once)) * sigma + mu).data
    assert np.abs(twice - once).max() <= 1e-10


def test_align_affine_invariant():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((25, 5))
    mu, sigma = Tensor(rng.standard_normal(5)), Tensor(rng.uniform(0.5, 2, 5))
    a, b = 3.7, -1.2
    with no_grad():
        base = (standardize(Tensor(x)) * sigma + mu).data
        scaled = (standardize(Tensor(a * x + b)) * sigma + mu).data
    assert np.abs(base - scaled).max() <= 1e-8


def test_feature_stats_blocks_gradient_by_default():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((10, 4)), requires_grad=True)
    mu, sigma = feature_stats(x * 2.0)
    assert not mu.requires_grad and not sigma.requires_grad


def test_inject_is_sum_and_validates():
    # conditions enter the backbone once, as a sum onto the block-1 output
    # at its live statistics
    from outpainter.backbone import Backbone, mask_multipliers, untokenize
    from outpainter.nn import layer_norm

    cfg = BackboneConfig(n_blocks=2, d_model=16, n_heads=2, gamma=0.5)
    rng = np.random.default_rng(9)
    bb = Backbone(cfg, rng)
    z = rng.standard_normal((2, 2, 2, 48))
    m_tok = rng.uniform(0, 1, size=(8, 1))
    b = Tensor(rng.standard_normal((8, 16)))
    with no_grad():
        got = bb.forward(z, 20, bb.multipliers(m_tok), None, b).data
        cond = bb.condition_vector(20, None)
        mults = [mask_multipliers(blk.scaler, Tensor(m_tok), cfg.gamma) for blk in bb.blocks]
        x = bb.blocks[0](bb.patchify(z), cond, mults[0])
        mu, sigma = feature_stats(x)
        x = bb.blocks[1](x + (b * sigma + mu), cond, mults[1])
        ref = untokenize(bb.head(layer_norm(x)), (2, 2, 2)).data
    np.testing.assert_array_equal(got, ref)
    with pytest.raises(ValueError):
        bb.forward(z, 20, bb.multipliers(m_tok), None, Tensor(np.zeros((7, 16))))


def test_gradient_reaches_conv_weights_through_injection():
    cfg = BackboneConfig(n_blocks=2, d_model=16, n_heads=2, gamma=0.5, control_hidden=8)
    model = OutpaintingModel(cfg, seed=0)
    rng = np.random.default_rng(10)
    z_t = rng.standard_normal((2, 2, 2, 48))
    z_masked = rng.standard_normal((2, 2, 2, 48))
    m = rng.uniform(0, 1, size=(2, 2, 2, 1))
    out = model.eps_tensor(z_t, 50, model.condition(z_masked, m), None)
    (out * out).mean().backward()
    for name, p in model.control.named_params():
        assert p.grad is not None and np.abs(p.grad).max() > 0, f"no gradient on {name}"


def test_control_param_budget_at_default_config():
    model = OutpaintingModel(BackboneConfig(), seed=0)

    def size(module):
        return sum(p.size for _, p in module.named_params())

    assert size(model.control) / size(model.backbone) < 0.05


def test_model_matches_manual_composition():
    # eps_tensor == the backbone's pieces composed by hand, with
    # standardize(extract(...)) * sigma + mu added after block 1
    cfg = BackboneConfig(n_blocks=2, d_model=16, n_heads=2, gamma=0.5, control_hidden=8)
    model = OutpaintingModel(cfg, seed=3)
    rng = np.random.default_rng(11)
    z_t = rng.standard_normal((2, 2, 2, 48))
    z_masked = rng.standard_normal((2, 2, 2, 48))
    m = rng.uniform(0, 1, size=(2, 2, 2, 1))

    with no_grad():
        got = model.predict_eps(z_t, 50, z_masked, m, None)

        bb = model.backbone
        m_tok = Tensor(tokenize(m))
        from outpainter.backbone import mask_multipliers, untokenize
        from outpainter.nn import layer_norm

        cond = bb.condition_vector(50, None)
        mults = [mask_multipliers(b.scaler, m_tok, cfg.gamma) for b in bb.blocks]
        x1 = bb.blocks[0](bb.patchify(z_t), cond, mults[0])
        mu, sigma = feature_stats(x1)
        feat = standardize(model.control.extract(z_masked, m)) * sigma + mu
        x = bb.blocks[1](x1 + feat, cond, mults[1])
        ref = untokenize(bb.head(layer_norm(x)), (2, 2, 2)).data
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_batched_eps_tensor_equals_per_embedding_calls():
    cfg = BackboneConfig(n_blocks=2, d_model=16, n_heads=2, gamma=0.5, control_hidden=8)
    model = OutpaintingModel(cfg, seed=4)
    rng = np.random.default_rng(12)
    for _, p in model.named_params():
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
    z_t = rng.standard_normal((2, 2, 3, 48))
    z_masked = rng.standard_normal((2, 2, 3, 48))
    m = rng.uniform(0, 1, size=(2, 2, 3, 1))
    texts = [model.text_vector(), None, rng.standard_normal(16)]
    with no_grad():
        cond = model.condition(z_masked, m)
        got = model.eps_tensor(z_t, 70, cond, texts).data
        assert got.shape == (3,) + z_t.shape
        for k, text in enumerate(texts):
            np.testing.assert_array_equal(got[k], model.eps_tensor(z_t, 70, cond, text).data)
            np.testing.assert_array_equal(got[k], model.predict_eps(z_t, 70, z_masked, m, text))
