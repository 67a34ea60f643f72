"""Schedule identities, forward/inverse noising, and sampler contracts."""

import types
from pathlib import Path

import numpy as np
import pytest

from outpainter import backbone, control
from outpainter.backbone import BackboneConfig
from outpainter.diffusion import (
    SamplerConfig,
    make_schedule,
    predict_z0,
    q_sample,
    sample,
    strided_timesteps,
)
from outpainter.errors import NumericalError
from outpainter.model import OutpaintingModel
from outpainter.tensor import Tensor


def test_schedule_single_step():
    s = make_schedule(T=1, beta_start=0.3, beta_end=0.3)
    np.testing.assert_allclose(s.alpha_bar, [0.7])


def test_schedule_default_monotone_and_product():
    s = make_schedule(T=1000, beta_start=1e-4, beta_end=0.02)
    assert (np.diff(s.alpha_bar) < 0).all()
    assert s.alpha_bar[-1] < 0.01
    beta = np.linspace(1e-4, 0.02, 1000)
    np.testing.assert_allclose(s.alpha_bar, np.cumprod(1.0 - beta), atol=1e-12)
    # the step variances the product implies are the linear ones, in (0, 1)
    implied = 1.0 - s.alpha_bar / np.concatenate([[1.0], s.alpha_bar[:-1]])
    np.testing.assert_allclose(implied, beta, atol=1e-12)
    assert ((implied > 0) & (implied < 1)).all()


def test_schedule_constant_beta_closed_form():
    c = 0.05
    s = make_schedule(T=20, beta_start=c, beta_end=c)
    t = np.arange(1, 21)
    np.testing.assert_allclose(s.alpha_bar, (1 - c) ** t, atol=1e-12)


def test_schedule_bounds_rejected():
    with pytest.raises(ValueError):
        make_schedule(T=10, beta_start=0.0, beta_end=0.1)
    with pytest.raises(ValueError):
        make_schedule(T=10, beta_start=0.2, beta_end=0.1)
    with pytest.raises(ValueError):
        make_schedule(T=10, beta_start=0.1, beta_end=1.0)
    with pytest.raises(ValueError):
        make_schedule(T=0)


def test_q_sample_zero_signal():
    s = make_schedule(T=100)
    eps = np.random.default_rng(0).standard_normal((2, 2, 1, 4))
    zt = q_sample(np.zeros((2, 2, 1, 4)), 50, eps, s)
    np.testing.assert_allclose(zt, np.sqrt(1 - s.alpha_bar_at(50)) * eps, atol=1e-15)


def test_q_sample_shape_mismatch():
    s = make_schedule(T=10)
    with pytest.raises(ValueError):
        q_sample(np.zeros((2, 2)), 5, np.zeros((2, 3)), s)
    with pytest.raises(ValueError):
        q_sample(np.zeros(3), 11, np.zeros(3), s)  # t out of range


def test_q_sample_variance_monte_carlo():
    # var(z_t) = ab*var(z0) + (1-ab) for z0 ~ N(0, sigma^2), eps ~ N(0,1)
    s = make_schedule(T=1000)
    rng = np.random.default_rng(1)
    sigma2 = 2.25
    n = 100_000
    for t in (100, 600):
        z0 = rng.normal(0.0, np.sqrt(sigma2), size=n)
        eps = rng.standard_normal(n)
        zt = q_sample(z0, t, eps, s)
        ab = s.alpha_bar_at(t)
        expected = ab * sigma2 + (1 - ab)
        assert abs(zt.var() - expected) / expected < 0.02


def test_q_sample_predict_z0_identity():
    s = make_schedule(T=1000)
    rng = np.random.default_rng(2)
    z0 = rng.standard_normal((3, 4, 2, 6))
    for t in (1, 100, 500, 999):
        eps = rng.standard_normal(z0.shape)
        zt = q_sample(z0, t, eps, s)
        back = predict_z0(zt, t, eps, s)
        assert np.abs(back - z0).max() <= 1e-10


def test_predict_z0_zero_eps():
    s = make_schedule(T=100)
    zt = np.random.default_rng(3).standard_normal((2, 3))
    np.testing.assert_allclose(predict_z0(zt, 30, np.zeros_like(zt), s),
                               zt / np.sqrt(s.alpha_bar_at(30)), atol=1e-15)


def test_predict_z0_gradient_wrt_eps_hat():
    # d z0_hat / d eps_hat = -sqrt(1-ab)/sqrt(ab), via tape and central FD
    s = make_schedule(T=1000)
    rng = np.random.default_rng(4)
    zt = rng.standard_normal(5)
    for t in (50, 700):
        eps = Tensor(rng.standard_normal(5), requires_grad=True)
        predict_z0(zt, t, eps, s).sum().backward()
        ab = s.alpha_bar_at(t)
        expected = -np.sqrt(1 - ab) / np.sqrt(ab)
        np.testing.assert_allclose(eps.grad, expected, rtol=1e-12)

        step = 1e-5
        e = eps.data.copy()
        e[2] += step
        hi = predict_z0(zt, t, e, s).sum()
        e[2] -= 2 * step
        lo = predict_z0(zt, t, e, s).sum()
        fd = (hi - lo) / (2 * step)
        assert abs(fd - expected) / max(abs(expected), 1e-6) < 1e-5


def test_strided_timesteps():
    ts = strided_timesteps(1000, 100)
    assert len(ts) == 100
    assert ts[0] == 1000 and ts[-1] == 10
    assert (np.diff(ts) == -10).all()
    np.testing.assert_array_equal(strided_timesteps(50, 50), np.arange(50, 0, -1))
    with pytest.raises(ValueError):
        strided_timesteps(10, 11)


class _OracleModel:
    """Returns the epsilon consistent with a planted z0 at any (z_t, t)."""

    def __init__(self, z0, sched):
        self.z0 = z0
        self.sched = sched

    def condition(self, z_masked, m):
        return None

    def predict_eps(self, z_t, t, z_masked, m, texts, cond=None):
        ab = self.sched.alpha_bar_at(t)
        return np.stack([(z_t - np.sqrt(ab) * self.z0) / np.sqrt(1 - ab)] * len(texts))


def test_sampler_oracle_recovers_z0_full_steps():
    sched = make_schedule(T=50)
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal((2, 2, 2, 8))
    cond = np.zeros_like(z0)
    m = np.zeros((2, 2, 2, 1))
    out = sample(_OracleModel(z0, sched), cond, m, None,
                 SamplerConfig(steps=50, cfg_scale=1.0, seed=7), sched)
    assert np.abs(out - z0).max() < 1e-6


def test_sampler_oracle_recovers_z0_strided():
    sched = make_schedule(T=50)
    rng = np.random.default_rng(6)
    z0 = rng.standard_normal((2, 2, 1, 4))
    out = sample(_OracleModel(z0, sched), np.zeros_like(z0), np.zeros((2, 2, 1, 1)), None,
                 SamplerConfig(steps=10, cfg_scale=1.0, seed=7), sched)
    assert np.abs(out - z0).max() < 1e-10


class _BranchModel:
    """Conditional branch clean, unconditional branch poisoned."""

    def __init__(self, z0, sched, poison):
        self.inner = _OracleModel(z0, sched)
        self.poison = poison
        self.uncond_calls = 0

    def condition(self, z_masked, m):
        return None

    def predict_eps(self, z_t, t, z_masked, m, texts, cond=None):
        out = self.inner.predict_eps(z_t, t, z_masked, m, texts)
        for k, text in enumerate(texts):
            if text is None:
                self.uncond_calls += 1
                if self.poison:
                    out[k] = np.nan
        return out


def test_cfg_scale_one_skips_unconditional_branch():
    sched = make_schedule(T=20)
    rng = np.random.default_rng(8)
    z0 = rng.standard_normal((2, 2, 1, 4))
    model = _BranchModel(z0, sched, poison=True)
    out = sample(model, np.zeros_like(z0), np.zeros((2, 2, 1, 1)), "txt",
                 SamplerConfig(steps=20, cfg_scale=1.0, seed=1), sched)
    assert model.uncond_calls == 0
    assert np.isfinite(out).all()


def test_cfg_formula_reduces_to_conditional_at_scale_one():
    # eps_u + 1*(eps_c - eps_u) == eps_c: scale-3 run with identical branches
    # must match a scale-1 run exactly
    sched = make_schedule(T=20)
    rng = np.random.default_rng(9)
    z0 = rng.standard_normal((2, 2, 1, 4))
    args = (np.zeros_like(z0), np.zeros((2, 2, 1, 1)), "txt")
    out1 = sample(_BranchModel(z0, sched, poison=False), *args,
                  SamplerConfig(steps=20, cfg_scale=1.0, seed=3), sched)
    out3 = sample(_BranchModel(z0, sched, poison=False), *args,
                  SamplerConfig(steps=20, cfg_scale=3.0, seed=3), sched)
    np.testing.assert_array_equal(out1, out3)


def test_sampler_determinism():
    sched = make_schedule(T=20)
    rng = np.random.default_rng(10)
    z0 = rng.standard_normal((2, 2, 1, 4))

    def run(seed):
        return sample(_OracleModel(z0, sched), np.zeros_like(z0), np.zeros((2, 2, 1, 1)),
                      None, SamplerConfig(steps=5, cfg_scale=1.0, seed=seed), sched)

    np.testing.assert_array_equal(run(4), run(4))
    assert not np.array_equal(run(4), run(5))


def test_sampler_rejects_bad_model_shape():
    sched = make_schedule(T=10)

    class Bad:
        def condition(self, z_masked, m):
            return None

        def predict_eps(self, z_t, t, z_masked, m, texts, cond=None):
            return np.zeros((1, 1, 1, 1))

    with pytest.raises(ValueError):
        sample(Bad(), np.zeros((2, 2, 1, 4)), np.zeros((2, 2, 1, 1)), None,
               SamplerConfig(steps=5, cfg_scale=1.0, seed=0), sched)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(cfg_scale=-0.5)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
def test_sampler_config_rejects_non_finite_cfg_scale(scale):
    with pytest.raises(ValueError, match="cfg_scale must be finite"):
        SamplerConfig(cfg_scale=scale)


def test_sampler_non_finite_result_raises():
    # a poisoned unconditional branch reaches the result once guidance uses it
    sched = make_schedule(T=20)
    z0 = np.random.default_rng(11).standard_normal((2, 2, 1, 4))
    with pytest.raises(NumericalError):
        sample(_BranchModel(z0, sched, poison=True), np.zeros_like(z0),
               np.zeros((2, 2, 1, 1)), "txt", SamplerConfig(steps=5, cfg_scale=3.0, seed=0),
               sched)


# ---- the real model under the sampler --------------------------------------------


def guided_model(seed=0):
    """A small model moved off its zero init, so the text embedding reaches
    the output and guidance changes the result."""
    model = OutpaintingModel(BackboneConfig(n_blocks=2, d_model=16, n_heads=2,
                                            control_hidden=8), seed=seed)
    rng = np.random.default_rng(seed)
    for _, p in model.named_params():
        p.data = p.data + rng.normal(0.0, 0.05, p.data.shape)
    return model


def sampler_inputs(seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, 2, 3, 48)), rng.uniform(0, 1, (2, 2, 3, 1))


class _OneShot:
    """Every branch of every step through the five-argument predict_eps,
    which builds the condition afresh and runs one embedding per call."""

    def __init__(self, inner):
        self.inner = inner

    def condition(self, z_masked, m):
        return None

    def predict_eps(self, z_t, t, z_masked, m, texts, cond=None):
        return np.stack([self.inner.predict_eps(z_t, t, z_masked, m, e) for e in texts])


@pytest.mark.parametrize("cfg_scale", [1.0, 3.0])
def test_sample_equals_one_shot_predictions(cfg_scale):
    model = guided_model()
    zm, m = sampler_inputs()
    config = SamplerConfig(steps=4, cfg_scale=cfg_scale, seed=2)
    sched = make_schedule(T=40)
    got = sample(model, zm, m, model.text_vector(), config, sched)
    want = sample(_OneShot(model), zm, m, model.text_vector(), config, sched)
    np.testing.assert_array_equal(got, want)


def test_condition_built_once_per_sample(monkeypatch):
    model = guided_model()
    zm, m = sampler_inputs()
    calls = {"extract": 0, "mask_multipliers": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(control.ControlBranch, "extract",
                        counted("extract", control.ControlBranch.extract))
    monkeypatch.setattr(backbone, "mask_multipliers",
                        counted("mask_multipliers", backbone.mask_multipliers))
    sample(model, zm, m, model.text_vector(), SamplerConfig(steps=5, cfg_scale=3.0, seed=0),
           make_schedule(T=50))
    assert calls == {"extract": 1, "mask_multipliers": model.cfg.n_blocks}


def test_sample_matches_benchmark_reference_sampler():
    """diffusion.sample against the benchmark's own reference sampler, which
    calls the five-argument predict_eps; the benchmark file is only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    oracles = types.ModuleType("perfbench_oracles")
    exec(compile(path.read_text(), str(path), "exec"), oracles.__dict__)
    model = guided_model(seed=3)
    zm, m = sampler_inputs(seed=4)
    text = model.text_vector()
    got = sample(model, zm, m, text, SamplerConfig(steps=3, cfg_scale=3.0, seed=5),
                 make_schedule())
    want = oracles.reference_sample(model.predict_eps, zm, m, text, 3, 3.0, 5,
                                    oracles.alpha_bar())
    oracles.check_close("sampler", got, want, 1e-9)
