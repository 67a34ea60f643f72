"""Gradient checks for the autodiff core.

Every differentiable primitive is checked against central finite
differences on random inputs. The comparison is relative:
|tape - fd| / max(|tape|, |fd|, 1e-6) <= 1e-5 with step 1e-5.
"""

import tracemalloc

import numpy as np
import pytest

from outpainter.tensor import Tensor, no_grad, reduce_stats

STEP = 1e-5
TOL = 1e-5


def rel_err(a, b):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, 1e-6)])


def fd_grad(fn, arrays, wrt):
    """Central-difference gradient of scalar fn w.r.t. arrays[wrt]."""
    base = arrays[wrt]
    g = np.zeros_like(base)
    flat = base.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        hi = fn(*arrays)
        flat[i] = orig - STEP
        lo = fn(*arrays)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * STEP)
    return g


def check_grads(build, arrays, tol=TOL):
    """build(*tensors) -> scalar Tensor; compare tape grads to FD."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()

    def value(*arrs):
        with no_grad():
            return build(*[Tensor(a) for a in arrs]).item()

    for i, t in enumerate(tensors):
        fd = fd_grad(value, [a.copy() for a in arrays], i)
        assert t.grad is not None, f"input {i} got no gradient"
        err = rel_err(t.grad, fd).max()
        assert err <= tol, f"input {i}: max rel err {err:.3e}"


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


# ---- elementwise ---------------------------------------------------------


def test_add_sub_mul_grads():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = rand(rng, 3, 4), rand(rng, 3, 4)
        check_grads(lambda x, y: ((x + y) * (x - y) * x).sum(), [a, b])


def test_div_grad():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rand(rng, 3, 4)
        b = rng.uniform(0.5, 2.0, size=(3, 4)) * np.where(rng.random((3, 4)) < 0.5, -1, 1)
        check_grads(lambda x, y: (x / y).sum(), [a, b])


def test_scalar_mixed_ops():
    rng = np.random.default_rng(2)
    a = rand(rng, 4)
    check_grads(lambda x: (x * 2.0 + 1.0 - x / 3.0 + (Tensor(1.0) / (x + 10.0)) + (3.0 - x)).sum(),
                [a])


def test_neg_pow_sqrt_grads():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.5, 2.0, size=(3, 3))
    check_grads(lambda x: ((x * -1.0) ** 3).sum(), [a])
    check_grads(lambda x: (x**-1.5).sum(), [a])
    check_grads(lambda x: (x ** 0.5).sum(), [a])


def test_tanh_exp_abs_grads():
    rng = np.random.default_rng(4)
    a = rand(rng, 5, 2)
    check_grads(lambda x: x.tanh().sum(), [a])
    # keep FD away from the |x| kink
    b = np.where(np.abs(a) < 0.1, 0.5, a)
    check_grads(lambda x: x.abs().sum(), [b])


def test_clamp_grad_and_boundary():
    rng = np.random.default_rng(5)
    a = rand(rng, 4, 4)
    a = np.where(np.abs(a + 0.5) < 0.05, 0.0, a)  # keep FD off the clip point
    check_grads(lambda x: x.clamp(lo=-0.5).sum(), [a])

    # exactly on the boundary the gradient passes through
    t = Tensor(np.array([-1.0, 1.0, -2.0, 3.0]), requires_grad=True)
    t.clamp(lo=-1.0).sum().backward()
    np.testing.assert_array_equal(t.grad, [1.0, 1.0, 0.0, 1.0])


def test_broadcasting_grads():
    rng = np.random.default_rng(6)
    a = rand(rng, 3, 4)
    b = rand(rng, 4)  # broadcast row
    c = rand(rng, 3, 1)  # broadcast column
    check_grads(lambda x, y, z: ((x + y) * z).sum(), [a, b, c])
    # scalar tensor broadcast
    s = rand(rng, 1).reshape(())
    check_grads(lambda x, y: (x * y).sum(), [a, s])


# ---- linear algebra ------------------------------------------------------


def test_matmul_grad_2d():
    rng = np.random.default_rng(7)
    a, b = rand(rng, 3, 4), rand(rng, 4, 2)
    check_grads(lambda x, y: (x @ y).sum(), [a, b], tol=1e-6)


def test_matmul_grad_batched():
    rng = np.random.default_rng(8)
    a, b = rand(rng, 2, 3, 4), rand(rng, 2, 4, 5)
    check_grads(lambda x, y: ((x @ y) ** 2).sum(), [a, b])
    # broadcast batch: shared weight on the right
    w = rand(rng, 4, 5)
    check_grads(lambda x, y: (x @ y).sum(), [a, w], tol=1e-6)


def test_matmul_shape_errors():
    a = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        a @ Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        a @ Tensor(np.zeros(4))


def test_transpose_reshape_grads():
    rng = np.random.default_rng(9)
    a = rand(rng, 2, 3, 4)
    check_grads(lambda x: (x.transpose((2, 0, 1)) ** 2).sum(), [a])
    check_grads(lambda x: (x.reshape((6, 4)) ** 2).sum(), [a])


# ---- reductions ------------------------------------------------------------


def test_sum_mean_grads():
    rng = np.random.default_rng(10)
    a = rand(rng, 3, 4, 5)
    check_grads(lambda x: (x.sum(axes=(1,)) ** 2).sum(), [a])
    check_grads(lambda x: (x.mean(axes=(0, 2)) ** 2).sum(), [a])
    check_grads(lambda x: (x.sum(axes=1, keepdims=True) * x).sum(), [a])
    check_grads(lambda x: x.mean(), [a])


def test_sum_empty_axis_rejected():
    t = Tensor(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        t.mean(axes=(1,))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(0, 10, size=(6, 9)))
    y = x.softmax(axis=-1).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
    assert (y >= 0).all()


def test_softmax_stability_extreme_logits():
    x = Tensor(np.array([[1e4, 0.0, -1e4]]))
    y = x.softmax(axis=-1).data
    assert np.isfinite(y).all()
    np.testing.assert_allclose(y.sum(), 1.0, atol=1e-12)


def test_softmax_grad():
    rng = np.random.default_rng(12)
    a = rand(rng, 4, 5)
    w = rand(rng, 4, 5)
    check_grads(lambda x: (x.softmax(axis=-1) * w).sum(), [a], tol=1e-6)
    check_grads(lambda x: (x.softmax(axis=0) * w).sum(), [a], tol=1e-6)


def test_softmax_scale_is_bitwise_scaled_input():
    # softmax(scale=s) does in one buffer what x * s then softmax does
    rng = np.random.default_rng(13)
    a = rng.normal(0, 3, size=(3, 5, 7))
    w = rng.normal(size=a.shape)
    s = 1.0 / np.sqrt(8)
    for axis in (0, -1):
        x1 = Tensor(a.copy(), requires_grad=True)
        x2 = Tensor(a.copy(), requires_grad=True)
        y1 = x1.softmax(axis=axis, scale=s)
        y2 = (x2 * s).softmax(axis=axis)
        np.testing.assert_array_equal(y1.data, y2.data)
        (y1 * w).sum().backward()
        (y2 * w).sum().backward()
        np.testing.assert_array_equal(x1.grad, x2.grad)


def test_reduce_stats_matches_numpy_and_grads():
    rng = np.random.default_rng(13)
    a = rand(rng, 3, 4, 5)
    m, v = reduce_stats(Tensor(a), axes=(1, 2))
    np.testing.assert_allclose(m.data, a.mean(axis=(1, 2)), atol=1e-12)
    np.testing.assert_allclose(v.data, a.var(axis=(1, 2)), atol=1e-12)  # population
    check_grads(lambda x: reduce_stats(x, axes=(1, 2))[1].sum(), [a])
    check_grads(lambda x: reduce_stats(x, axes=(0,))[0].sum(), [a])


# ---- indexing / structure ---------------------------------------------------


def test_take_grad_with_repeats():
    rng = np.random.default_rng(14)
    a = rand(rng, 3, 4)
    idx = np.array([0, 5, 5, 11, 3])  # repeated index must accumulate
    check_grads(lambda x: (x.take(idx) ** 2).sum(), [a])
    t = Tensor(np.arange(6.0), requires_grad=True)
    t.take(np.array([2, 2, 2])).sum().backward()
    np.testing.assert_array_equal(t.grad, [0, 0, 3, 0, 0, 0])


def test_pad_grad():
    rng = np.random.default_rng(15)
    a = rand(rng, 2, 3)
    check_grads(lambda x: (x.pad(((1, 2), (0, 1))) ** 2).sum(), [a])
    t = Tensor(np.ones((2, 2)))
    assert t.pad(((1, 1), (1, 1))).shape == (4, 4)
    assert t.pad(((1, 1), (1, 1))).data[0, 0] == 0.0


# ---- tape mechanics ----------------------------------------------------------


def test_backward_accumulates_exactly():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    g1 = x.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(x.grad, 2.0 * g1)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_no_grad_blocks_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2).sum()
    assert not y.requires_grad
    z = (x * 2).sum()
    assert z.requires_grad


def test_constant_inputs_get_no_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    c = Tensor(np.ones(3))
    (x * c).sum().backward()
    assert c.grad is None
    assert x.grad is not None


def test_grad_lands_on_leaves_only():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    w = Tensor(np.array([0.5, 3.0]), requires_grad=True)
    h = x * w
    y = h.tanh()
    loss = (y * y).sum()
    loss.backward()
    assert x.grad is not None and w.grad is not None
    assert h.grad is None and y.grad is None and loss.grad is None


def test_backward_frees_intermediate_gradients():
    # each link's incoming gradient (1 MiB) is dropped once passed on, so
    # backward's own allocations stay near a few buffers, not one per link
    x = Tensor(np.ones(1 << 17), requires_grad=True)
    y = x
    for _ in range(40):
        y = y * 1.0001
    loss = y.sum()
    tracemalloc.start()
    try:
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"backward peaked at {peak / 2**20:.1f} MiB"
    np.testing.assert_allclose(x.grad, 1.0001 ** 40, rtol=1e-12)


def test_diamond_graph_grad():
    # y used twice: d/dx of (x*x + x*x) = 4x
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x
    (y + y).sum().backward()
    np.testing.assert_allclose(x.grad, [12.0])


def test_deep_chain_no_recursion_limit():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, [1.0])


def test_numpy_does_not_capture_tensor():
    # with an ndarray on the left, numpy defers to Tensor's reflected op,
    # and without one it raises rather than building an object array
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = np.ones((2, 2)) - x
    assert isinstance(y, Tensor)
    assert y.requires_grad
    with pytest.raises(TypeError):
        np.ones((2, 2)) * x
