"""Gradient checks for the autodiff core.

Every differentiable primitive is checked against central finite
differences on random inputs. The comparison is relative:
|tape - fd| / max(|tape|, |fd|, 1e-6) <= 1e-5 with step 1e-5. The
one-node layers ``linear``, ``layer_norm`` and ``attention`` must equal,
bit for bit in values and gradients, their composites of these
primitives, kept here as references.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from outpainter.backbone import BackboneConfig
from outpainter.codec import latent_shape
from outpainter.diffusion import make_schedule
from outpainter.model import OutpaintingModel
from outpainter.nn import Linear
from outpainter.tensor import (Tensor, _Record, attention, layer_norm, linear, no_grad,
                               reduce_stats)
from outpainter.training import (LossConfig, TrainSample, sample_training_mask, synth_video,
                                 training_losses)

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


def test_tape_frees_what_no_rule_reads():
    # linear's rule reads its operands and tanh's its output, so nothing
    # reads the linear output's array once the forward drops its Tensor
    rng = np.random.default_rng(19)
    inputs, w = (rand(rng, 4, 3), rand(rng, 3, 5), rand(rng, 5)), rand(rng, 4, 5)
    x, W, b = (Tensor(a.copy(), requires_grad=True) for a in inputs)
    h = linear(x, W, b)
    freed = weakref.ref(h.data)
    loss = (h.tanh() * w).sum()
    del h
    assert freed() is None
    loss.backward()
    xr, Wr, br = (Tensor(a.copy(), requires_grad=True) for a in inputs)
    ((xr @ Wr + br).tanh() * w).sum().backward()
    for got, want in ((x, xr), (W, Wr), (b, br)):
        assert same_bits(got.grad, want.grad)


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


# ---- one-node layers -----------------------------------------------------------


def composite_linear(x, W, b):
    return x @ W + b


def composite_layer_norm(x):
    mu = x.mean(axes=-1, keepdims=True)
    d = x - mu
    var = (d * d).mean(axes=-1, keepdims=True)
    return d / (var + 1e-5) ** 0.5


def composite_attention(q, k, v, n_heads, scale):
    *lead, L, d = q.shape
    lead, n = tuple(lead), len(lead)
    swap = tuple(range(n)) + (n + 1, n, n + 2)

    def heads(y):
        return y.reshape(lead + (L, n_heads, d // n_heads)).transpose(swap)

    q, k, v = heads(q), heads(k), heads(v)
    k_t = k.transpose(tuple(range(n)) + (n, n + 2, n + 1))
    attn = (q @ k_t).softmax(axis=-1, scale=scale, reuse_input=True)
    return (attn @ v).transpose(swap).reshape(lead + (L, d))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def op_nodes(out):
    """Recorded operations reachable from out: the records its own record
    links to, directly or through other records."""
    seen, stack, n = set(), [out._rec], 0
    while stack:
        r = stack.pop()
        if isinstance(r, _Record) and id(r) not in seen:
            seen.add(id(r))
            n += 1
            stack.extend(r.parents)
    return n


values = st.floats(-4.0, 4.0, width=64)


def leading_and_tokens(draw):
    return draw(st.sampled_from([(), (2,)])) + (draw(st.integers(1, 4)),)


@st.composite
def linear_cases(draw):
    """(residual, (x, W, b), loss weights) with x (L, d) or (2, L, d); W
    maps d to d when x feeds a residual add as well."""
    residual = draw(st.booleans())
    tokens, d_in = leading_and_tokens(draw), draw(st.integers(1, 5))
    d_out = d_in if residual else draw(st.integers(1, 5))
    inputs = tuple(draw(arrays(np.float64, shape, elements=values))
                   for shape in (tokens + (d_in,), (d_in, d_out), (d_out,)))
    return residual, inputs, draw(arrays(np.float64, tokens + (d_out,), elements=values))


@st.composite
def layer_norm_cases(draw):
    shape = leading_and_tokens(draw) + (draw(st.integers(1, 5)),)
    x, w = (draw(arrays(np.float64, shape, elements=values)) for _ in range(2))
    return draw(st.booleans()), (x,), w


@st.composite
def attention_cases(draw):
    """(residual, (x, Wq, bq, Wk, bk, Wv, bv), loss weights, n_heads): q, k
    and v are three Linears of one (L, d) or (2, L, d) input x, so x's
    three gradients add up in the node's parent order. d_head 16 makes
    the scale 1/4, d_head 3 one that is not a power of two."""
    n_heads, d_head = draw(st.sampled_from([1, 2, 4])), draw(st.sampled_from([3, 16]))
    tokens, d = leading_and_tokens(draw), n_heads * d_head
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = [a for _ in range(3) for a in (rng.normal(0.0, d ** -0.5, (d, d)),
                                             rng.standard_normal(d))]
    x, w = rng.uniform(-4.0, 4.0, tokens + (d,)), rng.standard_normal(tokens + (d,))
    return draw(st.booleans()), (x, *weights), w, n_heads


def qkv_attention(fn, n_heads):
    """x, Wq, bq, Wk, bk, Wv, bv -> fn over the three projections of x."""
    def layer(x, *weights):
        q, k, v = (linear(x, W, b) for W, b in zip(weights[::2], weights[1::2]))
        return fn(q, k, v, n_heads, 1.0 / np.sqrt(x.shape[-1] // n_heads))

    return layer


def run_layer(fn, residual, inputs, w):
    """Output and leaf gradients of sum(w * y), y = fn(*inputs), plus
    inputs[0] when residual."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    y = fn(*leaves)
    if residual:
        y = leaves[0] + y
    (y * w).sum().backward()
    return [y.data] + [t.grad for t in leaves]


@given(linear_cases())
def test_linear_is_bitwise_the_matmul_add_pair(case):
    got, want = run_layer(linear, *case), run_layer(composite_linear, *case)
    assert all(same_bits(g, r) for g, r in zip(got, want))


@given(layer_norm_cases())
def test_layer_norm_is_bitwise_the_composite(case):
    # the residual case pins the order in which x's three gradients add up
    got, want = run_layer(layer_norm, *case), run_layer(composite_layer_norm, *case)
    assert all(same_bits(g, r) for g, r in zip(got, want))


@given(linear_cases())
def test_one_node_layers_under_no_grad(case):
    x, W, b = (Tensor(a, requires_grad=True) for a in case[1])
    with no_grad():
        pairs = [(linear(x, W, b), composite_linear(x, W, b)),
                 (layer_norm(x), composite_layer_norm(x))]
    for got, want in pairs:
        assert same_bits(got.data, want.data)
        assert not got.requires_grad and got._rec is None


@given(attention_cases())
def test_attention_is_bitwise_the_composite(case):
    residual, inputs, w, n_heads = case
    got = run_layer(qkv_attention(attention, n_heads), residual, inputs, w)
    want = run_layer(qkv_attention(composite_attention, n_heads), residual, inputs, w)
    assert all(same_bits(g, r) for g, r in zip(got, want))


@given(attention_cases())
def test_attention_under_no_grad(case):
    _, inputs, _, n_heads = case
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    with no_grad():
        got = qkv_attention(attention, n_heads)(*leaves)
        want = qkv_attention(composite_attention, n_heads)(*leaves)
    assert same_bits(got.data, want.data)
    assert not got.requires_grad and got._rec is None


def test_attention_records_one_node():
    rng = np.random.default_rng(18)
    q, k, v = (Tensor(rand(rng, 2, 5, 6), requires_grad=True) for _ in range(3))
    assert op_nodes(attention(q, k, v, 2, 0.5)) == 1


@pytest.mark.parametrize("shapes, n_heads, match", [
    (((5, 6), (5, 6), (4, 6)), 2, "shapes differ"),
    (((5, 6), (5, 6), (5, 6)), 4, "divisible"),
    (((5, 6), (5, 6), (5, 6)), 0, "divisible"),
    (((6,), (6,), (6,)), 2, "divisible"),
])
def test_attention_rejects_bad_shapes(shapes, n_heads, match):
    q, k, v = (Tensor(np.zeros(s)) for s in shapes)
    with pytest.raises(ValueError, match=match):
        attention(q, k, v, n_heads, 1.0)


def test_linear_rejects_wrong_input_width():
    lin = Linear(np.random.default_rng(0), 3, 2)
    with pytest.raises(ValueError, match="matmul inner dimensions disagree"):
        lin(Tensor(np.zeros((4, 5))))


def test_linear_and_layer_norm_record_one_node_each():
    rng = np.random.default_rng(16)
    x = Tensor(rand(rng, 2, 4, 3), requires_grad=True)
    assert op_nodes(Linear(rng, 3, 5)(x)) == 1
    assert op_nodes(layer_norm(x)) == 1


def default_training_step(t):
    """A default-size model and a 16x16x8 training sample at timestep t."""
    rng = np.random.default_rng(0)
    H, W, S = 16, 16, 8
    sample = TrainSample(synth_video(rng, H, W, S), sample_training_mask(H, W, S, rng), t,
                         rng.standard_normal(latent_shape(H, W, S)), False)
    return OutpaintingModel(BackboneConfig(), seed=0), sample


def training_step_nodes(t):
    """Op nodes of one default-size training step at timestep t."""
    model, sample = default_training_step(t)
    total, _, _ = training_losses(model, sample, LossConfig(), make_schedule())
    return op_nodes(total)


def test_default_training_step_tape_size():
    # t >= t_latent: no latent-alignment term
    assert training_step_nodes(500) == 169


def test_latent_alignment_training_step_tape_size():
    # t < t_latent: the latent-alignment term adds its nodes
    assert training_step_nodes(100) == 188


def test_training_step_holds_only_what_backward_reads():
    # the tape keeps the arrays its rules read, not every intermediate; a
    # tape that kept them all would hold 10.8 MB here and peak at 13.9 MB
    model, sample = default_training_step(500)
    schedule, losses = make_schedule(), LossConfig()
    training_losses(model, sample, losses, schedule)  # fills the caches
    tracemalloc.start()
    try:
        total, _, _ = training_losses(model, sample, losses, schedule)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        total.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < 8e6, f"forward left {held / 1e6:.2f} MB on the tape"
    assert peak < 11e6, f"backward peaked at {peak / 1e6:.2f} MB"


def test_backward_twice_doubles_grads_through_one_node_layers():
    rng = np.random.default_rng(17)
    x = Tensor(rand(rng, 4, 6), requires_grad=True)
    lin = Linear(rng, 6, 6)
    y = layer_norm(lin(x))
    loss = (attention(y, x, y * x, 2, 0.5) * rand(rng, 4, 6)).sum()
    loss.backward()
    first = [t.grad.copy() for t in (x, lin.W, lin.b)]
    loss.backward()
    for t, g in zip((x, lin.W, lin.b), first):
        np.testing.assert_array_equal(t.grad, 2.0 * g)
