"""Dense float64 tensors with reverse-mode automatic differentiation.

Substrate for every differentiable computation in this package. A Tensor
wraps a numpy float64 array; an operation on tensors that require
gradients gives its result a record on an implicit tape. ``backward()`` on
a scalar replays the tape in reverse topological order, dropping each
node's incoming gradient once it has been passed on, and stores ``.grad``
on leaves only (tensors created with requires_grad=True).

Conventions:
    * every operation returns a new array, except ``transpose`` and
      ``reshape``, which return numpy views of their input's array, and
      ``linear``, which adds the bias into the product's own new buffer
    * broadcasting follows numpy's trailing-dimension rules; backward
      sums gradients over broadcast dimensions
    * gradients accumulate: calling backward twice doubles a leaf's ``.grad``
    * intermediate results never get a ``.grad``; the tape itself is kept,
      so backward can run again over the same graph
    * the tape links records, not arrays: a record links to its parents'
      records (a leaf that requires grad is its own link, a parent that
      needs no gradient has none), and its backward rule keeps only the
      arrays its gradients read, plus parent shapes and requires_grad
      flags, never a Tensor; an intermediate's array is freed with its
      Tensor unless a rule reads it
    * tensors are immutable after creation, except ``.grad``, which
      backward replaces rather than writes into, explicit parameter updates
      performed by an optimizer between backward passes, and
      ``softmax(reuse_input=True)``, which hands a temporary's array to
      its result
    * ``attention`` holds one head's (..., L, L) scores at a time; it keeps
      every head's probabilities, for backward, only when it records
    * a graph must stay confined to one thread during backward
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording: ops inside compute values only."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ts) in enumerate(zip(g.shape, shape)):
        if ts == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _normalize_axes(axes, ndim):
    if axes is None:
        axes = tuple(range(ndim))
    elif isinstance(axes, int):
        axes = (axes,)
    axes = tuple(a % ndim for a in axes)
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate axes {axes}")
    return axes


class Tensor:
    """A dense float64 array with optional gradient tracking.

    ``grad`` is a plain numpy array of the same shape, populated by
    ``backward()`` on leaves only (requires_grad and no recorded op) and
    accumulated across calls until reset to None. A leaf's first gradient
    is the incoming array itself, which may share memory with other
    gradients of the same pass, so replace a ``.grad`` rather than
    writing into it. Results of operations keep ``grad`` None.
    """

    # keep numpy from consuming us in mixed expressions: an array on the
    # left defers to Tensor's reflected op, or raises TypeError without one
    __array_ufunc__ = None

    __slots__ = ("data", "requires_grad", "grad", "_rec")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._rec: _Record | None = None

    # ---- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    # ---- graph core ------------------------------------------------------
    def backward(self) -> None:
        """Add d(self)/d(leaf) onto ``.grad`` of every reachable leaf.

        The loss must be a scalar (size 1). Only leaves, tensors created
        with requires_grad=True, receive ``.grad``; intermediate gradients
        are freed as soon as they have been passed to the parents.
        Contributions from this call are added to any gradient already
        present, into a new array.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")

        root = _link(self)
        if root is None:
            return
        # iterative DFS postorder over records and leaves; creation order
        # would also do, but we only ever see the reachable subgraph this way
        topo: list[_Record | Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[_Record | Tensor, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if isinstance(node, _Record):
                for p in node.parents:
                    if p is not None and id(p) not in visited:
                        stack.append((p, False))

        # gradient flowing through this call only; a node's entry is
        # complete when reversed postorder reaches it (all its consumers
        # come later in topo), so it is popped there and never held again
        flow: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flow.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Tensor):
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node.parents, node.bw(g)):
                if pg is None:
                    continue
                acc = flow.get(id(parent))
                flow[id(parent)] = pg if acc is None else acc + pg

    # ---- elementwise arithmetic -----------------------------------------
    def __add__(self, other):
        a, b = self, _coerce(other)
        out = _node(a.data + b.data, (a, b))
        if out._rec:
            ra, rb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
            out._rec.bw = lambda g: (
                _unbroadcast(g, sa) if ra else None,
                _unbroadcast(g, sb) if rb else None,
            )
        return out

    def __sub__(self, other):
        a, b = self, _coerce(other)
        out = _node(a.data - b.data, (a, b))
        if out._rec:
            ra, rb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
            out._rec.bw = lambda g: (
                _unbroadcast(g, sa) if ra else None,
                _unbroadcast(-g, sb) if rb else None,
            )
        return out

    def __mul__(self, other):
        a, b = self, _coerce(other)
        out = _node(a.data * b.data, (a, b))
        if out._rec:
            ra, rb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
            ad, bd = a.data if rb else None, b.data if ra else None
            out._rec.bw = lambda g: (
                _unbroadcast(g * bd, sa) if ra else None,
                _unbroadcast(g * ad, sb) if rb else None,
            )
        return out

    def __truediv__(self, other):
        a, b = self, _coerce(other)
        out = _node(a.data / b.data, (a, b))
        if out._rec:
            ra, rb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
            ad, bd = a.data if rb else None, b.data
            out._rec.bw = lambda g: (
                _unbroadcast(g / bd, sa) if ra else None,
                _unbroadcast(-g * ad / (bd * bd), sb) if rb else None,
            )
        return out

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("exponent must be a python scalar")
        out = _node(self.data**p, (self,))
        if out._rec:
            ad = self.data
            out._rec.bw = lambda g: (g * p * ad ** (p - 1),)
        return out

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def tanh(self):
        out = _node(np.tanh(self.data), (self,))
        if out._rec:
            y = out.data

            def bw(g):  # g * (1.0 - y * y) in one new buffer
                t = y * y
                np.subtract(1.0, t, out=t)
                return (np.multiply(g, t, out=t),)

            out._rec.bw = bw
        return out

    def abs(self):
        out = _node(np.abs(self.data), (self,))
        if out._rec:
            s = np.sign(self.data)
            out._rec.bw = lambda g: (g * s,)
        return out

    def clamp(self, lo: float):
        """Clip values from below at lo; gradient is identity at or above
        lo (the boundary counts as inside) and zero below."""
        x = self.data
        out = _node(np.clip(x, lo, None), (self,))
        if out._rec:
            inside = x >= lo
            out._rec.bw = lambda g: (g * inside,)
        return out

    # ---- linear algebra --------------------------------------------------
    def __matmul__(self, other):
        a, b = self, _coerce(other)
        _check_matmul(a, b)
        out = _node(a.data @ b.data, (a, b))
        if out._rec:
            ra, rb, sa, sb = a.requires_grad, b.requires_grad, a.shape, b.shape
            ad, bd = a.data if rb else None, b.data if ra else None
            out._rec.bw = lambda g: (
                _unbroadcast(g @ np.swapaxes(bd, -1, -2), sa) if ra else None,
                _unbroadcast(np.swapaxes(ad, -1, -2) @ g, sb) if rb else None,
            )
        return out

    def transpose(self, axes):
        axes = tuple(axes)
        out = _node(self.data.transpose(axes), (self,))
        if out._rec:
            inv = tuple(np.argsort(axes))
            out._rec.bw = lambda g: (g.transpose(inv),)
        return out

    def reshape(self, shape):
        shape = tuple(shape)
        orig = self.data.shape
        out = _node(self.data.reshape(shape), (self,))
        if out._rec:
            out._rec.bw = lambda g: (g.reshape(orig),)
        return out

    # ---- reductions --------------------------------------------------------
    def sum(self, axes=None, keepdims: bool = False):
        axes = _normalize_axes(axes, self.ndim)
        out = _node(self.data.sum(axis=axes, keepdims=keepdims), (self,))
        if out._rec:
            shape = self.data.shape
            kshape = tuple(1 if i in axes else s for i, s in enumerate(shape))
            out._rec.bw = lambda g: (np.broadcast_to(g.reshape(kshape), shape).copy(),)
        return out

    def mean(self, axes=None, keepdims: bool = False):
        axes = _normalize_axes(axes, self.ndim)
        n = 1
        for a in axes:
            n *= self.data.shape[a]
        if n == 0:
            raise ValueError("mean over an empty reduction set")
        return self.sum(axes, keepdims) * (1.0 / n)

    def softmax(self, axis: int = -1, scale: float = 1.0, reuse_input: bool = False):
        """Numerically stable softmax of ``x * scale`` along one axis.

        The same float operations as ``(x * scale).softmax(axis)``, done
        in one buffer: scale, subtract the max, exponentiate, divide by
        the sum. By default the buffer is new. reuse_input=True computes
        in this tensor's own array instead, which then holds the result:
        only for a temporary that nothing reads again, made by an op
        whose backward reads only its inputs; softmax's own backward reads
        only its output. Its one caller is ``attention``, which softmaxes
        each head's score tile where ``q @ kᵀ`` wrote it.
        """
        axis = axis % self.ndim
        y = np.multiply(self.data, scale, out=self.data if reuse_input else None)
        y -= y.max(axis=axis, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=axis, keepdims=True)
        out = _node(y, (self,))
        if out._rec:
            out._rec.bw = lambda g: (_softmax_grad(g, y, axis, scale),)
        return out

    # ---- indexing / structure ---------------------------------------------
    def take(self, indices: np.ndarray):
        """Gather by flat index; result has the index array's shape."""
        idx = np.asarray(indices, dtype=np.int64)
        out = _node(self.data.reshape(-1)[idx], (self,))
        if out._rec:
            shape = self.data.shape

            def bw(g):
                gx = np.zeros(shape, dtype=np.float64).reshape(-1)
                np.add.at(gx, idx.reshape(-1), g.reshape(-1))
                return (gx.reshape(shape),)

            out._rec.bw = bw
        return out

    def pad(self, pad_width):
        """Zero padding, pad_width as in numpy.pad."""
        pw = tuple((int(a), int(b)) for a, b in pad_width)
        out = _node(np.pad(self.data, pw), (self,))
        if out._rec:
            sl = tuple(slice(a, a + s) for (a, _), s in zip(pw, self.data.shape))
            out._rec.bw = lambda g: (g[sl],)
        return out


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int, scale: float) -> np.ndarray:
    """Gradient into x of y = softmax(x * scale) along axis, given g into y."""
    gx = g - (g * y).sum(axis=axis, keepdims=True)
    gx *= y
    gx *= scale
    return gx


class _Record:
    """One recorded op: its parents' links, in the op's parent order, and
    the backward rule mapping the output's gradient to one gradient (or
    None) per parent."""

    __slots__ = ("parents", "bw")

    def __init__(self, parents: tuple):
        self.parents = parents
        self.bw = None


def _link(t: Tensor) -> _Record | Tensor | None:
    """t's node on the tape: its record, t itself for a leaf that requires
    grad, None for a tensor that needs no gradient."""
    if t._rec is not None:
        return t._rec
    return t if t.requires_grad else None


def _node(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    """A result Tensor, given a record when grad is enabled and a parent
    requires grad; the caller then sets the record's ``bw``."""
    out = Tensor(data)
    if _grad_enabled:
        links = tuple(_link(p) for p in parents)
        if any(link is not None for link in links):
            out.requires_grad = True
            out._rec = _Record(links)
    return out


def stack(tensors) -> Tensor:
    """Same-shape tensors joined along a new leading axis."""
    ts = [_coerce(t) for t in tensors]
    out = _node(np.stack([t.data for t in ts]), tuple(ts))
    if out._rec:
        need = [t.requires_grad for t in ts]
        out._rec.bw = lambda g: tuple(g[i] if r else None for i, r in enumerate(need))
    return out


def reduce_stats(x: Tensor, axes) -> tuple[Tensor, Tensor]:
    """Differentiable mean and population variance over the given axes."""
    axes = _normalize_axes(axes, x.ndim)
    m_keep = x.mean(axes, keepdims=True)
    d = x - m_keep
    return x.mean(axes), (d * d).mean(axes)


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """``x @ W + b`` as one node, with the bias added into the product's
    buffer. Forward and backward make the float operations of the matmul
    and add pair, so results and gradients are bitwise those of the pair.
    The parents (x, W, b) keep the pair's backward visiting order."""
    _check_matmul(x, W)
    y = x.data @ W.data
    y += b.data
    out = _node(y, (x, W, b))
    if out._rec:
        rx, rw, rb = x.requires_grad, W.requires_grad, b.requires_grad
        sx, sw, sb = x.shape, W.shape, b.shape
        xd, wd = x.data if rw else None, W.data if rx else None
        out._rec.bw = lambda g: (
            _unbroadcast(g @ np.swapaxes(wd, -1, -2), sx) if rx else None,
            _unbroadcast(np.swapaxes(xd, -1, -2) @ g, sw) if rw else None,
            _unbroadcast(g, sb) if rb else None,
        )
    return out


def layer_norm(x: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (variance floor
    1e-5). No affine.

    One node with the float operations, forward and backward, of the
    composite ``d = x - x.mean(-1, keepdims=True)`` then
    ``d / ((d * d).mean(-1, keepdims=True) + 1e-5) ** 0.5``. x is listed
    twice among the parents: its gradient through d and its gradient
    through the mean arrive separately, in the composite's order, so a
    shared x adds them to its other gradients one at a time as there.
    """
    axes, inv_n = (x.ndim - 1,), 1.0 / x.shape[-1]
    d = x.data - x.data.sum(axis=axes, keepdims=True) * inv_n
    ve = (d * d).sum(axis=axes, keepdims=True) * inv_n + 1e-5
    r = ve**0.5
    out = _node(d / r, (x, x))
    if out._rec:
        def bw(g):
            gr = _unbroadcast(-g * d / (r * r), r.shape)
            gdd = gr * 0.5 * ve**-0.5 * inv_n
            gd = g / r
            # d * d passes gdd * d once to each of its two operands
            t = gdd * d
            gd += t
            gd += t
            gmu = _unbroadcast(-gd, r.shape) * inv_n
            return gd, np.broadcast_to(gmu, d.shape).copy()

        out._rec.bw = bw
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, scale: float) -> Tensor:
    """Multi-head ``softmax(q @ kᵀ * scale) @ v`` over (..., L, d) q, k and
    v, each head a d/n_heads-wide channel slice, as one node.

    Heads are computed one at a time, each (..., L, L) score tile softmaxed
    in place and multiplied into its slice of the output. Only a recording
    node keeps every head's probabilities, as one (..., n_heads, L, L)
    array for backward; under no_grad one tile serves every head. Forward
    and backward make the float operations of the composite that reshapes
    and transposes each input to (..., n_heads, L, d/n_heads), multiplies
    by the transposed keys, softmaxes, multiplies by v and transposes and
    reshapes back, so results and gradients are bitwise that composite's.
    The parents (q, k, v) keep its backward visiting order.
    """
    if not q.shape == k.shape == v.shape:
        raise ValueError(f"attention q, k, v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    if q.ndim < 2 or n_heads < 1 or q.shape[-1] % n_heads:
        raise ValueError(f"attention needs (..., L, d) inputs with d divisible by the "
                         f"heads, got {q.shape} and {n_heads} heads")
    *lead, L, d = q.shape
    lead, dh = tuple(lead), d // n_heads
    n = len(lead)
    # (..., L, heads, d_head) <-> (..., heads, L, d_head)
    swap = tuple(range(n)) + (n + 1, n, n + 2)
    qh, kh, vh = (t.data.reshape(lead + (L, n_heads, dh)).transpose(swap) for t in (q, k, v))
    k_t = np.swapaxes(kh, -1, -2)
    o = np.empty(lead + (L, n_heads, dh))
    recording = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    p = np.empty(lead + (n_heads, L, L)) if recording else None
    buf = None if recording else np.empty(lead + (L, L))
    for h in range(n_heads):
        tile = p[..., h, :, :] if recording else buf
        np.matmul(qh[..., h, :, :], k_t[..., h, :, :], out=tile)
        Tensor(tile).softmax(axis=-1, scale=scale, reuse_input=True)
        np.matmul(tile, vh[..., h, :, :], out=o[..., h, :])
    out = _node(o.reshape(lead + (L, d)), (q, k, v))
    if out._rec:
        rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad
        # keep only what the wanted gradients read: q's reads the keys,
        # k's the queries, and both read the values
        qh, kh, vh = qh if rk else None, kh if rq else None, vh if rq or rk else None

        def back(gh):  # (..., heads, L, d_head) -> (..., L, d), a new array
            return gh.transpose(swap).reshape(lead + (L, d))

        def bw(g):
            # the composite's order: both products of `@ v`, the softmax
            # rule, both products of `q @ kᵀ`, then back to (..., L, d)
            go = g.reshape(lead + (L, n_heads, dh)).transpose(swap)
            ga = go @ np.swapaxes(vh, -1, -2) if rq or rk else None
            gv = np.swapaxes(p, -1, -2) @ go if rv else None
            gq = gk = None
            if ga is not None:
                gs = _softmax_grad(ga, p, -1, scale)
                gq = gs @ kh if rq else None
                if rk:
                    gk = np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)
            return tuple(None if gh is None else back(gh) for gh in (gq, gk, gv))

        out._rec.bw = bw
    return out
