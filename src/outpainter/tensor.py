"""Dense float64 tensors with reverse-mode automatic differentiation.

Substrate for every differentiable computation in this package. A Tensor
wraps a numpy float64 array; operations on tensors that require gradients
record their parents and a backward rule, forming an implicit tape.
``backward()`` on a scalar replays the tape in reverse topological order,
dropping each node's incoming gradient once it has been passed on, and
stores ``.grad`` on leaves only (tensors created with requires_grad=True).

Conventions:
    * every operation materializes its result, there are no views
    * broadcasting follows numpy's trailing-dimension rules; backward
      sums gradients over broadcast dimensions
    * gradients accumulate: calling backward twice doubles a leaf's ``.grad``
    * intermediate results never get a ``.grad``; the tape itself is kept,
      so backward can run again over the same graph
    * tensors are immutable after creation, except ``.grad``, which
      backward replaces rather than writes into, explicit parameter updates
      performed by an optimizer between backward passes, and
      ``softmax(reuse_input=True)``, which hands a temporary's array to
      its result
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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._bw = None

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

        # iterative DFS postorder; creation order would also do, but we
        # only ever see the reachable subgraph this way
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        # gradient flowing through this call only; a node's entry is
        # complete when reversed postorder reaches it (all its consumers
        # come later in topo), so it is popped there and never held again
        flow: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flow.pop(id(node), None)
            if g is None:
                continue
            if node._bw is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._bw(g)):
                if pg is None:
                    continue
                acc = flow.get(id(parent))
                flow[id(parent)] = pg if acc is None else acc + pg

    # ---- elementwise arithmetic -----------------------------------------
    def __add__(self, other):
        a, b = self, _coerce(other)
        out = _node(a.data + b.data, (a, b))
        if out._parents:
            out._bw = lambda g: (
                _unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None,
            )
        return out

    def __sub__(self, other):
        a, b = self, _coerce(other)
        out = _node(a.data - b.data, (a, b))
        if out._parents:
            out._bw = lambda g: (
                _unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None,
            )
        return out

    def __mul__(self, other):
        a, b = self, _coerce(other)
        out = _node(a.data * b.data, (a, b))
        if out._parents:
            ad, bd = a.data, b.data
            out._bw = lambda g: (
                _unbroadcast(g * bd, a.shape) if a.requires_grad else None,
                _unbroadcast(g * ad, b.shape) if b.requires_grad else None,
            )
        return out

    def __truediv__(self, other):
        a, b = self, _coerce(other)
        out = _node(a.data / b.data, (a, b))
        if out._parents:
            ad, bd = a.data, b.data
            out._bw = lambda g: (
                _unbroadcast(g / bd, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * ad / (bd * bd), b.shape) if b.requires_grad else None,
            )
        return out

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("exponent must be a python scalar")
        a = self
        out = _node(a.data**p, (a,))
        if out._parents:
            ad = a.data
            out._bw = lambda g: (g * p * ad ** (p - 1),)
        return out

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def tanh(self):
        out = _node(np.tanh(self.data), (self,))
        if out._parents:
            y = out.data
            out._bw = lambda g: (g * (1.0 - y * y),)
        return out

    def abs(self):
        out = _node(np.abs(self.data), (self,))
        if out._parents:
            s = np.sign(self.data)
            out._bw = lambda g: (g * s,)
        return out

    def clamp(self, lo: float):
        """Clip values from below at lo; gradient is identity at or above
        lo (the boundary counts as inside) and zero below."""
        x = self.data
        out = _node(np.clip(x, lo, None), (self,))
        if out._parents:
            inside = x >= lo
            out._bw = lambda g: (g * inside,)
        return out

    # ---- linear algebra --------------------------------------------------
    def __matmul__(self, other):
        a, b = self, _coerce(other)
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
        out = _node(a.data @ b.data, (a, b))
        if out._parents:
            ad, bd = a.data, b.data
            out._bw = lambda g: (
                _unbroadcast(g @ np.swapaxes(bd, -1, -2), a.shape) if a.requires_grad else None,
                _unbroadcast(np.swapaxes(ad, -1, -2) @ g, b.shape) if b.requires_grad else None,
            )
        return out

    def transpose(self, axes):
        axes = tuple(axes)
        out = _node(self.data.transpose(axes), (self,))
        if out._parents:
            inv = tuple(np.argsort(axes))
            out._bw = lambda g: (g.transpose(inv),)
        return out

    def reshape(self, shape):
        shape = tuple(shape)
        orig = self.data.shape
        out = _node(self.data.reshape(shape), (self,))
        if out._parents:
            out._bw = lambda g: (g.reshape(orig),)
        return out

    # ---- reductions --------------------------------------------------------
    def sum(self, axes=None, keepdims: bool = False):
        axes = _normalize_axes(axes, self.ndim)
        out = _node(self.data.sum(axis=axes, keepdims=keepdims), (self,))
        if out._parents:
            shape = self.data.shape
            kshape = tuple(1 if i in axes else s for i, s in enumerate(shape))
            out._bw = lambda g: (np.broadcast_to(g.reshape(kshape), shape).copy(),)
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
        whose backward reads only its inputs (matmul does); softmax's
        own backward reads only its output.
        """
        axis = axis % self.ndim
        y = np.multiply(self.data, scale, out=self.data if reuse_input else None)
        y -= y.max(axis=axis, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=axis, keepdims=True)
        out = _node(y, (self,))
        if out._parents:
            def bw(g):
                gx = g - (g * y).sum(axis=axis, keepdims=True)
                gx *= y
                gx *= scale
                return (gx,)

            out._bw = bw
        return out

    # ---- indexing / structure ---------------------------------------------
    def take(self, indices: np.ndarray):
        """Gather by flat index; result has the index array's shape."""
        idx = np.asarray(indices, dtype=np.int64)
        out = _node(self.data.reshape(-1)[idx], (self,))
        if out._parents:
            shape = self.data.shape

            def bw(g):
                gx = np.zeros(shape, dtype=np.float64).reshape(-1)
                np.add.at(gx, idx.reshape(-1), g.reshape(-1))
                return (gx.reshape(shape),)

            out._bw = bw
        return out

    def pad(self, pad_width):
        """Zero padding, pad_width as in numpy.pad."""
        pw = tuple((int(a), int(b)) for a, b in pad_width)
        out = _node(np.pad(self.data, pw), (self,))
        if out._parents:
            sl = tuple(slice(a, a + s) for (a, _), s in zip(pw, self.data.shape))
            out._bw = lambda g: (g[sl],)
        return out


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def stack(tensors) -> Tensor:
    """Same-shape tensors joined along a new leading axis."""
    ts = [_coerce(t) for t in tensors]
    out = _node(np.stack([t.data for t in ts]), tuple(ts))
    if out._parents:
        out._bw = lambda g: tuple(g[i] if t.requires_grad else None for i, t in enumerate(ts))
    return out


def reduce_stats(x: Tensor, axes) -> tuple[Tensor, Tensor]:
    """Differentiable mean and population variance over the given axes."""
    axes = _normalize_axes(axes, x.ndim)
    m_keep = x.mean(axes, keepdims=True)
    d = x - m_keep
    return x.mean(axes), (d * d).mean(axes)
