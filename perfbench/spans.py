"""In-memory span tracing from outside the package.

A Tracer wraps named functions and methods of the package. Every call
records a span (name, start, end, parent) in a list; self time is a span's
duration minus the durations of its direct children, which nest and do
not overlap in this single-threaded process. A function imported by name
into another module (`from .diffusion import sample`) is looked up in that
module, so each wrapper is installed on every module attribute that holds
the original, not only where it is defined.
"""

import functools
import os
import sys
from time import perf_counter


def patch_everywhere(owner, attr: str, replacement) -> list:
    """Set owner.attr and every package module attribute bound to the same
    object to `replacement`; return the (holder, name, original) undo list."""
    original = vars(owner)[attr]
    undo = [(owner, attr, original)]
    setattr(owner, attr, replacement)
    if isinstance(owner, type):
        return undo
    for name, module in list(sys.modules.items()):
        if module is owner or not name.startswith("outpainter"):
            continue
        for key, val in list(vars(module).items()):
            if val is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def restore(undo: list) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


class Tracer:
    def __init__(self, targets: dict):
        """targets: span name -> (module or class, attribute name)."""
        self.targets = targets
        self.names = list(targets)
        self.spans = []
        self.bytes_read = 0
        self.bytes_written = 0
        self._stack = []
        self._undo = []

    def _wrap(self, index: int, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[me] = (index, start, end, stack[-1] if stack else -1)
        return traced

    def _count_bytes(self, fn, field: str):
        @functools.wraps(fn)
        def counted(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            setattr(self, field, getattr(self, field) + os.path.getsize(path))
            return result
        return counted

    def install(self, frameio_module) -> None:
        for i, (owner, attr) in enumerate(self.targets.values()):
            self._undo += patch_everywhere(owner, attr, self._wrap(i, vars(owner)[attr]))
        for attr, field in (("load_ppm", "bytes_read"), ("save_ppm", "bytes_written")):
            fn = vars(frameio_module)[attr]
            self._undo += patch_everywhere(frameio_module, attr, self._count_bytes(fn, field))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def totals(self) -> dict:
        """span name -> (calls, self seconds)."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for me, (i, start, end, _) in enumerate(self.spans):
            calls[i] += 1
            total[i] += end - start - child[me]
        return {n: (calls[i], total[i]) for i, n in enumerate(self.names)}
