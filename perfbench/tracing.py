"""Per-layer tracing by swapping timing wrappers in at module boundaries.

The layers are the modules of ``fredet``.  ``Tracer.install`` replaces
each name in ``BOUNDARIES`` (a function a module imported from another, or
a kernel-class method) with a wrapper that records a span; ``uninstall``
puts the originals back.  Nothing in the library changes, and the wrappers
only time and count, so traced outputs are bit-identical to untraced ones.

A span's self time is its duration minus the spans it encloses; summed
over the layers, self times add up to the time of a traced pass except for
the benchmark's own loop, reported as ``trace.remainder_s``.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import Counter
from time import perf_counter


def _out_size(args, kwargs, out):
    shape = getattr(out, "shape", ())
    return math.prod(shape) if shape else 1


def _lu_flops(args, kwargs, out):
    n = args[0].shape[0]
    return 2.0 * n ** 3 / 3.0


def _cholesky_flops(args, kwargs, out):
    n = args[0].shape[0]
    return n ** 3 / 3.0


def _inner_nodes(args, kwargs, out):
    return args[0].inner_size


# (module[:class], attribute, key, layer, work counter, nested)
#
# A wrapper whose enclosing span is in its own layer passes straight
# through (TransformedKernel.matrix calling its base kernel's matrix is one
# kernel-matrix call), unless it is marked nested: those are counted
# wherever they run.
BOUNDARIES = [
    ("fredet.rmt", "gauss_legendre", "quadrature.rule", "quadrature", None, False),
    ("fredet.kernels", "gauss_legendre", "quadrature.rule", "quadrature", None, False),
    ("fredet.nystrom", "gauss_legendre", "quadrature.rule", "quadrature", None, False),
    ("fredet.kernels", "airy_ai", "specfun.ai", "specfun", _out_size, False),
    ("fredet.kernels", "airy_ai_prime", "specfun.ai_prime", "specfun", _out_size, False),
    ("fredet.kernels", "airy_ai_scaled", "specfun.ai_scaled", "specfun", _out_size, False),
    ("fredet.kernels:Kernel", "matrix", "kernels.matrix", "kernels", _out_size, False),
    ("fredet.kernels:AiryKernel", "matrix", "kernels.matrix", "kernels", _out_size, False),
    ("fredet.kernels:Airy2ProcessKernel", "matrix", "kernels.matrix", "kernels", _out_size, False),
    ("fredet.kernels:TransformedKernel", "matrix", "kernels.matrix", "kernels", _out_size, False),
    ("fredet.kernels:Airy2ProcessKernel", "basis", "kernels.basis", "kernels", None, False),
    ("fredet.kernels:Airy2ProcessKernel", "gaussian_part", "kernels.gaussian", "kernels", None, False),
    ("fredet.kernels:Airy2ProcessKernel", "__init__", "kernels.inner_build", "kernels",
     _inner_nodes, False),
    ("fredet.nystrom", "det_cholesky", "linalg.cholesky", "linalg", _cholesky_flops, False),
    ("fredet.nystrom", "det_lu", "linalg.lu", "linalg", _lu_flops, False),
    ("fredet.nystrom", "frobenius_norm", "linalg.norm", "linalg", None, False),
    ("fredet.rmt", "det_lu", "linalg.lu", "linalg", _lu_flops, False),
    ("fredet.rmt", "fredholm_det", "nystrom.det", "nystrom", None, False),
    ("fredet.rmt", "fredholm_det_system", "nystrom.system", "nystrom", None, False),
    ("fredet.rmt", "_balance_blocks", "nystrom.balance", "nystrom", None, False),
    ("fredet.nystrom", "_balance_blocks", "nystrom.balance", "nystrom", None, True),
    ("fredet.rmt", "_marginal", "rmt.marginal", "rmt", None, True),
    ("fredet.rmt:_JointTable", "joint", "rmt.joint", "rmt", None, True),
    ("fredet.rmt", "_cov_zero", "rmt.level", "rmt", None, True),
    ("fredet.rmt", "_cov_positive", "rmt.level", "rmt", None, True),
]

def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def boundary_objects() -> dict:
    """The objects now bound at every boundary, to check a restore."""
    return {f"{path}.{name}": vars(_owner(path))[name]
            for path, name, *_ in BOUNDARIES}


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self._stack = []
        self._patched = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.errors = Counter()
        self.work = Counter()
        self.span_s = Counter()
        self.self_s = Counter()

    def wrap(self, fn, key, layer, work=None, nested=False):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not nested and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[key] += 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.span_s[key] += dur
                self.calls[key] += 1
            if work is not None:
                self.work[key] += work(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        for path, name, key, layer, work, nested in BOUNDARIES:
            owner = _owner(path)
            original = vars(owner)[name]
            self._patched.append((owner, name, original))
            setattr(owner, name, self.wrap(original, key, layer, work, nested))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched = []

    def counts(self) -> dict:
        """Everything that must repeat exactly from pass to pass."""
        return {"calls": dict(self.calls), "errors": dict(self.errors),
                "work": dict(self.work)}
