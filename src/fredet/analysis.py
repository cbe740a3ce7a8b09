"""Computable pieces of the error theory, used by the property-test suite.

* Hadamard bound n^(n/2) ||K||_inf^n on kernel minors, with a random
  sampling witness.
* The entire function Phi(x) = sum n^((n+2)/2) x^n / n! and its sharp
  enclosure sqrt(e/pi) x Psi(x sqrt(2e)) <= Phi(x) <= x Psi(x sqrt(2e)),
  where Psi(z) = 1 + (sqrt(pi)/2) z e^(z^2/4) (1 + erf(z/2)).

Phi grows like exp(e x^2 / 2), which leaves IEEE doubles near x = 22.8,
so both are computed as logarithms: the enclosure can then be checked
over the whole range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel
from .linalg import det_lu

__all__ = [
    "BoundReport",
    "hadamard_bound",
    "hadamard_witness",
    "log_phi_series",
    "log_psi_closed",
]


@dataclass(frozen=True)
class BoundReport:
    """A bound together with the sampled quantity it dominates."""

    n: int
    bound: float
    witness: float


def hadamard_bound(n: int, k_inf: float) -> float:
    """Hadamard's bound n^(n/2) c^n on |det(K(t_p, t_q))| for |K| <= c."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k_inf < 0.0:
        raise ValueError("k_inf must be nonnegative")
    return float(n) ** (n / 2.0) * k_inf ** n


def hadamard_witness(kernel: Kernel, interval: tuple[float, float], n: int,
                     samples: int = 10_000, seed: int = 0) -> BoundReport:
    """Sample random node tuples and report max |det(K(t_p, t_q))| against
    the Hadamard bound computed from the sampled sup of |K|."""
    a, b = interval
    rng = np.random.default_rng(seed)
    pts = rng.uniform(a, b, size=(samples, n))
    k_inf = 0.0
    witness = 0.0
    for row in pts:
        minor = np.asarray(kernel.matrix(row, row), dtype=float)
        k_inf = max(k_inf, float(np.max(np.abs(minor))))
        witness = max(witness, abs(det_lu(minor)))
    return BoundReport(n=n, bound=hadamard_bound(n, k_inf), witness=witness)


def log_phi_series(x: float, tol: float = 1e-16) -> float:
    """log Phi(x), via shifted log-sum-exp accumulation of the series."""
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return -math.inf
    logx = math.log(x)
    chunks = []
    best = -math.inf
    start = 1
    block = 4096
    while start < 4_000_000:
        n = np.arange(start, start + block, dtype=float)
        lt = 0.5 * (n + 2.0) * np.log(n) + n * logx - np.vectorize(math.lgamma)(n + 1.0)
        chunks.append(lt)
        best = max(best, float(np.max(lt)))
        # terms decay superexponentially once n >> e x^2; stop when the
        # whole block is negligible against the running maximum
        if float(np.max(lt)) < best + math.log(tol) - 2.0:
            break
        start += block
    else:
        raise RuntimeError("Phi series failed to converge")
    arr = np.concatenate(chunks)
    with np.errstate(under="ignore"):
        return best + math.log(float(np.sum(np.exp(arr - best))))


def log_psi_closed(x: float) -> float:
    """log Psi(x) for x >= 0, safe for large x."""
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 0.0
    # log of the dominating term; the constant 1 is folded in via log1p
    main = math.log(0.5 * math.sqrt(math.pi) * x * (1.0 + math.erf(x / 2.0))) + x * x / 4.0
    if main > 30.0:
        return main + math.log1p(math.exp(-main))
    return math.log1p(math.exp(main))
