"""Nystrom-type approximation of Fredholm determinants.

The determinant ``det(I + z A)`` of the integral operator with kernel K on
(a, b) is approximated by the m x m matrix determinant

    d_Q(z) = det(I + z A_Q),   (A_Q)_ij = w_i^(1/2) K(x_i, x_j) w_j^(1/2),

built from a quadrature rule with positive weights.  The same construction
extends to N x N systems of operators by assembling the block matrix with
(A_ij)_pq = w_ip^(1/2) K_ij(x_ip, x_jq) w_jq^(1/2).

A brute-force oracle evaluates the truncated determinant power series

    d(z) ~ 1 + sum_n (z^n / n!) Q^n(K_n),
    K_n(t_1..t_n) = det(K(t_p, t_q)),

directly from kernel minors; once the series index reaches the matrix
dimension the two routes agree exactly (the series is the von Koch
principal-minor expansion of d_Q), which the test suite exploits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import Kernel
from .linalg import (DEFAULT_EPS_MULTIPLE, UNIT_ROUNDOFF, DetResult,
                     NotPositiveDefiniteError, det_cholesky, det_lu,
                     frobenius_norm)
from .quadrature import (PRODUCT_RULE_CAP, QuadRule, ResourceLimitError,
                         clenshaw_curtis, gauss_legendre)

__all__ = [
    "NystromProblem",
    "BlockSystem",
    "KernelEvaluationError",
    "nystrom_matrix",
    "fredholm_det",
    "fredholm_det_system",
    "fredholm_series_oracle",
    "fredholm_series_oracle_system",
    "von_koch_det",
    "StudyRow",
    "convergence_study",
    "rule_for_family",
]


class KernelEvaluationError(ArithmeticError):
    """Kernel returned a non-finite value at some node pair."""


@dataclass(frozen=True)
class NystromProblem:
    """A single-operator determinant problem det(I + z A) on (a, b)."""

    kernel: Kernel
    interval: tuple[float, float]
    z: complex | float
    rule: QuadRule

    def __post_init__(self):
        a, b = self.interval
        if not (math.isclose(self.rule.a, a, rel_tol=1e-12, abs_tol=1e-12)
                and math.isclose(self.rule.b, b, rel_tol=1e-12, abs_tol=1e-12)):
            raise ValueError(
                f"rule on [{self.rule.a}, {self.rule.b}] does not match interval [{a}, {b}]")


@dataclass(frozen=True)
class BlockSystem:
    """An N x N system of kernels K_ij on I_i x I_j with one rule per interval."""

    intervals: tuple[tuple[float, float], ...]
    kernels: tuple[tuple[Kernel, ...], ...]
    rules: tuple[QuadRule, ...]

    def __post_init__(self):
        n = len(self.intervals)
        if n < 1:
            raise ValueError("system needs at least one interval")
        if len(self.rules) != n or len(self.kernels) != n or any(
                len(row) != n for row in self.kernels):
            raise ValueError("kernel grid / rule list shapes do not match N intervals")
        for (a, b), rule in zip(self.intervals, self.rules):
            if not (math.isclose(rule.a, a, rel_tol=1e-12, abs_tol=1e-12)
                    and math.isclose(rule.b, b, rel_tol=1e-12, abs_tol=1e-12)):
                raise ValueError(f"rule on [{rule.a}, {rule.b}] does not match interval [{a}, {b}]")

    @property
    def n_blocks(self) -> int:
        return len(self.intervals)


def _normalize_z(z):
    if isinstance(z, complex) and z.imag == 0.0:
        return z.real
    return z


def _check_finite_kernel(k_matrix):
    if not np.all(np.isfinite(k_matrix)):
        bad = np.argwhere(~np.isfinite(np.asarray(k_matrix)))
        raise KernelEvaluationError(
            f"kernel returned non-finite values at node index pairs {bad[:8].tolist()}"
            + (" ..." if bad.shape[0] > 8 else ""))


def nystrom_matrix(kernel: Kernel, rule: QuadRule) -> np.ndarray:
    """The symmetric discretization A_Q = diag(sqrt w) K diag(sqrt w)."""
    sw = np.sqrt(rule.weights)
    k = kernel.matrix(rule.nodes, rule.nodes)
    _check_finite_kernel(k)
    return sw[:, None] * k * sw[None, :]


def _det_auto(b_matrix, hermitian: bool):
    """Cholesky when the Hermitian positive definite fast path applies,
    LU with partial pivoting otherwise.  Returns the value and the path
    taken (the ``DetResult.method`` values)."""
    if hermitian and not np.iscomplexobj(b_matrix):
        try:
            return det_cholesky(b_matrix), "cholesky"
        except NotPositiveDefiniteError:
            return det_lu(b_matrix), "cholesky->lu"
    return det_lu(b_matrix), "lu"


def fredholm_det(problem: NystromProblem,
                 eps_multiple: float = DEFAULT_EPS_MULTIPLE) -> DetResult:
    """Nystrom-type value of det(I + z A) for a single operator.

    Uses Cholesky on I + z A_Q when the kernel is Hermitian and z is real
    (falling back to LU if the factorization signals an indefinite
    matrix); ``DetResult.method`` records which path ran.  The attached
    roundoff bound is sqrt(m) * ||z A_Q||_F * (eps_multiple * unit roundoff).
    """
    z = _normalize_z(problem.z)
    a_q = nystrom_matrix(problem.kernel, problem.rule)
    m = a_q.shape[0]
    b = np.eye(m) + z * a_q
    value, method = _det_auto(b, problem.kernel.hermitian and not isinstance(z, complex))
    bound = math.sqrt(m) * abs(z) * frobenius_norm(a_q) * eps_multiple * UNIT_ROUNDOFF
    return DetResult(value=value, m=m, roundoff_bound=bound, method=method)


def _system_matrix(system: BlockSystem, balance: bool) -> np.ndarray:
    n = system.n_blocks
    sizes = [rule.m for rule in system.rules]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    blocks = [[None] * n for _ in range(n)]
    for i in range(n):
        swi = np.sqrt(system.rules[i].weights)
        for j in range(n):
            swj = np.sqrt(system.rules[j].weights)
            kij = system.kernels[i][j].matrix(system.rules[i].nodes,
                                              system.rules[j].nodes)
            _check_finite_kernel(kij)
            blocks[i][j] = swi[:, None] * np.asarray(kij, dtype=float) * swj[None, :]
    if balance and n > 1:
        _balance_blocks(blocks)
    out = np.empty((total, total))
    for i in range(n):
        for j in range(n):
            out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = blocks[i][j]
    return out


def _balance_blocks(blocks) -> np.ndarray:
    """Rescale block rows/columns by powers of two (an exact similarity
    transform, so the determinant is unchanged) to even out block
    magnitudes; matters for process kernels whose off-diagonal blocks
    carry opposite exponential factors.

    Each block may also be a stack ``(..., m_i, m_j)`` of blocks of
    independent systems; every system then gets its own shifts, the same
    ones it would get alone.  Only the off-diagonal blocks are read and
    scaled, in place.  Returns the exponents, shape ``(N, ...)``: block
    (i, j) is scaled by 2^(shift[i] - shift[j]).
    """
    n = len(blocks)
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    stack = np.broadcast_shapes(*(np.shape(blocks[i][j])[:-2] for i, j in off))
    shift = np.zeros((n,) + stack)
    if n < 2:
        return shift
    mags = np.zeros((n, n) + stack)
    for i, j in off:
        mags[i, j] = np.max(np.abs(blocks[i][j]), axis=(-2, -1))
    for _ in range(20):
        moved = False
        for i in range(n):
            others = [j for j in range(n) if j != i]
            row = np.max([mags[i, j] * 2.0 ** (shift[i] - shift[j]) for j in others], axis=0)
            col = np.max([mags[j, i] * 2.0 ** (shift[j] - shift[i]) for j in others], axis=0)
            live = (row > 0.0) & (col > 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                # np.rint rounds halves to even, like the builtin round
                delta = np.where(live, np.rint(0.5 * np.log2(col / row)), 0.0)
            shift[i] += delta
            moved = moved or bool(np.any(delta != 0.0))
        if not moved:
            break
    for i, j in off:
        blocks[i][j] *= np.asarray(2.0 ** (shift[i] - shift[j]))[..., None, None]
    return shift


def fredholm_det_system(system: BlockSystem, z: complex | float,
                        eps_multiple: float = DEFAULT_EPS_MULTIPLE,
                        balance: bool = True) -> DetResult:
    """Nystrom-type value of det(I + z A) for an N x N block system.

    ``balance`` applies an exact power-of-two block rescaling before
    factorization; it never changes the determinant in exact arithmetic
    and greatly reduces roundoff for badly scaled off-diagonal blocks.
    """
    z = _normalize_z(z)
    a_q = _system_matrix(system, balance=balance)
    m = a_q.shape[0]
    b = np.eye(m) + z * a_q
    hermitian = (not isinstance(z, complex)) and bool(
        np.all(np.abs(a_q - a_q.T) <= 1e-13 * (1.0 + np.abs(a_q))))
    value, method = _det_auto(b, hermitian)
    bound = math.sqrt(m) * abs(z) * frobenius_norm(a_q) * eps_multiple * UNIT_ROUNDOFF
    return DetResult(value=value, m=m, roundoff_bound=bound, method=method)


# ---------------------------------------------------------------------------
# Truncated-series oracle
# ---------------------------------------------------------------------------

def _series_from_matrix(k_matrix, weights, z, n_max, cap) -> complex | float:
    """1 + sum_{n=1}^{n_max} (z^n/n!) Q^n(K_n) evaluated from kernel minors.

    Tuples with a repeated index contribute a zero minor, and the n! equal
    permutations of each distinct index set share one principal minor, so
    the product-rule sum collapses exactly to the von Koch form
    sum_n z^n sum_{|S|=n} prod(w_S) det(K[S, S]).
    """
    m = len(weights)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if m ** n_max > cap:
        raise ResourceLimitError(
            f"series oracle needs {m}^{n_max} product-rule points, over the cap {cap}")
    w = np.asarray(weights, dtype=float)
    k = np.asarray(k_matrix)
    total = 1.0 + (z * 0)  # promotes to complex for complex z
    for n in range(1, min(n_max, m) + 1):
        terms = []
        for subset in itertools.combinations(range(m), n):
            idx = list(subset)
            minor = det_lu(k[np.ix_(idx, idx)])
            terms.append(float(np.prod(w[idx])) * minor)
        total = total + z ** n * math.fsum(terms)
    return total


def fredholm_series_oracle(problem: NystromProblem, n_max: int,
                           cap: int = PRODUCT_RULE_CAP) -> complex | float:
    """Brute-force series value for a single operator; with ``n_max >= m``
    this equals ``fredholm_det`` up to roundoff (the series terminates)."""
    rule = problem.rule
    k = problem.kernel.matrix(rule.nodes, rule.nodes)
    _check_finite_kernel(k)
    return _series_from_matrix(k, rule.weights, _normalize_z(problem.z), n_max, cap)


def fredholm_series_oracle_system(system: BlockSystem, z: complex | float,
                                  n_max: int, cap: int = PRODUCT_RULE_CAP) -> complex | float:
    """Brute-force series value for an N x N system, via the flattened
    extended node set (node p of interval i pairs with kernel K_ij)."""
    sizes = [rule.m for rule in system.rules]
    total_m = sum(sizes)
    w_ext = np.concatenate([rule.weights for rule in system.rules])
    k_ext = np.empty((total_m, total_m))
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for i in range(system.n_blocks):
        for j in range(system.n_blocks):
            kij = system.kernels[i][j].matrix(system.rules[i].nodes,
                                              system.rules[j].nodes)
            _check_finite_kernel(kij)
            k_ext[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = kij
    return _series_from_matrix(k_ext, w_ext, _normalize_z(z), n_max, cap)


def von_koch_det(a, z, n_max: int | None = None) -> complex | float:
    """det(I + z A) of a matrix by the principal-minor (von Koch) expansion;
    the series terminates at n = dim(A)."""
    a = np.asarray(a)
    m = a.shape[0]
    if n_max is None:
        n_max = m
    return _series_from_matrix(a, np.ones(m), _normalize_z(z), n_max,
                               cap=max(PRODUCT_RULE_CAP, m ** min(n_max, m)))


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    """One row of a convergence study: value at dimension m, absolute
    difference to the richest-m value, and the roundoff bound."""

    m: int
    value: float
    error: float
    roundoff_bound: float


def rule_for_family(family: str, a: float, b: float, m: int) -> QuadRule:
    """Construct an m-point rule of the named family ("gauss" or "cc")."""
    if family == "gauss":
        return gauss_legendre(a, b, m)
    if family == "cc":
        return clenshaw_curtis(a, b, m)
    raise ValueError(f"unknown rule family {family!r} (expected 'gauss' or 'cc')")


def convergence_study(kernel: Kernel, interval: tuple[float, float],
                      z: complex | float, rule_family: str,
                      m_list: Sequence[int]) -> list[StudyRow]:
    """Determinant values over ascending m, with errors measured against
    the largest-m value (that row's error is reported as nan)."""
    if not m_list:
        raise ValueError("m_list must be non-empty")
    m_list = list(m_list)
    if any(m2 <= m1 for m1, m2 in zip(m_list, m_list[1:])):
        raise ValueError("m_list must be strictly ascending")
    a, b = interval
    results = []
    for m in m_list:
        rule = rule_for_family(rule_family, a, b, m)
        res = fredholm_det(NystromProblem(kernel, interval, z, rule))
        results.append(res)
    richest = results[-1].value
    rows = []
    for m, res in zip(m_list, results):
        err = abs(res.value - richest) if res is not results[-1] else math.nan
        rows.append(StudyRow(m=m, value=float(np.real(res.value)), error=err,
                             roundoff_bound=res.roundoff_bound))
    return rows
