"""Nystrom-type approximation of Fredholm determinants.

The determinant ``det(I + z A)`` of the integral operator with kernel K on
(a, b) is approximated by the m x m matrix determinant

    d_Q(z) = det(I + z A_Q),   (A_Q)_ij = w_i^(1/2) K(x_i, x_j) w_j^(1/2),

built from a quadrature rule with positive weights.  The same construction
extends to N x N systems of operators by assembling the block matrix with
(A_ij)_pq = w_ip^(1/2) K_ij(x_ip, x_jq) w_jq^(1/2), and a single operator
is the N = 1 system: one assembly on the extended node set (node p of
interval i) and one factorization step (``_det_result``) serve both.

A brute-force oracle evaluates the truncated determinant power series

    d(z) ~ 1 + sum_n (z^n / n!) Q^n(K_n),
    K_n(t_1..t_n) = det(K(t_p, t_q)),

directly from kernel minors; once the series index reaches the matrix
dimension the two routes agree exactly (the series is the von Koch
principal-minor expansion of d_Q), which the test suite exploits.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernels import Kernel
from .linalg import (DetResult, NotPositiveDefiniteError, det_cholesky, det_lu,
                     frobenius_norm, roundoff_bound)
from .quadrature import QuadRule, clenshaw_curtis, gauss_legendre

__all__ = [
    "NystromProblem",
    "BlockSystem",
    "KernelEvaluationError",
    "ResourceLimitError",
    "PRODUCT_RULE_CAP",
    "nystrom_matrix",
    "fredholm_det",
    "fredholm_det_system",
    "fredholm_series_oracle",
    "fredholm_series_oracle_system",
    "StudyRow",
    "convergence_study",
    "rule_for_family",
]


#: Default cap on the product-rule points the series oracle stands for.
PRODUCT_RULE_CAP = 10_000_000


class KernelEvaluationError(ArithmeticError):
    """Kernel returned a non-finite value at some node pair."""


class ResourceLimitError(RuntimeError):
    """The series oracle would exceed its product-rule point cap."""


def _check_rule(rule: QuadRule, interval: tuple[float, float]) -> None:
    a, b = interval
    if not (math.isclose(rule.a, a, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(rule.b, b, rel_tol=1e-12, abs_tol=1e-12)):
        raise ValueError(f"rule on [{rule.a}, {rule.b}] does not match interval [{a}, {b}]")


@dataclass(frozen=True)
class NystromProblem:
    """A single-operator determinant problem det(I + z A) on (a, b)."""

    kernel: Kernel
    interval: tuple[float, float]
    z: complex | float
    rule: QuadRule

    def __post_init__(self):
        _check_rule(self.rule, self.interval)


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
        for interval, rule in zip(self.intervals, self.rules):
            _check_rule(rule, interval)


def _normalize_z(z):
    """z, real if its imaginary part is 0; ValueError if it is not finite."""
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    if isinstance(z, complex) and z.imag == 0.0:
        return z.real
    return z


def _check_finite_kernel(k_matrix):
    if not np.all(np.isfinite(k_matrix)):
        bad = np.argwhere(~np.isfinite(np.asarray(k_matrix)))
        raise KernelEvaluationError(
            f"kernel returned non-finite values at node index pairs {bad[:8].tolist()}"
            + (" ..." if bad.shape[0] > 8 else ""))


def _block_views(a, rules) -> list:
    """The N x N blocks of a matrix on the extended node set (node p of
    interval i), as views: block (i, j) at the rows of interval i and the
    columns of interval j."""
    e = list(itertools.accumulate((rule.m for rule in rules), initial=0))
    n = len(rules)
    return [[a[e[i]:e[i + 1], e[j]:e[j + 1]] for j in range(n)] for i in range(n)]


def _kernel_matrix(kernels, rules) -> np.ndarray:
    """K_ij(x_ip, x_jq) of an N x N system on its extended node set."""
    m = sum(rule.m for rule in rules)
    k = np.empty((m, m))
    for i, row in enumerate(_block_views(k, rules)):
        for j, block in enumerate(row):
            block[...] = kernels[i][j].matrix(rules[i].nodes, rules[j].nodes)
    _check_finite_kernel(k)
    return k


def _system_matrix(kernels, rules) -> np.ndarray:
    """diag(sqrt w) K diag(sqrt w) on the extended node set; for N > 1 its
    blocks are balanced in place (``_balance_blocks``)."""
    sw = np.sqrt(np.concatenate([rule.weights for rule in rules]))
    a_q = sw[:, None] * _kernel_matrix(kernels, rules) * sw[None, :]
    if len(rules) > 1:
        _balance_blocks(_block_views(a_q, rules))
    return a_q


def nystrom_matrix(kernel: Kernel, rule: QuadRule) -> np.ndarray:
    """The symmetric discretization A_Q = diag(sqrt w) K diag(sqrt w)."""
    return _system_matrix(((kernel,),), (rule,))


def _det_result(b_matrix, za_norm: float, hermitian: bool, m: int | None = None) -> DetResult:
    """det(B) of B = I + zA, ||zA||_F = ``za_norm``, with the roundoff bound
    sqrt(m) ||zA||_F 8u: the step of every determinant the library returns.
    m is B's order unless given: an operator whose vanishing rows and
    columns were left out of B keeps its rule size.  Cholesky for a real
    ``hermitian`` B, LU when that fails (method "cholesky->lu") or
    otherwise."""
    if hermitian and not np.iscomplexobj(b_matrix):
        try:
            value, method = det_cholesky(b_matrix), "cholesky"
        except NotPositiveDefiniteError:
            value, method = det_lu(b_matrix), "cholesky->lu"
    else:
        value, method = det_lu(b_matrix), "lu"
    m = b_matrix.shape[0] if m is None else m
    return DetResult(value=value, m=m, roundoff_bound=roundoff_bound(m, za_norm),
                     method=method)


def _system_det(kernels, rules, z) -> DetResult:
    """det(I + z A) of an N x N system; Hermitian means the kernel's declared
    flag for N = 1 and a symmetric assembled matrix for N > 1."""
    z = _normalize_z(z)
    a_q = _system_matrix(kernels, rules)
    b = z * a_q
    b.flat[::b.shape[0] + 1] += 1.0  # b = I + z A_Q
    if len(rules) == 1:
        hermitian = kernels[0][0].hermitian
    else:
        hermitian = not isinstance(z, complex) and bool(
            np.all(np.abs(a_q - a_q.T) <= 1e-13 * (1.0 + np.abs(a_q))))
    return _det_result(b, abs(z) * frobenius_norm(a_q), hermitian)


def fredholm_det(problem: NystromProblem) -> DetResult:
    """Nystrom-type value of det(I + z A) for a single operator: the N = 1
    case of ``fredholm_det_system``.

    Uses Cholesky on I + z A_Q when the kernel is declared Hermitian and z
    is real (falling back to LU if the factorization signals an indefinite
    matrix); ``DetResult.method`` records which path ran.
    """
    return _system_det(((problem.kernel,),), (problem.rule,), problem.z)


def _balance_blocks(blocks) -> np.ndarray:
    """Rescale the block rows/columns of one N x N system by powers of two
    (an exact similarity transform, so the determinant is unchanged) to
    even out block magnitudes; matters for process kernels whose
    off-diagonal blocks carry opposite exponential factors.  Serves
    ``BlockSystem`` only: the joints of ``rmt`` take Schur complements,
    which need no balancing.

    Only the off-diagonal blocks are read and scaled, in place.  Returns
    the exponents, shape ``(N,)``: block (i, j) is scaled by
    2^(shift[i] - shift[j]).
    """
    n = len(blocks)
    shift = np.zeros(n)
    if n < 2:
        return shift
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    mags = np.zeros((n, n))
    for i, j in off:
        mags[i, j] = np.max(np.abs(blocks[i][j]))
    for _ in range(20):
        moved = False
        for i in range(n):
            row = max(mags[i, j] * 2.0 ** (shift[i] - shift[j]) for j in range(n) if j != i)
            col = max(mags[j, i] * 2.0 ** (shift[j] - shift[i]) for j in range(n) if j != i)
            if row > 0.0 and col > 0.0:
                delta = round(0.5 * math.log2(col / row))
                shift[i] += delta
                moved = moved or delta != 0
        if not moved:
            break
    for i, j in off:
        blocks[i][j] *= 2.0 ** (shift[i] - shift[j])
    return shift


def fredholm_det_system(system: BlockSystem, z: complex | float) -> DetResult:
    """Nystrom-type value of det(I + z A) for an N x N block system.

    For N > 1 the blocks get an exact power-of-two rescaling before
    factorization (``_balance_blocks``); it never changes the determinant
    in exact arithmetic and greatly reduces roundoff for badly scaled
    off-diagonal blocks.  Cholesky is tried for a real z when the
    assembled matrix is symmetric; an N = 1 system is ``fredholm_det``
    exactly, with the kernel's declared Hermitian flag.
    """
    return _system_det(system.kernels, system.rules, z)


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
    # the series terminates at n = m: later terms are never summed
    n_top = min(n_max, m)
    if m ** n_top > cap:
        raise ResourceLimitError(
            f"series oracle needs {m}^{n_top} product-rule points, over the cap {cap}")
    w = np.asarray(weights, dtype=float)
    k = np.asarray(k_matrix)
    total = 1.0 + (z * 0)  # promotes to complex for complex z
    for n in range(1, n_top + 1):
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
    system = BlockSystem((problem.interval,), ((problem.kernel,),), (problem.rule,))
    return fredholm_series_oracle_system(system, problem.z, n_max, cap)


def fredholm_series_oracle_system(system: BlockSystem, z: complex | float,
                                  n_max: int, cap: int = PRODUCT_RULE_CAP) -> complex | float:
    """Brute-force series value for an N x N system, via the flattened
    extended node set (node p of interval i pairs with kernel K_ij)."""
    weights = np.concatenate([rule.weights for rule in system.rules])
    return _series_from_matrix(_kernel_matrix(system.kernels, system.rules), weights,
                               _normalize_z(z), n_max, cap)


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    """One row of a convergence study: value at dimension m (complex for a
    complex z), absolute difference to the richest-m value, and the
    roundoff bound."""

    m: int
    value: complex | float
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
        rows.append(StudyRow(m=m, value=res.value, error=err,
                             roundoff_bound=res.roundoff_bound))
    return rows
