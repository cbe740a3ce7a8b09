"""Determinants, norms, SVD, roundoff bound, and the perturbation lemma."""

import math
import warnings

import numpy as np
import pytest

from fredet.linalg import (UNIT_ROUNDOFF, NotPositiveDefiniteError, det_cholesky,
                           det_lu, frobenius_norm, roundoff_bound, trace_norm)


def cofactor_det(a):
    """O(n!) cofactor-expansion oracle, n <= 7."""
    a = np.asarray(a)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


class TestDetLU:
    def test_identity(self):
        assert det_lu(np.eye(5)) == pytest.approx(1.0, abs=0)

    def test_2x2(self):
        assert det_lu(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(-2.0, abs=1e-15)

    def test_exact_zero_on_singular(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert det_lu(a) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_vs_cofactor(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, size=(6, 6))
        assert det_lu(a) == pytest.approx(cofactor_det(a), rel=1e-12, abs=0)

    def test_multiplicativity(self):
        rng = np.random.default_rng(42)
        for m in (2, 5, 11, 20):
            a = rng.uniform(-1, 1, size=(m, m))
            b = rng.uniform(-1, 1, size=(m, m))
            assert det_lu(a @ b) == pytest.approx(det_lu(a) * det_lu(b), rel=1e-10, abs=0)

    def test_complex(self):
        a = np.array([[1 + 1j, 2.0], [0.5j, 3.0]])
        ref = (1 + 1j) * 3.0 - 2.0 * 0.5j
        assert det_lu(a) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            det_lu(np.ones((2, 3)))


    def test_stack_equals_per_matrix_loop(self):
        rng = np.random.default_rng(3)
        stack = rng.uniform(-1, 1, size=(9, 12, 12))
        stack[4, :, 2] = 0.0  # singular member: exact 0 in the stack too
        dets = det_lu(stack)
        assert dets.shape == (9,)
        assert dets[4] == 0.0
        for a, d in zip(stack, dets):
            assert d == pytest.approx(det_lu(a), rel=1e-13, abs=0)

    def test_complex_stack(self):
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        dets = det_lu(stack)
        assert np.iscomplexobj(dets)
        for a, d in zip(stack, dets):
            assert d == pytest.approx(det_lu(a), rel=1e-13, abs=0)

    def test_scalar_types(self):
        assert type(det_lu(np.eye(3))) is float
        assert type(det_lu(np.eye(3, dtype=complex))) is complex
        assert type(det_lu(np.array([[2, 1], [1, 2]]))) is float

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (2, 2, 3, 3)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError):
            det_lu(np.ones(shape))

    def test_nonfinite_rejected(self):
        stack = np.ones((2, 3, 3))
        stack[1, 0, 0] = np.inf
        with pytest.raises(ValueError):
            det_lu(stack)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)])
    def test_overflow_raises(self, shape):
        # finite entries whose determinant overflows: an OverflowError, as
        # from det_cholesky, not inf with numpy's RuntimeWarning (which the
        # test configuration turns into an error)
        a = np.broadcast_to(np.eye(4) * 1e100, shape).copy()
        with pytest.raises(OverflowError, match="not finite"):
            det_lu(a)


class TestDetCholesky:
    def test_overflow_raises_as_lu_does(self):
        # the product of the pivots overflows, and so does exp(logdet):
        # det_lu's OverflowError, not math's "math range error"
        a = np.eye(4) * 1e100
        with pytest.raises(OverflowError) as lu:
            det_lu(a)
        with pytest.raises(OverflowError) as cholesky:
            det_cholesky(a)
        assert str(cholesky.value) == str(lu.value)
        assert str(lu.value).startswith("determinant is not finite")

    def test_identity(self):
        assert det_cholesky(np.eye(4)) == pytest.approx(1.0, abs=0)

    def test_diagonal(self):
        assert det_cholesky(np.diag([1.0, 2.0, 3.0])) == pytest.approx(6.0, rel=1e-15, abs=0)

    def test_agrees_with_lu_on_spd(self):
        rng = np.random.default_rng(7)
        for m in (3, 8, 20):
            g = rng.normal(size=(m, m))
            a = g @ g.T + m * np.eye(m)
            assert det_cholesky(a) == pytest.approx(det_lu(a), rel=1e-12, abs=0)

    def test_sine_kernel_matrix(self):
        # I - A_Q for the sine kernel at s=1 is positive definite
        from fredet.kernels import sine_kernel
        from fredet.nystrom import nystrom_matrix
        from fredet.quadrature import gauss_legendre
        a = nystrom_matrix(sine_kernel(), gauss_legendre(0.0, 1.0, 10))
        b = np.eye(10) - a
        assert det_cholesky(b) == pytest.approx(det_lu(b), rel=1e-13, abs=0)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            det_cholesky(np.diag([1.0, -1.0]))

    def test_indefinite_is_not_linalg_error(self):
        # callers catch NotPositiveDefiniteError only; LAPACK's own
        # exception type must not leak through
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as info:
            det_cholesky(a)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_reads_lower_triangle_only(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(9, 9))
        a = g @ g.T + 9 * np.eye(9)
        garbage = a.copy()
        garbage[np.triu_indices(9, 1)] = rng.uniform(-1e3, 1e3, size=36)
        assert det_cholesky(garbage) == det_cholesky(a)

    def test_complex_hermitian_vs_lu(self):
        rng = np.random.default_rng(13)
        for m in (2, 6, 15):
            g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            a = g @ g.conj().T + m * np.eye(m)
            d = det_cholesky(a)
            assert type(d) is float
            assert d == pytest.approx(det_lu(a).real, rel=1e-12, abs=0)

    def test_log_fallback_on_overflow(self):
        a = np.diag([1e200, 1e200, 1e-200, 1e-200])
        # the running product of squared pivots overflows after two steps
        assert 1e200 * 1e200 == np.inf
        assert det_cholesky(a) == pytest.approx(1.0, rel=0, abs=1e-14)

    @staticmethod
    def _single(a):
        # the one-matrix product form: the bits of a matrix's own factorization
        diag = np.diagonal(np.linalg.cholesky(a)).real
        return math.prod((diag * diag).tolist())

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_stack_is_each_matrix_bitwise(self, k, complex_):
        rng = np.random.default_rng(21)
        g = rng.normal(size=(k, 12, 12))
        if complex_:
            g = g + 1j * rng.normal(size=(k, 12, 12))
        a = g @ np.conj(np.swapaxes(g, 1, 2)) + 12.0 * np.eye(12)
        dets = det_cholesky(a)
        assert isinstance(dets, np.ndarray) and dets.shape == (k,) and dets.dtype == float
        assert dets.tolist() == [self._single(b) for b in a] == [det_cholesky(b) for b in a]

    def test_stack_with_one_indefinite_matrix_rejected(self):
        a = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0]), 2.0 * np.eye(3)])
        with pytest.raises(NotPositiveDefiniteError):
            det_cholesky(a)

    def test_stack_log_fallback_per_matrix(self):
        # only the middle matrix's product of squared pivots overflows
        wide = np.diag([1e200, 1e200, 1e-200, 1e-200])
        dets = det_cholesky(np.stack([np.eye(4), wide, 4.0 * np.eye(4)]))
        assert dets.tolist() == [1.0, det_cholesky(wide), 256.0]
        assert dets[1] == pytest.approx(1.0, rel=0, abs=1e-14)

    def test_stack_overflow_raises_as_lu_does(self):
        with pytest.raises(OverflowError, match="determinant is not finite"):
            det_cholesky(np.stack([np.eye(4), np.eye(4) * 1e100]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4), (2, 2, 3, 3)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            det_cholesky(np.ones(shape))


class TestNorms:
    def test_frobenius(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0
        assert frobenius_norm(np.eye(4)) == pytest.approx(2.0, abs=0)
        assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)

    def test_frobenius_overflow_raises_without_warning(self):
        # finite entries whose norm overflows: an OverflowError, not inf
        # after numpy's RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="Frobenius norm is not finite"):
                frobenius_norm(np.full((2, 2), 1e200))

    def test_frobenius_keeps_the_plain_sum_bits(self):
        a = np.random.default_rng(5).normal(size=(40, 40)) * 1e150
        assert frobenius_norm(a) == float(np.sqrt(np.sum(np.abs(a) ** 2)))

    def test_trace_norm_identity(self):
        assert trace_norm(np.eye(3)) == pytest.approx(3.0, rel=1e-14, abs=0)

    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0, 3.0])) == pytest.approx(6.0, rel=1e-14, abs=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_norm_vs_eigh_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(5, 5))
        a = 0.5 * (g + g.T)
        ref = float(np.sum(np.abs(np.linalg.eigvalsh(a))))
        assert trace_norm(a) == pytest.approx(ref, rel=1e-10, abs=0)

    def test_singular_values_vs_numpy(self):
        rng = np.random.default_rng(11)
        for m in (2, 7, 30, 60):
            a = rng.normal(size=(m, m))
            ref = np.linalg.svd(a, compute_uv=False)
            assert trace_norm(a) == pytest.approx(float(np.sum(ref)), rel=1e-10, abs=0)

    def test_norm_ordering(self):
        # trace norm >= frobenius >= spectral norm
        rng = np.random.default_rng(3)
        for m in (4, 9, 15):
            a = rng.normal(size=(m, m))
            assert trace_norm(a) >= frobenius_norm(a) - 1e-12
            assert frobenius_norm(a) >= np.linalg.norm(a, 2) - 1e-12


class TestRoundoffBound:
    def test_zero_matrix(self):
        assert roundoff_bound(4, 0.0) == 0.0

    def test_identity(self):
        # sqrt(4) * ||I_4||_F * 8u = 2 * 2 * 8u
        norm = frobenius_norm(np.eye(4))
        assert roundoff_bound(4, norm) == pytest.approx(32 * UNIT_ROUNDOFF, abs=0)

    def test_inputs_validated(self):
        for m, norm in ((0, 1.0), (-1, 1.0), (2, -1.0), (2, math.inf), (2, math.nan)):
            with pytest.raises(ValueError):
                roundoff_bound(m, norm)


class TestPerturbationLemma:
    def test_500_random_instances(self):
        # |det(I-(A+E)) - det(I-A)| <= ||E||_tr for symmetric psd A with
        # lambda_1 < 1 and ||E||_tr below 1 / ||(I-A)^{-1}|| = 1 - lambda_1
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(500):
            m = int(rng.integers(2, 13))
            q, _ = np.linalg.qr(rng.normal(size=(m, m)))
            lam = rng.uniform(0.0, 0.95, size=m)
            a = (q * lam) @ q.T
            a = 0.5 * (a + a.T)
            margin = 1.0 - float(np.max(np.linalg.eigvalsh(a)))
            g = rng.normal(size=(m, m))
            e = 0.5 * (g + g.T)
            e *= rng.uniform(0.05, 0.99) * margin / trace_norm(e)
            lhs = abs(det_lu(np.eye(m) - (a + e)) - det_lu(np.eye(m) - a))
            rhs = trace_norm(e) * (1.0 + 1e-8)
            worst = max(worst, lhs / rhs)
            assert lhs <= rhs
        assert worst <= 1.0
