"""Hadamard bounds and the Phi/Psi enclosure."""

import math

import numpy as np
import pytest

from fredet.analysis import (hadamard_bound, hadamard_witness, log_phi_series,
                             log_psi_closed)
from fredet.kernels import make_kernel

SQRT_E_OVER_PI = 0.9301913671026329


class TestHadamard:
    def test_small_cases(self):
        assert hadamard_bound(1, 3.0) == 3.0
        assert hadamard_bound(2, 1.0) == pytest.approx(2.0)

    def test_witness_sine_n3(self):
        rep = hadamard_witness(make_kernel("sine"), (0.0, 1.0), 3, samples=10_000)
        assert rep.witness <= rep.bound * (1 + 1e-12)
        assert rep.bound <= hadamard_bound(3, 1.0) * (1 + 1e-12)  # |K| <= 1

    @pytest.mark.parametrize("name,interval", [
        ("sine", (0.0, 1.0)), ("green", (0.0, 1.0)), ("airy", (-4.0, 2.0)),
        ("airy2:0.5", (-4.0, 2.0)), ("airy1:0.5", (-3.0, 2.0))])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_witness_all_kernels(self, name, interval, n):
        rep = hadamard_witness(make_kernel(name), interval, n, samples=1500, seed=n)
        assert rep.witness <= rep.bound * (1 + 1e-12)


class TestPhiPsi:
    def test_at_zero(self):
        assert log_phi_series(0.0) == -math.inf
        assert log_psi_closed(0.0) == 0.0

    def test_phi_small_x_series(self):
        # independent check: direct partial sum in plain arithmetic
        x = 0.3
        direct = sum(n ** ((n + 2) / 2) / math.factorial(n) * x ** n
                     for n in range(1, 60))
        assert math.exp(log_phi_series(x)) == pytest.approx(direct, rel=1e-13, abs=0)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_enclosure_small(self, x):
        log_phi = log_phi_series(x)
        log_psi = log_psi_closed(x * math.sqrt(2 * math.e))
        assert math.log(SQRT_E_OVER_PI * x) + log_psi <= log_phi + 1e-12
        assert log_phi <= math.log(x) + log_psi + 1e-12

    @pytest.mark.parametrize("x", [10.0, 50.0])
    def test_enclosure_ratio_large(self, x):
        ratio = math.exp(log_phi_series(x)
                         - math.log(x) - log_psi_closed(x * math.sqrt(2 * math.e)))
        assert SQRT_E_OVER_PI - 1e-9 <= ratio <= 1.0 + 1e-9

    def test_enclosure_100_points(self):
        for x in np.logspace(-2, 2, 100):
            lo = math.log(SQRT_E_OVER_PI * x) + log_psi_closed(x * math.sqrt(2 * math.e))
            hi = math.log(x) + log_psi_closed(x * math.sqrt(2 * math.e))
            lp = log_phi_series(x)
            assert lo - 1e-9 <= lp <= hi + 1e-9

    def test_log_consistency(self):
        # log Psi against Psi itself, where e^(x^2/4) stays in range
        for x in (0.5, 3.0, 8.0):
            psi = 1.0 + 0.5 * math.sqrt(math.pi) * x * math.exp(x * x / 4.0) * (
                1.0 + math.erf(x / 2.0))
            assert log_psi_closed(x) == pytest.approx(math.log(psi), rel=1e-12, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_phi_series(-1.0)
        with pytest.raises(ValueError):
            log_psi_closed(-1.0)
