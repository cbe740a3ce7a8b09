"""Numerical Fredholm determinants det(I + zA) of integral operators.

The core method discretizes the operator with a positive-weight quadrature
rule and takes the determinant of the resulting small matrix; for smooth
kernels this converges spectacularly fast.  On top of it sit the classical
random-matrix quantities: the bulk gap probability E2(0; s), the
Tracy-Widom distribution F2(s), and two-point correlation functions of the
Airy(2) and Airy(1) processes via determinants of 2x2 operator systems.
"""

from .quadrature import QuadRule, clenshaw_curtis, gauss_legendre, quad_apply
from .linalg import (DetResult, NotPositiveDefiniteError, det_cholesky,
                     det_lu, frobenius_norm, roundoff_bound, trace_norm)
from .specfun import airy_ai, airy_ai_prime
from .kernels import (AiryKernel, Airy1ProcessKernel, Airy2ProcessKernel,
                      GreenKernel, Kernel, SineKernel, TransformedKernel,
                      make_kernel, sine_kernel)
from .nystrom import (BlockSystem, KernelEvaluationError, NystromProblem,
                      ResourceLimitError, StudyRow, convergence_study,
                      fredholm_det, fredholm_det_system, fredholm_series_oracle,
                      fredholm_series_oracle_system, nystrom_matrix)
from .projection import (GreenSpectrum, galerkin_legendre_green,
                         green_spectrum, ritz_galerkin_green)
from .analysis import (BoundReport, hadamard_bound, hadamard_witness,
                       log_phi_series, log_psi_closed)
from .rmt import (CovGrid, DistributionPoint, airy1_joint, airy2_joint,
                  cov_airy1, cov_airy2, cov_grid, e2_gap, f2_tw,
                  truncation_bound, tw_moments)

__version__ = "0.1.0"
