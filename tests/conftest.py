"""Fixtures shared by the test modules."""

import pytest

from fredet import rmt


@pytest.fixture
def fresh_caches():
    """Empty the caches of ``rmt``, the covariance levels (``_level``) and
    the kernel pairs of both processes (``_airy2_kernels``,
    ``_airy1_kernels``), so that a test which counts builds sees every
    build whatever ran before it."""
    rmt._level.cache_clear()
    rmt._airy2_kernels.cache_clear()
    rmt._airy1_kernels.cache_clear()
