"""Fixtures shared by the test modules."""

import pytest

from fredet import rmt


@pytest.fixture
def fresh_caches():
    """Empty the caches of ``rmt``, the covariance levels (``_level``) and
    the kernel pairs of both processes (``_airy2_kernels``,
    ``_airy1_kernels``), so that a test which counts builds sees every
    build whatever ran before it; and again after it, so that a test which
    patches a build leaves none of its entries to later tests."""
    caches = rmt._level, rmt._airy2_kernels, rmt._airy1_kernels
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
