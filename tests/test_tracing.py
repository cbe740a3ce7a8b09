"""The benchmark's per-layer tracer (perfbench/tracing.py) against the
library: every name it patches must exist, and removing its wrappers must
leave the library exactly as it was.  A library rename then fails here
instead of breaking ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

import fredet
from fredet.kernels import Airy2ProcessKernel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(tracing):
    missing = [f"{path}.{name}" for path, name, *_ in tracing.BOUNDARIES
               if name not in vars(tracing._owner(path))]
    assert not missing
    assert all(callable(obj) for obj in tracing.boundary_objects().values())


def test_install_and_uninstall_restore_the_library(tracing, fresh_caches):
    # fresh_caches: the kernel pair of the joint below is built, not taken
    # from the cache an earlier test filled
    before = tracing.boundary_objects()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = tracing.boundary_objects()
        assert all(during[key] is not before[key] for key in before)
        fredet.airy2_joint(1.0, -1.0, 0.0, 8)
    finally:
        tracer.uninstall()
    after = tracing.boundary_objects()
    assert all(after[key] is before[key] for key in before)
    # the traced call went through the wrappers: two inner-rule builds,
    # counted with their node counts
    sizes = [Airy2ProcessKernel(t, x_min=-1.0).inner_size for t in (1.0, -1.0)]
    assert tracer.calls["kernels.inner_build"] == 2
    assert tracer.work["kernels.inner_build"] == sum(sizes)
