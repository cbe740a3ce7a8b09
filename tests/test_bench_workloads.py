"""One pass of the paper's workloads (perfbench/workloads.py) against
perfbench/reference.json: every output within each of its reference
tolerances, unflagged, and, where refined, with its two-level agreement
inside the accuracy asked for.  These are the two workloads the benchmark
lists and cov-airy1; a library change that would make ``perfbench/run.py``
report failed outputs fails here first."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text())["values"]


@pytest.mark.parametrize("name", ["dist-table", "cov-airy2", "cov-airy1"])
def test_one_pass_matches_reference(workloads, reference, name):
    make_calls, _ = workloads.WORKLOADS[name]
    problems = []
    outputs = [out for call in make_calls(1) for out in workloads.run_call(call, call.fn)]
    for out in outputs:
        if out.error is not None:
            problems.append(f"{out.id}: {out.error}")
            continue
        if out.suspect:
            problems.append(f"{out.id}: flagged suspect")
        if out.id not in reference:
            problems.append(f"{out.id}: no reference value")
        for ref, tol, source in reference.get(out.id, ()):
            if not abs(out.value - ref) <= tol:
                problems.append(f"{out.id}: {out.value!r} is more than {tol:g} "
                                f"from {source} {ref!r}")
        if out.est is not None and not out.est <= out.accuracy:
            problems.append(f"{out.id}: est {out.est:.2e} > accuracy {out.accuracy:g}")
    assert outputs and not problems
