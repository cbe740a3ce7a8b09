"""The benchmark's workloads, built only from the public ``fredet`` API.

A workload is a list of calls made from its seed.  Each call returns the
outputs it produced as ``Output`` records, which the parent process checks
against ``reference.json``.  ``warm()`` is the cold first call that fills
the quadrature-rule cache; it is what ``setup_s`` times after the import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import fredet


@dataclass
class Output:
    """One checked output value.  ``est`` and ``accuracy`` are set for
    refined values (covariances); ``error`` names an exception raised."""

    id: str
    value: float
    suspect: bool = False
    est: float | None = None
    accuracy: float | None = None
    error: str | None = None


@dataclass
class Call:
    """One public call.  Every call counts in ``wall_s``; ``timed`` ones
    also feed the per-call latency quantiles."""

    id: str
    fn: Callable
    args: tuple
    outputs: Callable  # (id, result) -> list[Output]
    timed: bool = True
    kwargs: dict | None = None


def _point(call_id, p):
    return [Output(call_id, float(p.value), suspect=bool(p.suspect))]


def _moments(call_id, result):
    mean, var = result
    return [Output(call_id + ".mean", float(mean)),
            Output(call_id + ".var", float(var))]


def _cov(accuracy):
    def outputs(call_id, result):
        value, est, _levels = result
        return [Output(call_id, float(value), est=float(est), accuracy=accuracy)]
    return outputs


def dist_table(seed: int) -> list[Call]:
    """E2(0; s) at m=50 on [0, 5] and F2(s) at m=80 on [-8, 2], both with
    step 0.05, then tw_moments().  The grids are fixed; the seed is unused."""
    calls = [Call(f"e2:{k / 20:.2f}", fredet.e2_gap, (k / 20, 50), _point)
             for k in range(101)]
    calls += [Call(f"f2:{(k - 160) / 20:.2f}", fredet.f2_tw, ((k - 160) / 20, 80), _point)
              for k in range(201)]
    calls.append(Call("tw", fredet.tw_moments, (), _moments, timed=False))
    return calls


def cov_airy2(seed: int) -> list[Call]:
    """cov_airy2 at t=0 (marginal-triangle route) and t=1 (joint table),
    accuracy 1e-8."""
    return [Call(f"cov2:t={t:g}", fredet.cov_airy2, (t,), _cov(1e-8),
                 kwargs={"accuracy": 1e-8, "full_output": True})
            for t in (0.0, 1.0)]


def cov_airy1(seed: int) -> list[Call]:
    """cov_airy1 at t=0.5, accuracy 1e-7."""
    return [Call("cov1:t=0.5", fredet.cov_airy1, (0.5,), _cov(1e-7),
                 kwargs={"accuracy": 1e-7, "full_output": True})]


#: Tuples per (process, t).  Airy(1) points cost ~13 ms and Airy(2) points
#: 75-180 ms (the per-call inner-rule build; t=1 is the slowest).  The
#: counts are fixed, and only the order and the thresholds are drawn, so
#: every seed does the same work.  Few Airy(2) points keep a pass short,
#: so a run has enough passes for each call's fastest latency to repeat.
#: The counts keep the median inside the Airy(1) cluster and the 90th
#: percentile inside the t=0.25/0.5 Airy(2) cluster (Laplace branch), away
#: from a gap between clusters where a quantile would jump.  Airy(1) has
#: no t=0.25 points: at m=30 they come out negative (down to -9.4e-8) at
#: 26 of the 289 lattice pairs and are flagged suspect.  That accuracy
#: defect of the library is recorded in README.md; a workload must be made
#: of inputs that do not fail, and for Airy(1) t changes values, not code
#: paths.
JOINT_MIX = {
    ("airy1", 0.5): 28, ("airy1", 1.0): 28, ("airy1", 2.5): 27,
    ("airy2", 0.25): 6, ("airy2", 0.5): 6, ("airy2", 1.0): 4, ("airy2", 2.5): 4,
}

#: Thresholds s1, s2 are drawn from this lattice on [-5, 3], on which
#: reference.json pins every joint value.
JOINT_S = [k / 2 - 5.0 for k in range(17)]

JOINT_M = 30


def joint_id(process: str, t: float, s1: float, s2: float) -> str:
    return f"{process}:t={t:g}:s1={s1:g}:s2={s2:g}"


def joint_points(seed: int) -> list[Call]:
    """Seeded draw of Airy(2)/Airy(1) joint distributions at m=30."""
    rng = random.Random(seed)
    combos = [key for key, count in JOINT_MIX.items() for _ in range(count)]
    rng.shuffle(combos)
    calls = []
    for process, t in combos:
        s1, s2 = rng.choice(JOINT_S), rng.choice(JOINT_S)
        fn = fredet.airy2_joint if process == "airy2" else fredet.airy1_joint
        calls.append(Call(joint_id(process, t, s1, s2), fn, (t, s1, s2, JOINT_M), _point))
    return calls


def _warm_dist():
    fredet.e2_gap(0.1, 50)
    fredet.f2_tw(-2.0, 80)


def _warm_cov2():
    fredet.f2_tw(-2.0, 30)
    fredet.airy2_joint(1.0, -1.0, 0.0, 30)


def _warm_cov1():
    fredet.airy1_joint(0.5, -1.0, 0.0, 30)


def _warm_joint():
    # one point per (process, t): each t builds its own inner rules
    for process, t in JOINT_MIX:
        fn = fredet.airy2_joint if process == "airy2" else fredet.airy1_joint
        fn(t, -1.0, 0.0, JOINT_M)


#: name -> (calls from seed, warm-up call)
WORKLOADS = {
    "dist-table": (dist_table, _warm_dist),
    "cov-airy2": (cov_airy2, _warm_cov2),
    "cov-airy1": (cov_airy1, _warm_cov1),
    "joint-points": (joint_points, _warm_joint),
}


def run_call(call: Call, fn: Callable) -> list[Output]:
    """Make one call through ``fn`` (the public function, or its traced
    wrapper); an exception becomes a failed output instead of ending the
    pass."""
    try:
        result = fn(*call.args, **(call.kwargs or {}))
    except Exception as exc:  # every raised call counts as a failed output
        return [Output(call.id, float("nan"), error=f"{type(exc).__name__}: {exc}")]
    return call.outputs(call.id, result)
