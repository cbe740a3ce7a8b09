"""One fresh interpreter of the benchmark; ``run.py`` starts it.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS

MODE is one of
  setup  time ``import fredet`` plus the workload's cold first call;
  run    the same, then timed passes over the workload for SECONDS;
  trace  untraced and traced passes in turn for SECONDS.
Prints one JSON object on stdout.  ``fredet`` must be importable
(``run.py`` puts the checkout's ``src`` on PYTHONPATH).
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import astuple  # noqa: E402

from workloads import WORKLOADS, run_call  # noqa: E402  (imports fredet)


def one_pass(calls, fns):
    """Make every call once; return (wall, latency of each call, outputs)."""
    latencies = []
    outputs = []
    t0 = time.perf_counter()
    for call, fn in zip(calls, fns):
        c0 = time.perf_counter()
        outputs.extend(run_call(call, fn))
        latencies.append(time.perf_counter() - c0)
    return time.perf_counter() - t0, latencies, outputs


#: Every call gets a repeat to take the fastest of, even on a workload
#: whose single pass outlasts ``seconds``.
MIN_PASSES = 2


def measure(calls, fns, seconds):
    """Passes until the next one would overrun ``seconds``; at least
    MIN_PASSES."""
    walls, latencies, outputs = [], [], []
    start = time.perf_counter()
    while True:
        wall, lat, out = one_pass(calls, fns)
        walls.append(wall)
        latencies.append(lat)
        outputs.append([astuple(o) for o in out])
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            return walls, latencies, outputs


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip()}


def traced(calls, seconds):
    """Alternate untraced and traced passes, so that a drift of the
    machine's speed hits both alike, until the next pair would overrun
    ``seconds``; at least one pair."""
    from tracing import Tracer, boundary_objects

    fns = [call.fn for call in calls]
    tracer = Tracer()
    entry = [tracer.wrap(fn, "rmt.call", "rmt", nested=True) for fn in fns]
    before = boundary_objects()
    walls, latencies, outputs, passes, not_restored = [], [], [], [], set()
    start = time.perf_counter()
    while True:
        wall, lat, out = one_pass(calls, fns)
        walls.append(wall)
        latencies.append(lat)
        outputs.append([astuple(o) for o in out])
        tracer.reset()
        tracer.install()
        try:
            traced_wall, lat, out = one_pass(calls, entry)
        finally:
            tracer.uninstall()
        after = boundary_objects()
        not_restored.update(k for k in before if after[k] is not before[k])
        passes.append({"wall": traced_wall, "latencies": lat,
                       "outputs": [astuple(o) for o in out],
                       "counts": tracer.counts(), "self_s": dict(tracer.self_s),
                       "span_s": dict(tracer.span_s)})
        if time.perf_counter() - start + wall + traced_wall > seconds:
            return {"walls": walls, "latencies": latencies, "outputs": outputs,
                    "traced": passes, "not_restored": sorted(not_restored)}


def main():
    mode, name, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    make_calls, warm = WORKLOADS[name]
    calls = make_calls(seed)
    warm()
    result = {"setup_s": time.perf_counter() - T_START,
              "timed": [call.timed for call in calls]}
    if mode == "run":
        walls, latencies, outputs = measure(calls, [call.fn for call in calls], seconds)
        result.update(walls=walls, latencies=latencies, outputs=outputs,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      environment=environment())
    elif mode == "trace":
        result.update(traced(calls, seconds), environment=environment())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
