"""Benchmark of fredet's workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Workloads: dist-table, cov-airy2, cov-airy1, joint-points (see README.md).

--trace 0 prints the end-to-end metrics.  Five fresh interpreters time
``import fredet`` plus the workload's cold first call (``setup_s`` is their
median); the last of them then runs timed passes for S seconds.
--trace 1 prints the per-layer metrics of one fresh interpreter that runs
untraced and traced passes in turn for S seconds.

Every output is checked against reference.json.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it repeat the metrics with their units, the environment
and the largest deviation from a reference.  Exit code 2 means the
checkout holds no library to benchmark, 1 that a child process failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The names in workloads.WORKLOADS; this process does not import fredet.
WORKLOADS = ("dist-table", "cov-airy2", "cov-airy1", "joint-points")

#: Fresh interpreters timed for setup_s; the last one also runs the passes.
SETUP_SAMPLES = 5

#: Every child must end within this many seconds of the start.
RUN_LIMIT_S = 170.0

LAYERS = ("quadrature", "specfun", "kernels", "linalg", "nystrom", "rmt")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(mode, args, env, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {mode} child of {args.workload} overran {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {mode} child of {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def check(outputs, reference):
    """Return (failed outputs, (largest deviation, its label), messages)."""
    failed = 0
    worst = (0.0, "none")
    messages = []
    for oid, value, suspect, est, accuracy, error in outputs:
        problems = []
        if error is not None:
            problems.append(error)
        elif not math.isfinite(value):
            problems.append(f"non-finite value {value}")
        else:
            if suspect:
                problems.append("flagged suspect")
            refs = reference.get(oid)
            if not refs:
                problems.append("no reference value")
            for ref, tol, source in refs or ():
                dev = abs(value - ref)
                if dev > worst[0]:
                    worst = (dev, f"{oid} vs {source}")
                if not dev <= tol:
                    problems.append(f"{value!r} is {dev:.2e} from {source} {ref!r} (tol {tol:g})")
            if est is not None and not est <= accuracy:
                problems.append(f"est {est:.2e} > accuracy {accuracy:g}")
        if problems:
            failed += 1
            messages.append(f"{oid}: {'; '.join(problems)}")
    return failed, worst, messages


def repeats(runs):
    """Whether every pass produced bit-identical outputs."""
    keys = [[(o[0], float(o[1]).hex()) for o in outputs] for outputs in runs]
    return all(key == keys[0] for key in keys)


def fastest(latencies):
    """Each call's fastest latency over the passes (one list per pass)."""
    return [min(per_call) for per_call in zip(*latencies)]


def end_to_end(setups, data):
    # The machine's speed drifts by up to 1.8x over seconds to minutes, so
    # medians move with the share of a run that was slow.  Each call counts
    # with its fastest latency over the run's passes, the estimate that
    # repeats best from run to run; wall_s is their sum.
    best = fastest(data["latencies"])
    lat = [b for b, timed in zip(best, data["timed"]) if timed]
    return {
        "wall_s": (sum(best), "s"),
        "call_p50_ms": (1e3 * percentile(lat, 0.5), "ms"),
        "call_p90_ms": (1e3 * percentile(lat, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
    }


def margin_digits(outputs):
    """Mean log10(accuracy / two-level agreement) over refined outputs;
    0 when the workload refines nothing."""
    digits = [math.log10(acc / est) for _, _, _, est, acc, _ in outputs
              if est is not None and est > 0.0]
    return statistics.fmean(digits) if digits else 0.0


def per_layer(data):
    # Inner-rule builds and balancing are given as shares of the pass:
    # a workload that never runs them would report a constant 0-s time.
    passes = data["traced"]
    first = passes[0]["counts"]
    calls, errors, work = first["calls"], first["errors"], first["work"]
    n = len(passes)
    self_s = {layer: sum(p["self_s"].get(layer, 0.0) for p in passes) / n for layer in LAYERS}
    span_s = {}
    for p in passes:
        for key, value in p["span_s"].items():
            span_s[key] = span_s.get(key, 0.0) + value / n
    traced_wall = sum(fastest([p["latencies"] for p in passes]))
    untraced_wall = sum(fastest(data["latencies"]))
    points = sum(work.get(k, 0) for k in ("specfun.ai", "specfun.ai_prime", "specfun.ai_scaled"))
    flops = work.get("linalg.lu", 0.0) + work.get("linalg.cholesky", 0.0)
    factor_s = span_s.get("linalg.lu", 0.0) + span_s.get("linalg.cholesky", 0.0)
    mean_wall = statistics.fmean(p["wall"] for p in passes)
    return {
        "quadrature.calls": (calls.get("quadrature.rule", 0), "count"),
        "quadrature.self_s": (self_s["quadrature"], "s"),
        "specfun.ai_points": (work.get("specfun.ai", 0), "count"),
        "specfun.ai_prime_points": (work.get("specfun.ai_prime", 0), "count"),
        "specfun.ai_scaled_points": (work.get("specfun.ai_scaled", 0), "count"),
        "specfun.self_s": (self_s["specfun"], "s"),
        "specfun.ns_per_point": (1e9 * self_s["specfun"] / points if points else 0.0, "ns"),
        "kernels.matrix_calls": (calls.get("kernels.matrix", 0), "count"),
        "kernels.entries": (work.get("kernels.matrix", 0), "count"),
        "kernels.self_s": (self_s["kernels"], "s"),
        "kernels.inner_builds": (calls.get("kernels.inner_build", 0), "count"),
        "kernels.inner_nodes": (work.get("kernels.inner_build", 0), "count"),
        "kernels.inner_build_share": (span_s.get("kernels.inner_build", 0.0) / mean_wall, "ratio"),
        "linalg.lu_calls": (calls.get("linalg.lu", 0), "count"),
        "linalg.cholesky_calls": (calls.get("linalg.cholesky", 0), "count"),
        "linalg.cholesky_fallbacks": (errors.get("linalg.cholesky", 0), "count"),
        "linalg.flops": (flops, "flop"),
        "linalg.self_s": (self_s["linalg"], "s"),
        "linalg.gflops": (flops / factor_s / 1e9 if factor_s else 0.0, "GFLOP/s"),
        "nystrom.det_calls": (calls.get("nystrom.det", 0), "count"),
        "nystrom.system_calls": (calls.get("nystrom.system", 0), "count"),
        "nystrom.balance_calls": (calls.get("nystrom.balance", 0), "count"),
        "nystrom.balance_share": (span_s.get("nystrom.balance", 0.0) / mean_wall, "ratio"),
        "nystrom.self_s": (self_s["nystrom"], "s"),
        "rmt.calls": (calls.get("rmt.call", 0), "count"),
        "rmt.joint_dets": (calls.get("rmt.joint", 0), "count"),
        "rmt.marginal_calls": (calls.get("rmt.marginal", 0), "count"),
        "rmt.levels": (calls.get("rmt.level", 0), "count"),
        "rmt.margin_digits": (margin_digits(passes[0]["outputs"]), "digits"),
        "rmt.self_s": (self_s["rmt"], "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.remainder_s": (mean_wall - sum(self_s.values()), "s"),
    }


def trace_problems(data):
    """Self-checks of the traced run."""
    problems = []
    if data["not_restored"]:
        problems.append(f"wrappers not restored: {data['not_restored']}")
    if not repeats(data["outputs"] + [p["outputs"] for p in data["traced"]]):
        problems.append("traced outputs differ from untraced outputs")
    if any(p["counts"] != data["traced"][0]["counts"] for p in data["traced"]):
        problems.append("per-layer counts differ between traced passes")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fredet" / "__init__.py").is_file():
        print(f"perfbench: no fredet sources under {ROOT / 'src'}; "
              "run from the root of a fredet checkout", file=sys.stderr)
        sys.exit(2)
    reference = json.loads((HERE / "reference.json").read_text())["values"]

    deadline = time.monotonic() + RUN_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    problems = []
    if args.trace:
        data = run_child("trace", args, env, deadline)
        problems += trace_problems(data)
        outputs = [o for run in data["outputs"] for o in run]
        outputs += [o for p in data["traced"] for o in p["outputs"]]
        metrics = per_layer(data)
    else:
        setups = [run_child("setup", args, env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        data = run_child("run", args, env, deadline)
        setups.append(data["setup_s"])
        if not repeats(data["outputs"]):
            problems.append("outputs differ from pass to pass")
        outputs = [o for run in data["outputs"] for o in run]
        metrics = end_to_end(setups, data)
    failed, worst, messages = check(outputs, reference)

    env_info = dict(data["environment"], blas_threads=threads, nproc=os.cpu_count(),
                    seed=args.seed, passes=len(data["walls"]))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"outputs: attempted={len(outputs)} failed={failed} "
          f"fail_rate={failed / len(outputs):.4g} ratio; "
          f"largest deviation {worst[0]:.3g} ({worst[1]})")
    for message in messages[:20] + problems:
        print(f"FAIL {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
