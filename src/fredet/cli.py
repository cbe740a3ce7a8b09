"""Command-line front end.

Subcommands: quad, specfun, det, study, green-bench, e2, f2, trunc-bound,
joint, cov.  All emit CSV with a fixed header row (or mirrored JSON with
--format json), values at 15 significant digits (17 for quadrature rules).
Sweeps are dispatched to a thread pool (--threads, or FREDHOLM_THREADS);
results are assembled in input order so output is byte-identical across
thread counts.

Exit codes: 0 success, 1 numerical failure (overflow, a failed
factorization), 2 usage error (bad arguments, or input the library
rejects with ValueError).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .kernels import make_kernel
from .nystrom import (NystromProblem, convergence_study, fredholm_det,
                      rule_for_family)
from .projection import galerkin_legendre_green, ritz_galerkin_green
from .rmt import (airy1_joint, airy2_joint, cov_airy1, cov_airy2, e2_gap,
                  f2_tw, truncation_bound)
from .specfun import airy_value

SIN1 = math.sin(1.0)


def _fmt(x, digits=15):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.{digits - 1}e}" if (x != 0 and (abs(x) >= 1e16 or abs(x) < 1e-4)) \
        else f"{x:.{digits}g}"


def _emit(args, header, rows, out=None):
    if out is None:
        out = sys.stdout
    path = getattr(args, "output", None)
    handle = open(path, "w") if path else out
    try:
        if getattr(args, "format", "csv") == "json":
            payload = [dict(zip(header, row)) for row in rows]
            handle.write(json.dumps({"rows": payload}, indent=None) + "\n")
        else:
            digits = 17 if getattr(args, "_digits17", False) else 15
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(_fmt(v, digits) if isinstance(v, float) else str(v)
                                      for v in row) + "\n")
    finally:
        if path:
            handle.close()


def _threads(args) -> int:
    if getattr(args, "threads", None):
        return max(1, args.threads)
    return os.cpu_count() or 1


def _sweep(args, values, fn):
    with ThreadPoolExecutor(max_workers=_threads(args)) as pool:
        return list(pool.map(fn, values))


def _parse_z(text: str):
    try:
        return float(text)
    except ValueError:
        return complex(text)


def _grid(lo, hi, step):
    if step <= 0:
        raise ValueError("step must be positive")
    n = int(round((hi - lo) / step))
    return [lo + k * step for k in range(n + 1) if lo + k * step <= hi + 1e-12]


def _int_list(text: str):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str):
    return [float(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_quad(args):
    rule = rule_for_family(args.rule, args.a, args.b, args.m)
    args._digits17 = True
    _emit(args, ["node", "weight"],
          [(float(x), float(w)) for x, w in zip(rule.nodes, rule.weights)])
    return 0


def _cmd_specfun(args):
    if args.function != "ai":
        raise SystemExit(2)
    val = airy_value(args.x)
    args._digits17 = True
    _emit(args, ["ai", "ai_prime"], [(val.ai, val.ai_prime)])
    return 0


def _cmd_det(args):
    kernel = make_kernel(args.kernel, x_min=args.a)
    rule = rule_for_family(args.rule, args.a, args.b, args.m)
    res = fredholm_det(NystromProblem(kernel, (args.a, args.b), _parse_z(args.z), rule))
    _emit(args, ["value", "roundoff_bound"],
          [(float(np.real(res.value)), res.roundoff_bound)])
    return 0


def _cmd_study(args):
    kernel = make_kernel(args.kernel, x_min=args.a)
    rows = convergence_study(kernel, (args.a, args.b), _parse_z(args.z),
                             args.rule, _int_list(args.m_list))
    _emit(args, ["m", "value", "abs_error", "roundoff_bound"],
          [(r.m, r.value, r.error, r.roundoff_bound) for r in rows])
    return 0


def _cmd_green_bench(args):
    ms = _int_list(args.m_list)

    def run(m):
        if args.method == "ritz":
            v = ritz_galerkin_green(m, -1.0)
        elif args.method == "galerkin":
            v = galerkin_legendre_green(m, -1.0)
        else:
            rule = rule_for_family(args.method.removeprefix("nystrom-"), 0.0, 1.0, m)
            v = float(np.real(fredholm_det(
                NystromProblem(make_kernel("green"), (0.0, 1.0), -1.0, rule)).value))
        return (m, v, abs(v - SIN1))

    _emit(args, ["m", "value", "abs_error"], _sweep(args, ms, run))
    return 0


def _cmd_e2(args):
    grid = _grid(args.s_min, args.s_max, args.step)
    rows = _sweep(args, grid,
                  lambda s: (s, (p := e2_gap(s, args.m)).value, p.est_error))
    _emit(args, ["param", "value", "est_error"], rows)
    return 0


def _cmd_f2(args):
    grid = _grid(args.s_min, args.s_max, args.step)

    def run(s):
        p = f2_tw(s, args.m, route=args.route, scale=args.scale, T=args.T)
        return (s, p.value, p.est_error)

    _emit(args, ["param", "value", "est_error"], _sweep(args, grid, run))
    return 0


def _cmd_trunc_bound(args):
    ts = _float_list(args.T_list) if args.T_list else [args.T]
    rows = _sweep(args, ts, lambda T: (T, truncation_bound(args.s, T)))
    _emit(args, ["T", "bound"], rows)
    return 0


def _cmd_joint(args):
    fn = airy2_joint if args.process == "airy2" else airy1_joint
    p = fn(args.t, args.s1, args.s2, args.m)
    _emit(args, ["value", "est_error"], [(p.value, p.est_error)])
    return 0


def _cmd_cov(args):
    grid = _grid(args.t_min, args.t_max, args.step)
    fn = cov_airy2 if args.process == "airy2" else cov_airy1

    def run(t):
        v, e, _ = fn(t, accuracy=args.accuracy, full_output=True)
        return (t, v, e)

    _emit(args, ["param", "value", "est_error"], _sweep(args, grid, run))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fredet",
        description="Fredholm determinants by Nystrom-type quadrature")
    p.add_argument("--version", action="version", version=f"fredet {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument("--output", default=None, metavar="PATH",
                        help="write the table to a file instead of stdout")
        sp.add_argument("--threads", type=int, default=None,
                        help="worker threads for sweeps (default: cpu count; "
                             "env FREDHOLM_THREADS overrides)")

    sp = sub.add_parser("quad", help="print nodes and weights of a rule")
    sp.add_argument("--rule", choices=["gauss", "cc"], required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_quad)

    sp = sub.add_parser("specfun", help="evaluate special functions")
    sp.add_argument("function", choices=["ai"])
    sp.add_argument("--x", type=float, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_specfun)

    sp = sub.add_parser("det", help="single Fredholm determinant")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--z", default="-1")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--rule", choices=["gauss", "cc"], default="gauss")
    common(sp)
    sp.set_defaults(fn=_cmd_det)

    sp = sub.add_parser("study", help="convergence study over an m list")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--z", default="-1")
    sp.add_argument("--rule", choices=["gauss", "cc"], default="gauss")
    sp.add_argument("--m-list", required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_study)

    sp = sub.add_parser("green-bench",
                        help="Poisson/Green benchmark: projection vs quadrature")
    sp.add_argument("--m-list", required=True)
    sp.add_argument("--method",
                    choices=["ritz", "galerkin", "nystrom-gauss", "nystrom-cc"],
                    required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_green_bench)

    sp = sub.add_parser("e2", help="bulk gap probability sweep")
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--m", type=int, default=40)
    common(sp)
    sp.set_defaults(fn=_cmd_e2)

    sp = sub.add_parser("f2", help="Tracy-Widom distribution sweep")
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--m", type=int, default=50)
    sp.add_argument("--route", choices=["transform", "truncate"], default="transform")
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--scale", type=float, default=10.0)
    common(sp)
    sp.set_defaults(fn=_cmd_f2)

    sp = sub.add_parser("trunc-bound", help="truncation tail bound")
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--T-list", default=None)
    common(sp)
    sp.set_defaults(fn=_cmd_trunc_bound)

    sp = sub.add_parser("joint", help="process joint distribution at one point")
    sp.add_argument("--process", choices=["airy2", "airy1"], required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--s1", type=float, required=True)
    sp.add_argument("--s2", type=float, required=True)
    sp.add_argument("--m", type=int, default=30)
    common(sp)
    sp.set_defaults(fn=_cmd_joint)

    sp = sub.add_parser("cov", help="two-point correlation sweep")
    sp.add_argument("--process", choices=["airy2", "airy1"], required=True)
    sp.add_argument("--t-min", type=float, required=True)
    sp.add_argument("--t-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--accuracy", type=float, default=1e-8)
    common(sp)
    sp.set_defaults(fn=_cmd_cov)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "trunc-bound":
        if args.T is None and args.T_list is None:
            parser.error("trunc-bound needs --T or --T-list")
    env = os.environ.get("FREDHOLM_THREADS")
    if env:
        try:
            args.threads = max(1, int(env))
        except ValueError:
            parser.error(f"FREDHOLM_THREADS must be an integer, got {env!r}")
    try:
        return args.fn(args)
    except KeyError as exc:
        # unknown kernel: usage error, list the registry
        sys.stderr.write(f"error: {exc.args[0]}\n")
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # OverflowError and the library's NotPositiveDefiniteError and
        # KernelEvaluationError are ArithmeticErrors; LinAlgError is a
        # ValueError, so it is caught first
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1
    except ValueError as exc:
        # bad input: a reversed interval, a threshold or t out of range
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
