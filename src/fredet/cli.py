"""Command-line front end.

Subcommands: quad, specfun, det, study, green-bench, e2, f2, trunc-bound,
joint, cov.  All emit CSV with a fixed header row (or mirrored JSON with
--format json, NaN written as null), values at 15 significant digits (17
for quadrature rules).  Sweeps run one point after another, in input order.

Exit codes: 0 success, 1 numerical failure (overflow, a failed
factorization), 2 usage error (bad arguments, an --output path that cannot
be opened for writing, or input the library rejects with ValueError).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .kernels import make_kernel
from .nystrom import (NystromProblem, convergence_study, fredholm_det,
                      rule_for_family)
from .projection import galerkin_legendre_green, ritz_galerkin_green
from .rmt import airy1_joint, airy2_joint, cov_grid, e2_gap, f2_tw, truncation_bound
from .specfun import airy_ai, airy_ai_prime

SIN1 = math.sin(1.0)


def _fmt(x, digits=15):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.{digits - 1}e}" if (x != 0 and (abs(x) >= 1e16 or abs(x) < 1e-4)) \
        else f"{x:.{digits}g}"


def _emit(args, header, rows, digits=15):
    """Write the table to stdout, which ``main`` points at --output."""
    if args.format == "json":
        # NaN is not JSON: write null
        payload = [{k: None if isinstance(v, float) and math.isnan(v) else v
                    for k, v in zip(header, row)} for row in rows]
        sys.stdout.write(json.dumps({"rows": payload}, indent=None) + "\n")
    else:
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(v, digits) if isinstance(v, float) else str(v)
                                      for v in row) + "\n")


def _grid(lo, hi, step):
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError(f"sweep range must be finite, got {lo}, {hi}, step {step}")
    if step <= 0:
        raise ValueError("step must be positive")
    if lo > hi:
        raise ValueError(f"empty sweep range: {lo} > {hi}")
    steps = (hi - lo) / step  # inf for a subnormal step
    if not steps <= 1e6:
        raise ValueError(f"sweep of {steps:.3g} steps exceeds the cap of 1e6: raise --step")
    n = int(round(steps))
    return [lo + k * step for k in range(n + 1) if lo + k * step <= hi + 1e-12]


def _list(text: str, kind):
    values = [kind(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_quad(args):
    rule = rule_for_family(args.rule, args.a, args.b, args.m)
    _emit(args, ["node", "weight"],
          [(float(x), float(w)) for x, w in zip(rule.nodes, rule.weights)], digits=17)
    return 0


def _cmd_specfun(args):
    _emit(args, ["ai", "ai_prime"], [(airy_ai(args.x), airy_ai_prime(args.x))], digits=17)
    return 0


def _cmd_det(args):
    kernel = make_kernel(args.kernel, x_min=args.a)
    rule = rule_for_family(args.rule, args.a, args.b, args.m)
    res = fredholm_det(NystromProblem(kernel, (args.a, args.b), args.z, rule))
    _emit(args, ["value", "roundoff_bound"], [(res.value, res.roundoff_bound)])
    return 0


def _cmd_study(args):
    kernel = make_kernel(args.kernel, x_min=args.a)
    rows = convergence_study(kernel, (args.a, args.b), args.z, args.rule,
                             _list(args.m_list, int))
    _emit(args, ["m", "value", "abs_error", "roundoff_bound"],
          [(r.m, r.value, r.error, r.roundoff_bound) for r in rows])
    return 0


def _cmd_green_bench(args):
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

    _emit(args, ["m", "value", "abs_error"], [run(m) for m in _list(args.m_list, int)])
    return 0


def _cmd_e2(args):
    grid = _grid(args.s_min, args.s_max, args.step)
    rows = [(s, (p := e2_gap(s, args.m)).value, p.est_error) for s in grid]
    _emit(args, ["param", "value", "est_error"], rows)
    return 0


def _cmd_f2(args):
    grid = _grid(args.s_min, args.s_max, args.step)

    def run(s):
        p = f2_tw(s, args.m, route=args.route, scale=args.scale, T=args.T)
        return (s, p.value, p.est_error)

    _emit(args, ["param", "value", "est_error"], [run(s) for s in grid])
    return 0


def _cmd_trunc_bound(args):
    _emit(args, ["T", "bound"],
          [(T, truncation_bound(args.s, T)) for T in _list(args.T_list, float)])
    return 0


def _cmd_joint(args):
    fn = airy2_joint if args.process == "airy2" else airy1_joint
    p = fn(args.t, args.s1, args.s2, args.m)
    _emit(args, ["value", "est_error"], [(p.value, p.est_error)])
    return 0


def _cmd_cov(args):
    grid = _grid(args.t_min, args.t_max, args.step)
    res = cov_grid(args.process, grid, args.accuracy)
    _emit(args, ["param", "value", "est_error"],
          list(zip(res.t_values.tolist(), res.cov_values.tolist(),
                   res.est_errors.tolist())))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fredet", allow_abbrev=False,
        description="Fredholm determinants by Nystrom-type quadrature")
    p.add_argument("--version", action="version", version=f"fredet {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(sp):
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument("--output", default=None, metavar="PATH",
                        help="write the table to a file instead of stdout")

    sp = add_parser("quad", help="print nodes and weights of a rule")
    sp.add_argument("--rule", choices=["gauss", "cc"], required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_quad)

    sp = add_parser("specfun", help="evaluate special functions")
    sp.add_argument("function", choices=["ai"])
    sp.add_argument("--x", type=float, required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_specfun)

    sp = add_parser("det", help="single Fredholm determinant")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--z", type=float, default=-1.0, help="real z of det(I + zA)")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--rule", choices=["gauss", "cc"], default="gauss")
    common(sp)
    sp.set_defaults(fn=_cmd_det)

    sp = add_parser("study", help="convergence study over an m list")
    sp.add_argument("--kernel", required=True)
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--z", type=float, default=-1.0, help="real z of det(I + zA)")
    sp.add_argument("--rule", choices=["gauss", "cc"], default="gauss")
    sp.add_argument("--m-list", required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_study)

    sp = add_parser("green-bench",
                    help="Poisson/Green benchmark: projection vs quadrature")
    sp.add_argument("--m-list", required=True)
    sp.add_argument("--method",
                    choices=["ritz", "galerkin", "nystrom-gauss", "nystrom-cc"],
                    required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_green_bench)

    sp = add_parser("e2", help="bulk gap probability sweep")
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--m", type=int, default=40)
    common(sp)
    sp.set_defaults(fn=_cmd_e2)

    sp = add_parser("f2", help="Tracy-Widom distribution sweep")
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--m", type=int, default=50)
    sp.add_argument("--route", choices=["transform", "truncate"], default="transform")
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--scale", type=float, default=None,
                    help="tan-map scale (route transform only; default 10)")
    common(sp)
    sp.set_defaults(fn=_cmd_f2)

    sp = add_parser("trunc-bound", help="truncation tail bound")
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--T-list", required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_trunc_bound)

    sp = add_parser("joint", help="process joint distribution at one point")
    sp.add_argument("--process", choices=["airy2", "airy1"], required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--s1", type=float, required=True)
    sp.add_argument("--s2", type=float, required=True)
    sp.add_argument("--m", type=int, default=30)
    common(sp)
    sp.set_defaults(fn=_cmd_joint)

    sp = add_parser("cov", help="two-point correlation sweep")
    sp.add_argument("--process", choices=["airy2", "airy1"], required=True)
    sp.add_argument("--t-min", type=float, required=True)
    sp.add_argument("--t-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--accuracy", type=float, default=1e-8)
    common(sp)
    sp.set_defaults(fn=_cmd_cov)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # opened before any point is computed: an unwritable path costs no sweep
        handle = open(args.output, "w") if args.output else sys.stdout
    except OSError as exc:
        sys.stderr.write(f"error: cannot write --output: {exc}\n")
        return 2
    try:
        with contextlib.redirect_stdout(handle):
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
    finally:
        if handle is not sys.stdout:
            handle.close()


if __name__ == "__main__":
    sys.exit(main())
