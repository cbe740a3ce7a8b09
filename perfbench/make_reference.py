"""Write perfbench/reference.json: the values the benchmark checks outputs
against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Independent references (the paper and Bornemann 2010) are written as
constants below.  Every other value is pinned from the library as it
stands when this script runs, so run it only to re-pin on purpose: a
check against values pinned by the code under test proves nothing about
that code.  Takes about four minutes on a 2-core machine.
"""

import json
import sys
from pathlib import Path

import fredet
from workloads import (JOINT_M, JOINT_MIX, JOINT_S, WORKLOADS, joint_id,
                       run_call)

#: Absolute tolerances.  E2/F2/joint values sit well above their roundoff
#: bounds (~1e-14), so a different but sound factorization still passes;
#: covariances are held to the accuracy they were asked for.
TOL_DET = 1e-12
TOL_JOINT = 1e-10
TOL_MOMENT = 1e-9

INDEPENDENT = {
    # the paper: five-point Gauss-Legendre value of E2(0; 0.1)
    "e2:0.10": [(0.900027271798259, 1e-13, "paper")],
    # Bornemann 2010: Tracy-Widom mean and variance
    "tw.mean": [(-1.771086807411601, TOL_MOMENT, "Bornemann 2010")],
    "tw.var": [(0.8131947928329, TOL_MOMENT, "Bornemann 2010")],
    # var A_2(0) is the Tracy-Widom variance
    "cov2:t=0": [(0.8131947928329, 1e-8, "Bornemann 2010")],
}

PINNED_TOL = {"e2": TOL_DET, "f2": TOL_DET, "tw": TOL_MOMENT,
              "cov2": 1e-8, "cov1": 1e-7}


def main():
    values = {key: [list(ref) for ref in refs] for key, refs in INDEPENDENT.items()}
    for name in ("dist-table", "cov-airy2", "cov-airy1"):
        make_calls, _ = WORKLOADS[name]
        for call in make_calls(0):
            for out in run_call(call, call.fn):
                if out.error is not None:
                    sys.exit(f"{out.id}: {out.error}")
                tol = PINNED_TOL[out.id.split(":")[0].split(".")[0]]
                values.setdefault(out.id, []).append([out.value, tol, "seed"])
                print(out.id, repr(out.value), flush=True)
    for process, t in sorted({key for key in JOINT_MIX}):
        fn = fredet.airy2_joint if process == "airy2" else fredet.airy1_joint
        for s1 in JOINT_S:
            for s2 in JOINT_S:
                value = fn(t, s1, s2, JOINT_M).value
                values[joint_id(process, t, s1, s2)] = [[value, TOL_JOINT, "seed"]]
        print(process, t, flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(refs)}" for key, refs in values.items())
    path.write_text('{"values": {\n' + lines + "\n}}\n")


if __name__ == "__main__":
    main()
