"""Dump the library's outputs as exact bits, to compare two checkouts.

    python3 tools/dump_outputs.py > outputs.txt

Run from the root of a checkout: the library is imported from that
checkout's ``src``, and ``perfbench/workloads.py`` and
``perfbench/reference.json`` are read from it, never written.  One line
per output, every float as ``float.hex``:

* each seed-1 output of the four perfbench workloads: value, ``suspect``
  and ``est``;
* each ``airy1:`` / ``airy2:`` lattice joint of ``reference.json`` (at the
  joint-points size m): value, est_error and ``suspect``;
* ``cov_airy2(t, 1e-8, full_output=True)`` at t in {0, 0.1, 0.25, 0.5, 1,
  2.5} and ``cov_airy1(t, 1e-7, full_output=True)`` at t in {0, 0.5, 1,
  2.5}: value, agreement and levels used;
* ``tw_moments()``.

A change that claims the same numbers shows an empty ``diff`` between the
dumps of both checkouts, each made in a fresh interpreter.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fredet  # noqa: E402

COV_AIRY2_T = (0.0, 0.1, 0.25, 0.5, 1.0, 2.5)
COV_AIRY1_T = (0.0, 0.5, 1.0, 2.5)


def _hex(x) -> str:
    return "None" if x is None else float(x).hex()


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def lines():
    workloads = _workloads()
    for name, (make_calls, _) in workloads.WORKLOADS.items():
        for call in make_calls(1):
            for out in workloads.run_call(call, call.fn):
                yield (f"{name} {out.id} {_hex(out.value)} {out.suspect} {_hex(out.est)}"
                       f" {out.error}")
    values = json.loads((ROOT / "perfbench" / "reference.json").read_text())["values"]
    joints = {"airy1": fredet.airy1_joint, "airy2": fredet.airy2_joint}
    for key in values:
        process, *fields = key.split(":")
        if process in joints:
            t, s1, s2 = (float(f.split("=")[1]) for f in fields)
            p = joints[process](t, s1, s2, workloads.JOINT_M)
            yield f"joint {key} {_hex(p.value)} {_hex(p.est_error)} {p.suspect}"
    for name, fn, accuracy, ts in (("cov_airy2", fredet.cov_airy2, 1e-8, COV_AIRY2_T),
                                   ("cov_airy1", fredet.cov_airy1, 1e-7, COV_AIRY1_T)):
        for t in ts:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value, est, levels = fn(t, accuracy, full_output=True)
            yield f"{name} t={t:g} {_hex(value)} {_hex(est)} {levels} warned={bool(caught)}"
    mean, var = fredet.tw_moments()
    yield f"tw_moments {_hex(mean)} {_hex(var)}"


if __name__ == "__main__":
    for line in lines():
        print(line, flush=True)
