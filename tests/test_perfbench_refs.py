"""Replay a fixed slice of each workload of the benchmark against its stored references.

A change to a verdict, to the first failing removal or to a recovered noise
support then fails this suite, not only the benchmark run.  Only files under
perfbench/ are read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SLICE = 12  # the first instances of the universe, which cycle through every class


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["verify-finite", "verify-unique", "simulate", "identify"])
def test_workload_slice_matches_references(name):
    wl = _load_workloads()
    w = wl.WORKLOADS[name]
    refs, _costs = wl.load_refs(w)
    for u in range(SLICE):
        inp = w.make(u, w.params[w.instance_class(u)])
        assert wl.run_op(w, inp) == refs[u], f"{name} instance {u}"
