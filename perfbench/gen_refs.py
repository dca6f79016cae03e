"""Generate and cross-check the reference output of every universe instance.

    python3 perfbench/gen_refs.py --workload verify-finite

writes perfbench/refs/<workload>.json: the output and the cost of every
universe instance.  The cost is the least wall time of COST_REPEATS runs, one
op at a time, which filters out slow spells of a shared machine; the repeats
must all give the same output.  Each output is also cross-checked by a route
independent of the op before it is stored:

- simulate: the trial's pattern is rebuilt, its finite certificate found and
  the witness re-checked with certify.validate_witness; the verdict must match.
- identify: the recovered support must equal the planted one, and instances
  planted over budget must raise NoSupportFoundError.
- verify-*: the verdict must be decided, and a refuting removal must itself
  fail its certificate when checked alone.

Any disagreement aborts without writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from robustmc import certify, sim  # noqa: E402
from robustmc.pattern import RemovalSet, build_constraint_matrix, remove_entries  # noqa: E402


COST_REPEATS = 3


def cross_check(w: wl.Workload, inp, out) -> str | None:
    """None when the output is confirmed, else the reason it is not."""
    if w.name == "simulate":
        rng = np.random.default_rng([inp.seed, 0])
        cm = build_constraint_matrix(sim.sample_pattern(inp.d, inp.N, inp.l, rng), inp.r)
        cert = certify.find_finite_certificate(cm, inp.r)
        expected = "pass" if cert.verdict == certify.Verdict.FINITE else "fail"
        if out != expected:
            return f"op says {out}, certificate says {expected}"
        if cert.finite_witness is not None and not certify.validate_witness(
            cm, cert.finite_witness, certify.CountCondition.finite(inp.r)
        ):
            return "finite witness fails validate_witness"
        return None
    if w.name == "identify":
        expected = "NoSupportFoundError" if len(inp.planted) > wl.IDENTIFY_S else [list(c) for c in inp.planted]
        return None if out == expected else f"op says {out}, planted {expected}"
    verdict, cells = out if isinstance(out, list) else (None, None)
    if verdict not in ("FinitelyCompletable", "UniquelyCompletable", "Refuted"):
        return f"undecided output {out}"
    if cells is not None:
        reduced = remove_entries(inp, RemovalSet(frozenset(tuple(c) for c in cells)))
        cm = build_constraint_matrix(reduced, wl.VERIFY_R)
        find = certify.find_unique_certificate if w.name == "verify-unique" else certify.find_finite_certificate
        if find(cm, wl.VERIFY_R).verdict != certify.Verdict.REFUTED:
            return "failing removal passes its certificate"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    args = parser.parse_args(argv)
    w = wl.WORKLOADS[args.workload]
    outputs, times = [], []
    for u, inp in enumerate(wl.build_universe(w)):
        runs = []
        for _ in range(COST_REPEATS):
            start = time.perf_counter()
            runs.append((wl.run_op(w, inp), time.perf_counter() - start))
        out = runs[0][0]
        times.append(min(t for _, t in runs))
        problem = cross_check(w, inp, out)
        if any(o != out for o, _ in runs):
            problem = f"repeated runs disagree: {[o for o, _ in runs]}"
        if problem is not None:
            print(f"instance {u}: {problem}", file=sys.stderr)
            return 1
        outputs.append(out)
    doc = {
        "workload": w.name,
        "universe_seed": wl.UNIVERSE_SEED,
        "params": list(w.params),
        "slots": list(w.slots),
        "outputs": outputs,
        "cost_s": [round(t, 4) for t in times],
    }
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    with open(wl.refs_path(w.name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    print(
        f"{w.name}: {len(outputs)} references, op cost mean {np.mean(times):.3f} s, "
        f"max {max(times):.3f} s (instance {int(np.argmax(times))})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
