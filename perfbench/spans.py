"""In-memory span tracer that wraps the library's public functions from outside.

Each wrapped call records a span [name, start, end, parent, op].  Spans stay
in memory until the run ends.  The calls are synchronous, so a span's
children never overlap, and its self time is its duration minus the sum of
its children's durations.  Counters are kept per op next to the spans, at the
same call boundaries.

Nothing under src/ changes: `install` replaces module attributes and
`uninstall` puts the originals back.  Names are patched where the callers
look them up, e.g. `robust.build_constraint_matrix`, which robust imported
by name from pattern.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from robustmc import certify, numeric, robust, sim

_CERT_REFUTED = certify.Verdict.REFUTED


def _count_columns(counts, args, result):
    counts["constraint_columns"] += len(result)


def _count_removals(counts, args, result):
    counts["removals_checked"] += result.checked


def _count_refuted(counts, args, result):
    counts["refuted"] += result.verdict == _CERT_REFUTED


def _count_masks(counts, args, result):
    counts["masks_screened"] += len(args[1])


def _count_fit(counts, args, result):
    counts["als_iterations"] += result.iterations
    counts["fit_admits"] += result.admits


# (module, attribute, span name, counter hook).  A span's layer is the text of
# its name before the first dot; each op's root span is named "op".
TRACED_CALLS = (
    (robust, "verify_finite", "robust.verify", _count_removals),
    (robust, "verify_unique", "robust.verify", _count_removals),
    (robust, "identify_noise_support", "robust.identify", None),
    (robust, "build_constraint_matrix", "pattern.build_constraint_matrix", _count_columns),
    (robust, "remove_entries", "pattern.remove_entries", None),
    (certify, "find_finite_certificate", "certify.find_finite_certificate", _count_refuted),
    (certify, "find_unique_certificate", "certify.find_unique_certificate", _count_refuted),
    (certify, "validate_witness", "certify.validate_witness", None),
    (numeric, "batched_masked_rank_residuals", "numeric.batched_masked_rank_residuals", _count_masks),
    (numeric, "rank_r_fit", "numeric.rank_r_fit", _count_fit),
    (sim, "estimate_pass_probability", "sim.estimate_pass_probability", None),
    (sim, "sample_pattern", "sim.sample_pattern", None),
)
# generators: one span per item drawn, so the time inside the generator is measured
TRACED_ITERATORS = ((robust, "enumerate_removals", "pattern.enumerate_removals"),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_counts: list[Counter] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals: list[tuple] = []

    # --- recording ---

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op: int, fn, *args):
        """Run one op under a root span; its counters start from zero."""
        self._op = op
        self.op_counts.append(Counter())
        index = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(index)

    # --- patching ---

    def _wrap(self, original, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer.op_counts[-1][name + ".calls"] += 1
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer.op_counts[-1], args, result)
            return result

        return traced

    def _wrap_iter(self, original, name):
        tracer = self

        def traced(*args, **kwargs):
            tracer.op_counts[-1][name + ".calls"] += 1
            items = original(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        return traced

    def install(self) -> None:
        for module, attr, name, hook in TRACED_CALLS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))
        for module, attr, name in TRACED_ITERATORS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap_iter(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    # --- analysis ---

    def durations(self) -> tuple[Counter, Counter]:
        """Total and self time per span name, summed over all ops."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: Counter = Counter()
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return total, own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}))
                fh.write("\n")
