"""The benchmark's span tracer patches library names by string; keep them resolvable."""

import importlib.util
from pathlib import Path

from robustmc import robust
from robustmc.pattern import NoiseBudget, SamplingPattern

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_traces_and_uninstalls():
    spans = _load_spans()
    patched = [(module, attr) for module, attr, *_ in spans.TRACED_CALLS + spans.TRACED_ITERATORS]
    originals = [getattr(module, attr) for module, attr in patched]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not f for (m, a), f in zip(patched, originals))
        # a refuted global verdict: only a refuted block starts enumerating removals
        pattern = SamplingPattern.from_cells(3, 2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
        verdict = tracer.run_op(0, robust.verify_finite, pattern, 1, NoiseBudget.global_noise(1))
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is f for (m, a), f in zip(patched, originals))
    counts = tracer.op_counts[0]
    assert counts["robust.verify.calls"] == 1
    assert verdict.verdict == robust.RobustOutcome.REFUTED
    assert counts["removals_checked"] == verdict.checked == 2
    assert counts["pattern.enumerate_removals.calls"] == 1
