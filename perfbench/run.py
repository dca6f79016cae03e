"""robustmc benchmark: one closed-loop client per workload, outputs checked per op.

    python3 perfbench/run.py --workload verify-finite [--seed 1] [--seconds 25] [--trace 0]
    python3 perfbench/run.py --workload all

One process runs one client; the next op starts only when the previous one
returned.  BLAS runs single-threaded.  Every op's output is compared with the
stored reference of its instance after the timed loop.

--trace 0 reports the end-to-end metrics, every time divided by the run's
host factor from the calibration kernel in calib.py.  --trace 1 spends a
third of the time on an untraced pass, then replays exactly the ops it
completed twice under the span tracer: the first traced pass gives the
per-layer metrics and the tracing overhead, and the second must repeat
every per-layer count exactly or the run fails.  Each pass times the
calibration kernel too, so span times and the overhead are host-scaled.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary.
Spans and a stamped result file go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Any, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# the keys of workloads.WORKLOADS, listed here so that arguments parse before
# numpy is imported with its thread count set
WORKLOAD_NAMES = ("simulate", "verify-finite", "verify-unique", "identify")
BLAS_THREADS = "1"
SETUP_REPEATS = 5  # this process plus four fresh ones; the median is reported
SETUP_CALIBRATIONS = 10  # kernel runs after each set-up, for its host factor
LAYERS = ("pattern", "certify", "robust", "numeric", "sim")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="workload seed; 1 is the default, 2 the holdout")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Bench(NamedTuple):
    workload: Any     # workloads.Workload
    universe: list    # inputs by instance
    refs: list        # reference outputs by instance
    stream: Any       # workloads.Stream of this run's seed
    warm_failed: int  # 1 when the warm-up op's output was wrong
    setup_s: float


def setup(name: str, seed: int) -> Bench:
    """Import the library, build the inputs and run the warm-up op."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as wl

    w = wl.WORKLOADS[name]
    universe = wl.build_universe(w)
    refs, costs = wl.load_refs(w)
    stream = wl.Stream(w, costs, seed)
    warm = wl.run_op(w, universe[wl.WARM_UP_INSTANCE])
    warm_failed = int(warm != refs[wl.WARM_UP_INSTANCE])
    return Bench(w, universe, refs, stream, warm_failed, time.perf_counter() - start)


def closed_loop(bench: Bench, seconds=None, count=None, tracer=None, calibrations=None):
    """Ops i = 0, 1, ... until `seconds` pass or `count` ops are done.

    With a list `calibrations`, the calibration kernel's time before every op
    and after the last one is appended to it.
    """
    import calib
    import workloads as wl

    outputs, latencies = [], []
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (time.perf_counter() - start < seconds):
        if calibrations is not None:
            calibrations.append(calib.kernel())
        u = bench.stream.instance(i)
        t = time.perf_counter()
        if tracer is None:
            out = wl.run_op(bench.workload, bench.universe[u])
        else:
            out = tracer.run_op(i, wl.run_op, bench.workload, bench.universe[u])
        latencies.append(time.perf_counter() - t)
        outputs.append((u, out))
        i += 1
    if calibrations is not None:
        calibrations.append(calib.kernel())
    return outputs, latencies


def count_failed(outputs, refs) -> int:
    return sum(out != refs[u] for u, out in outputs)


def tail(latencies):
    """Highest nearest-rank percentile with ten samples beyond it: (value, percentile)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:  # too few samples for any such percentile; report the maximum
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def stamp(args) -> dict:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_calibrations() -> list[float]:
    import calib

    return [calib.kernel() for _ in range(SETUP_CALIBRATIONS)]


def setup_samples(args, first: float) -> list[tuple[float, list[float]]]:
    """(set-up time, calibration times right after it) of this process and fresh ones."""
    samples = [(first, setup_calibrations())]
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        seconds, calibrations = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((seconds, calibrations))
    return samples


def end_to_end(args, bench: Bench) -> tuple[dict, dict]:
    import calib

    setups = setup_samples(args, bench.setup_s)
    calibrations = []
    outputs, latencies = closed_loop(bench, seconds=args.seconds, calibrations=calibrations)
    failed = count_failed(outputs, bench.refs) + bench.warm_failed
    # every time is rescaled to the calibration kernel's reference speed
    host = calib.host_factor(calibrations)
    scaled = [x / host for x in latencies]
    # percentiles over whole cycles of the stream, so every class weighs the same
    slots = len(bench.workload.slots)
    cycled = scaled[: len(scaled) - len(scaled) % slots] or scaled
    tail_s, tail_pct = tail(cycled)
    metrics = {
        "ops_per_s": (len(outputs) / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(cycled), "s"),
        "op_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(s / calib.host_factor(ks) for s, ks in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "attempted": len(outputs) + 1,
        "failed": failed,
        "failed_ratio": failed / (len(outputs) + 1),
        "op_tail_percentile": tail_pct,
        "op_samples": len(cycled),
        "host_factor": host,
        "raw_ops_per_s": len(outputs) / sum(latencies),
        "raw_op_p50_s": statistics.median(latencies),
        "raw_setup_s": statistics.median(s for s, _ in setups),
        "setup_samples": setups,
        "latencies_s": latencies,
        "calibrations_s": calibrations,
    }
    return metrics, extra


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, m: int, host: float, overhead: float) -> dict:
    """Per-op layer figures; span times are divided by the host factor as in --trace 0."""
    total, own = tracer.durations()
    total = Counter({name: seconds / host for name, seconds in total.items()})
    own = Counter({name: seconds / host for name, seconds in own.items()})
    counts = sum(tracer.op_counts, Counter())
    ff, fu, vw = "certify.find_finite_certificate", "certify.find_unique_certificate", "certify.validate_witness"
    bc, bm, rf = "pattern.build_constraint_matrix", "numeric.batched_masked_rank_residuals", "numeric.rank_r_fit"
    certify_calls = counts[ff + ".calls"] + counts[fu + ".calls"]
    metrics = {
        ff + ".calls": (counts[ff + ".calls"] / m, "count"),
        ff + ".s": (total[ff] / m, "s"),
        "certify.search_self_s": ((own[ff] + own[fu]) / m, "s"),
        vw + ".calls": (counts[vw + ".calls"] / m, "count"),
        vw + ".s": (total[vw] / m, "s"),
        fu + ".calls": (counts[fu + ".calls"] / m, "count"),
        fu + ".s": (total[fu] / m, "s"),
        "certify.refuted": (counts["refuted"] / m, "count"),
        "robust.verify.calls": (counts["robust.verify.calls"] / m, "count"),
        "robust.verify.self_s": (own["robust.verify"] / m, "s"),
        "robust.removals_checked": (counts["removals_checked"] / m, "count"),
        "robust.resolve_ratio": (ratio(certify_calls, counts["removals_checked"]), "ratio"),
        bc + ".calls": (counts[bc + ".calls"] / m, "count"),
        bc + ".s": (total[bc] / m, "s"),
        "pattern.constraint_columns": (counts["constraint_columns"] / m, "count"),
        "pattern.remove_entries.s": (total["pattern.remove_entries"] / m, "s"),
        "pattern.enumerate_removals.s": (total["pattern.enumerate_removals"] / m, "s"),
        bm + ".calls": (counts[bm + ".calls"] / m, "count"),
        bm + ".s": (total[bm] / m, "s"),
        "numeric.masks_screened": (counts["masks_screened"] / m, "count"),
        "numeric.screen_pass_ratio": (ratio(counts[rf + ".calls"], counts["masks_screened"]), "ratio"),
        rf + ".calls": (counts[rf + ".calls"] / m, "count"),
        rf + ".s": (total[rf] / m, "s"),
        "numeric.als_iterations": (counts["als_iterations"] / m, "count"),
        "numeric.fit_admit_ratio": (ratio(counts["fit_admits"], counts[rf + ".calls"]), "ratio"),
        "robust.identify.self_s": (own["robust.identify"] / m, "s"),
        "sim.estimate_pass_probability.self_s": (own["sim.estimate_pass_probability"] / m, "s"),
        "sim.sample_pattern.s": (total["sim.sample_pattern"] / m, "s"),
        "trace_overhead": (overhead, "ratio"),
    }
    layer_self = Counter()
    for name, seconds in own.items():
        layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (ratio(layer_self[layer], total["op"]), "fraction")
    return metrics


def traced(args, bench: Bench) -> tuple[dict, dict]:
    import calib
    import spans

    plain_cal = []
    outputs, plain = closed_loop(bench, seconds=args.seconds / 3, calibrations=plain_cal)
    m = len(outputs)
    passes = []
    for _ in range(2):
        tracer = spans.Tracer()
        cal = []
        tracer.install()
        try:
            outs, latencies = closed_loop(bench, count=m, tracer=tracer, calibrations=cal)
        finally:
            tracer.uninstall()
        passes.append((tracer, outs, sum(latencies), calib.host_factor(cal)))
    (first, outs_a, busy_a, host_a), (second, outs_b, _busy_b, _host_b) = passes
    failed = sum(count_failed(o, bench.refs) for o in (outputs, outs_a, outs_b)) + bench.warm_failed
    mismatched = [i for i, (a, b) in enumerate(zip(first.op_counts, second.op_counts)) if a != b]
    os.makedirs(OUT_DIR, exist_ok=True)
    first.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    overhead = (sum(plain) / calib.host_factor(plain_cal)) / (busy_a / host_a)
    metrics = layer_metrics(first, m, host_a, overhead)
    extra = {
        "attempted": 3 * m + 1,
        "failed": failed,
        "failed_ratio": failed / (3 * m + 1),
        "traced_ops": m,
        "nondeterministic_ops": mismatched,
        "op_counts": [dict(c) for c in first.op_counts],
    }
    return metrics, extra


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(done.stdout, end="")
        sys.stderr.write(done.stderr)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    if args.workload == "all":
        return run_all(args)
    try:
        bench = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import the library from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps([bench.setup_s, setup_calibrations()]))
        return 0
    metrics, extra = (traced if args.trace else end_to_end)(args, bench)
    nondeterministic = extra.get("nondeterministic_ops", [])
    correct = extra["failed"] == 0 and not nondeterministic
    info = stamp(args)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"stamp": info, "correct": correct, "metrics": metrics, **extra}, fh, indent=1)
        fh.write("\n")

    print(f"# {json.dumps(info, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload:<14} {name:<44} {value:>14.6g} {unit}")
    print(f"# {args.workload:<14} {'failed_ratio':<44} {extra['failed_ratio']:>14.6g} fraction "
          f"({extra['failed']} of {extra['attempted']} ops)")
    if "host_factor" in extra:
        print(f"# times above are rescaled by host factor {extra['host_factor']:.4g}; unscaled: "
              f"ops_per_s {extra['raw_ops_per_s']:.6g}, op_p50_s {extra['raw_op_p50_s']:.6g}, "
              f"setup_s {extra['raw_setup_s']:.6g}")
    if "op_tail_percentile" in extra:
        print(f"# op_tail_s is p{extra['op_tail_percentile']:.1f} of {extra['op_samples']} ops")
    if nondeterministic:
        print(f"per-layer counts differ between two passes at seed {args.seed} on ops "
              f"{nondeterministic[:10]}: the run is not deterministic", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
