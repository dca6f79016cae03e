"""Command-line interface: verify, bounds, sweep, rank, identify, simulate.

Exit codes: 0 for positive verdicts and successful computations, 1 for
refutations and failed support searches, 2 for indeterminate outcomes (the
removal enumeration exceeded --cap; certificates themselves are always
decided), 64 for usage errors, 65 for missing, unreadable or malformed files.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from contextlib import suppress

from . import bounds, rank, robust, sim
from .pattern import NoiseBudget, PatternFormatError, load_pattern

EXIT_POSITIVE = 0
EXIT_REFUTED = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 64+
        raise UsageError(message)


def _parse_budget(spec: str | None) -> NoiseBudget | None:
    if spec is None:
        return None
    try:
        kind, raw = spec.split(":", 1)
        amount = int(raw)
    except ValueError as exc:
        raise UsageError(f"bad noise spec {spec!r}; expected global:S or percolumn:G") from exc
    if kind == "global":
        return NoiseBudget.global_noise(amount)
    if kind == "percolumn":
        return NoiseBudget.per_column(amount)
    raise UsageError(f"unknown noise kind {kind!r}")


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
    else:
        for key, value in doc.items():
            print(f"{key}: {value}", file=out)


def _build_parser() -> _Parser:
    parser = _Parser(prog="robustmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="certify a pattern file under a noise budget")
    p.add_argument("--pattern", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--noise", default="global:0")
    p.add_argument("--unique", action="store_true")
    p.add_argument("--cap", type=int, default=robust.DEFAULT_ENUMERATION_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bounds", help="minimal per-column sample count for a guarantee")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--noise", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("sweep", help="bound sweep over ranks and noise levels, as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--g-list", default="-1,1,2")
    p.add_argument("--out", default=None)

    p = sub.add_parser("rank", help="estimate the rank ceiling of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--noise", default="global:0")
    p.add_argument("--cap", type=int, default=robust.DEFAULT_ENUMERATION_CAP)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("identify", help="recover the noise support from observations")
    p.add_argument("--data", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("simulate", help="Monte Carlo pass-rate estimation, as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--l", type=int, default=None)
    group.add_argument("--scan", action="store_true", help="scan l upward to d")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", default="global:0")
    p.add_argument("--target", choices=("finite", "unique"), default="finite")
    p.add_argument("--eps", type=float, default=0.1)
    return parser


def _cmd_verify(args, out) -> int:
    pattern = load_pattern(args.pattern)
    budget = _parse_budget(args.noise)
    verifier = robust.verify_unique if args.unique else robust.verify_finite
    verdict = verifier(pattern, args.rank, budget, enumeration_cap=args.cap)
    _emit(verdict.to_dict(), args.format, out)
    if verdict.verdict in (robust.RobustOutcome.FINITE, robust.RobustOutcome.UNIQUE):
        return EXIT_POSITIVE
    if verdict.verdict == robust.RobustOutcome.INDETERMINATE:
        return EXIT_INDETERMINATE
    return EXIT_REFUTED


def _cmd_bounds(args, out) -> int:
    budget = _parse_budget(args.noise)
    result = bounds.bound_for_budget(args.d, args.r, args.eps, budget, args.N)
    _emit(result.to_dict(), args.format, out)
    return EXIT_POSITIVE


def _cmd_sweep(args, out) -> int:
    try:
        g_values = [int(g) for g in args.g_list.split(",") if g.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --g-list {args.g_list!r}") from exc
    if args.rmax < 1:
        raise UsageError(f"--rmax must be at least 1, got {args.rmax}")
    if not g_values:
        raise UsageError("--g-list names no noise level")
    rows = bounds.sweep(args.d, args.N, args.eps, range(1, args.rmax + 1), g_values)
    csv = bounds.sweep_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        out.write(csv)
    return EXIT_POSITIVE


def _cmd_rank(args, out) -> int:
    pattern = load_pattern(args.pattern)
    budget = _parse_budget(args.noise)
    ceiling = rank.estimate_rank_ceiling(pattern, budget, enumeration_cap=args.cap)
    _emit(ceiling.to_dict(), args.format, out)
    if not ceiling.exact:
        return EXIT_INDETERMINATE
    return EXIT_POSITIVE if ceiling.r_star >= 1 else EXIT_REFUTED


def _cmd_identify(args, out) -> int:
    pattern, values = robust.load_observations(args.data)
    try:
        support = robust.identify_noise_support(values, pattern, args.rank, args.s, args.tol)
    except robust.NoSupportFoundError as exc:
        doc = {"no-support-found": str(exc), "best_residual": exc.best_residual}
        _emit(doc, args.format, out)
        return EXIT_REFUTED
    doc = {"support": [list(c) for c in sorted(support)], "size": len(support)}
    _emit(doc, args.format, out)
    return EXIT_POSITIVE


def _cmd_simulate(args, out) -> int:
    budget = _parse_budget(args.noise)
    if args.scan:
        result = sim.empirical_threshold(
            args.d, args.N, args.r, budget, args.eps, args.trials, args.seed, args.target
        )
        out.write(sim.outcomes_to_csv(result.rows, result.theory_l_min))
        out.write(f"# threshold={result.threshold} theory_capped={result.theory_l_min_capped}\n")
        return EXIT_POSITIVE
    cfg = sim.TrialConfig(args.d, args.N, args.r, args.l, budget, args.trials, args.seed, args.target)
    theory = bounds.bound_for_budget(args.d, args.r, args.eps, budget, args.N).l_min
    outcome = sim.estimate_pass_probability(cfg)
    out.write(sim.outcomes_to_csv([(args.l, outcome)], theory))
    return EXIT_POSITIVE


_COMMANDS = {
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "rank": _cmd_rank,
    "identify": _cmd_identify,
    "simulate": _cmd_simulate,
}


def _merge_g_list(argv: list[str]) -> list[str]:
    # argparse reads a leading dash in `--g-list -1,1,2` as an option; fold the
    # value into --g-list=... so the documented form works
    merged = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--g-list" and i + 1 < len(argv):
            merged.append(f"--g-list={argv[i + 1]}")
            skip = True
        else:
            merged.append(arg)
    return merged


def run(argv: list[str] | None = None, out=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_g_list(list(argv))
    text = io.StringIO()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args, text)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PatternFormatError, UnicodeDecodeError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"cannot open file: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with suppress(BrokenPipeError):  # a reader that stops early is no input error
        (out if out is not None else sys.stdout).write(text.getvalue())
    return code


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # the exit flush would raise again, so point stdout at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
