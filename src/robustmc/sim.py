"""Monte Carlo harness tying the probabilistic bounds to the deterministic verifier.

Each trial draws exactly l distinct observed rows per column (the bounds'
premise met with equality), runs the robust verifier, and counts a pass only
on a positive verdict.  Certificates are decided exactly, so a trial is
Indeterminate only when its removal enumeration exceeds the cap; that counts
as a failure, so every reported rate is conservative.  Per-trial RNG streams
derive from (seed, trial index), making results independent of any execution
schedule.  A trial's pattern is the one N successive calls
`rng.choice(d, size=l, replace=False)` would draw, replayed for all columns
at once from raw 32-bit words (exact wherever choice uses Floyd's algorithm:
d <= 10,000 or l <= d // 50), so it depends only on the bit generator's words.
Floyd's steps run step-major, one row of an l-by-N array per step for all
columns, in O(N*l) memory, and the sorted columns, valid by construction,
skip the public constructor's per-column check.  A finite global:0 level
with l = r < d is known without sampling: no column has a constraint column
while a witness needs r*(d-r) > 0 of them, so every trial is refuted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, robust
from .pattern import NoiseBudget, SamplingPattern

WILSON_Z = 1.959963984540054  # two-sided 95%

DEFAULT_TRIAL_ENUMERATION_CAP = 200_000


@dataclass(frozen=True)
class TrialConfig:
    d: int
    N: int
    r: int
    l: int
    budget: NoiseBudget
    trials: int
    seed: int
    target: str = "finite"  # or "unique"

    def __post_init__(self):
        if not (0 < self.l <= self.d):
            raise ValueError("need 0 < l <= d")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.target not in ("finite", "unique"):
            raise ValueError("target must be 'finite' or 'unique'")


@dataclass(frozen=True)
class TrialOutcome:
    pass_count: int
    trial_count: int
    point_estimate: float
    ci_lo: float
    ci_hi: float
    premise_failures: int = 0
    indeterminate_count: int = 0


def wilson_interval(passes: int, trials: int) -> tuple[float, float]:
    z = WILSON_Z
    if trials <= 0:
        return (0.0, 1.0)
    phat = passes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def sample_pattern(d: int, N: int, l: int, rng) -> SamplingPattern:
    """Exactly l distinct observed rows per column, uniform.

    Column j holds the rows that the j-th of N successive calls
    `rng.choice(d, size=l, replace=False)` would return, and the generator
    ends in the state those calls leave, wherever choice uses Floyd's
    algorithm: d <= 10,000 or l <= d // 50.  Above that choice shuffles a
    range instead; the pattern stays uniform, but its stream differs.  All
    columns are drawn at once: one bulk draw of raw 32-bit words replays
    choice's Lemire multiply-shift draws, rejections included, and Floyd's
    rule then runs over the columns together, one step at a time.
    """
    if not 0 <= l <= d <= 2**32:
        raise ValueError("need 0 <= l <= d <= 2**32")  # beyond 2**32 numpy draws 64-bit words
    # one column's exclusive bounds: Floyd's step j draws below j+1 (j = 0 draws
    # nothing), then choice's shuffle draws below l, ..., 2.  A pattern's columns
    # are sorted, so the shuffle's draws are consumed but never applied.
    floyd = np.arange(max(d - l, 1) + 1, d + 1, dtype=np.uint64)
    column = np.concatenate([floyd, np.arange(l, 1, -1, dtype=np.uint64)])
    bound, threshold = np.tile(column, N), np.tile(2**32 % column, N)
    word = rng.integers(0, 2**32, size=bound.size, dtype=np.uint32).astype(np.uint64)
    scaled = word * bound
    rejected = np.flatnonzero((scaled & 0xFFFFFFFF) < threshold)
    while rejected.size:
        # numpy drops a rejected word and draws the next one for the same bound
        at = rejected[0]
        extra = rng.integers(0, 2**32, size=1, dtype=np.uint32)
        word = np.concatenate([word[:at], word[at + 1 :], extra])  # stays uint64
        scaled[at:] = word[at:] * bound[at:]
        rejected = at + np.flatnonzero((scaled[at:] & 0xFFFFFFFF) < threshold[at:])
    # step-major: Floyd's step k of every column is one contiguous row of picks
    picks = np.zeros((l, N), dtype=np.uint64)  # step j = 0, if taken, picks row 0
    picks[l - floyd.size :] = (scaled >> 32).reshape(N, column.size)[:, : floyd.size].T
    for k in range(1, l):
        # Floyd: a pick repeating an earlier one of its column becomes j itself
        picks[k][(picks[:k] == picks[k]).any(axis=0)] = d - l + k
    picks.sort(axis=0)
    return SamplingPattern._trusted(d, tuple(map(tuple, picks.T.tolist())))


def estimate_pass_probability(cfg: TrialConfig) -> TrialOutcome:
    """Fraction of sampled patterns passing the robust verifier, with Wilson 95% CI."""
    unique = cfg.target == "unique"
    if cfg.l == cfg.r < cfg.d and robust.premise_floor(cfg.r, cfg.budget, unique) == cfg.l:
        # the premise allows l = r only for finite global:0; then no column
        # has a constraint column while a witness needs r*(d-r) > 0 of them,
        # so every trial is Refuted with the premise met, known unsampled
        return TrialOutcome(0, cfg.trials, 0.0, *wilson_interval(0, cfg.trials))
    verifier = robust.verify_unique if unique else robust.verify_finite
    passes = 0
    premise_failures = 0
    indeterminate = 0
    for trial in range(cfg.trials):
        rng = np.random.default_rng([cfg.seed, trial])
        pattern = sample_pattern(cfg.d, cfg.N, cfg.l, rng)
        verdict = verifier(pattern, cfg.r, cfg.budget, enumeration_cap=DEFAULT_TRIAL_ENUMERATION_CAP)
        if verdict.verdict in (robust.RobustOutcome.FINITE, robust.RobustOutcome.UNIQUE):
            passes += 1
        elif verdict.premise_violation:
            premise_failures += 1
        elif verdict.verdict == robust.RobustOutcome.INDETERMINATE:
            indeterminate += 1
    lo, hi = wilson_interval(passes, cfg.trials)
    return TrialOutcome(
        passes, cfg.trials, passes / cfg.trials, lo, hi, premise_failures, indeterminate
    )


@dataclass(frozen=True)
class ThresholdResult:
    threshold: int | None  # smallest l reaching the target rate, None if none <= d
    theory_l_min: int      # uncapped bound value
    theory_l_min_capped: int
    rows: list[tuple[int, TrialOutcome]]


def empirical_threshold(
    d: int,
    N: int,
    r: int,
    budget: NoiseBudget,
    epsilon: float,
    trials: int,
    seed: int,
    target: str = "finite",
) -> ThresholdResult:
    """Smallest l whose estimated pass rate reaches 1 - epsilon, scanning up to d.

    Also reports the theoretical minimal l for the matching bound, capped at d
    for comparison.  Per-l seeds derive from (seed, l) so the scan is
    reproducible and each l is independent.
    """
    theory = bounds.bound_for_budget(d, r, epsilon, budget, N).l_min
    rows: list[tuple[int, TrialOutcome]] = []
    threshold = None
    for l in range(robust.premise_floor(r, budget, target == "unique"), d + 1):
        cfg = TrialConfig(d, N, r, l, budget, trials, seed=seed * 1_000_003 + l, target=target)
        outcome = estimate_pass_probability(cfg)
        rows.append((l, outcome))
        if outcome.point_estimate >= 1.0 - epsilon:
            threshold = l
            break
    return ThresholdResult(threshold, theory, min(theory, d), rows)


SIM_CSV_HEADER = "l,pass,trials,estimate,ci_lo,ci_hi,theory_lmin"


def outcomes_to_csv(rows: list[tuple[int, TrialOutcome]], theory_l_min: int) -> str:
    lines = [SIM_CSV_HEADER]
    for l, o in rows:
        lines.append(
            f"{l},{o.pass_count},{o.trial_count},{o.point_estimate:.6f},"
            f"{o.ci_lo:.6f},{o.ci_hi:.6f},{theory_l_min}"
        )
    return "\n".join(lines) + "\n"
