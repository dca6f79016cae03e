"""Rank-ceiling estimation and the two-alternative statement it licenses.

The ceiling r* is the largest rank whose robust finite-completability check
passes on the pattern; for any r' up to the ceiling, exactly one of two
things holds for generic data: either the true rank is at most r', or no
completion whatsoever has rank at most r'.  This module scans for r* and
formats the statement; the numeric module supplies completion evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds, robust
from .pattern import NoiseBudget, SamplingPattern


@dataclass(frozen=True)
class RankCeiling:
    r_star: int
    per_rank: dict[int, robust.RobustVerdict]
    exact: bool

    def to_dict(self) -> dict:
        return {
            "r_star": self.r_star,
            "exact": self.exact,
            "per_rank": {str(r): v.to_dict() for r, v in sorted(self.per_rank.items())},
        }


def estimate_rank_ceiling(
    pattern: SamplingPattern,
    budget: NoiseBudget,
    enumeration_cap: int = robust.DEFAULT_ENUMERATION_CAP,
) -> RankCeiling:
    """Ascending scan of robust finite verification; stops at the first failure.

    Ranks whose per-column premise fails come back Refuted from the verifier,
    which also terminates the scan.  `exact` is False whenever the stopping
    verdict was Indeterminate (the removal enumeration exceeded the cap)
    rather than Refuted, leaving the ceiling a lower bound only.
    """
    per_rank: dict[int, robust.RobustVerdict] = {}
    # rank d+1 fails the premise floor in every column, so the scan always breaks
    for r in range(1, pattern.d + 2):
        verdict = robust.verify_finite(pattern, r, budget, enumeration_cap=enumeration_cap)
        per_rank[r] = verdict
        if verdict.verdict != robust.RobustOutcome.FINITE:
            break
    return RankCeiling(r - 1, per_rank, verdict.verdict != robust.RobustOutcome.INDETERMINATE)


@dataclass(frozen=True)
class DichotomyReport:
    r_star: int
    r_prime: int
    alternative: str  # "i" or "ii"
    completion_rank: int | None
    statement: str


def rank_dichotomy(
    ceiling: RankCeiling, r_prime: int, completion_found: int | None = None
) -> DichotomyReport:
    """Format the two-alternative statement for r' within the verified ceiling.

    With a valid completion of rank at most r' in hand, alternative (i)
    applies: the true rank is at most r' (a probability-one statement over
    generic data).  With a completed search that found none, alternative (ii)
    applies: no completion has rank at most r'.  The caller vouches for the
    completion evidence; this is a formatter over verified inputs.
    """
    if r_prime < 1:
        raise ValueError("r_prime must be positive")
    if r_prime > ceiling.r_star:
        raise ValueError(
            f"r_prime={r_prime} exceeds the verified ceiling r_star={ceiling.r_star}; "
            "no statement is available"
        )
    if completion_found is not None:
        if completion_found < 1 or completion_found > r_prime:
            raise ValueError(
                "completion rank must lie in 1..r_prime for the statement to apply"
            )
        return DichotomyReport(
            ceiling.r_star,
            r_prime,
            "i",
            completion_found,
            f"alternative (i): a valid completion of rank {completion_found} <= {r_prime} "
            f"exists, so the true rank is at most {r_prime} (probability-one statement, "
            "numerically supported evidence)",
        )
    return DichotomyReport(
        ceiling.r_star,
        r_prime,
        "ii",
        None,
        f"alternative (ii): the completed search found no completion of rank <= {r_prime}, "
        f"so every completion has rank above {r_prime}",
    )


def probabilistic_rank_premise(
    d: int, N: int, epsilon: float, g: int, r_prime: int, l: int | None = None
) -> tuple[bool, bounds.BoundResult]:
    """Column-wise sampling premise evaluated at the candidate rank r'.

    Returns whether the premise holds (at the given l, or at the minimal l
    when none is given) together with the underlying bound; the N requirement
    N >= r'(d - r') is folded into the flag.
    """
    query = bounds.BoundQuery(d, r_prime, epsilon, N, NoiseBudget.per_column(g))
    result = bounds.sample_bound(query)
    ok = result.feasible if l is None else bounds.sample_condition(l, query)
    return ok and result.premise_ok and N >= r_prime * (d - r_prime), result
