"""Per-column sample-count bounds for uniform random observation.

Three regimes share the shape "smallest integer l beating a max of branches":

  noiseless:   l > max{12*log(d/eps) + 12, 2r}
  global s:    l - 12(r+s+1)*log(l/(r+s+1)) > max{12(log(d/eps)+r+s+1), 2r, 2r+s+1}
  per-column g: l - 12(g+1)*log(l/(g+1))    > max{12(log(d/eps)+g+1),   2r, r+g+1}

A `BoundQuery`'s budget picks the regime (none, global s, per-column g):
`sample_bound` returns the smallest such l and `sample_condition` checks one
l.  The noisy left-hand sides are strictly increasing for l above 12*(r+s+1)
(resp. 12*(g+1)), so a search from there by doubling, then bisection, is
exact; no smaller l satisfies a noisy inequality.  All bounds carry the
premise r <= d/6; violations are flagged, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .pattern import GLOBAL, NoiseBudget


@dataclass(frozen=True)
class BoundQuery:
    """Parameters of a sample-count bound evaluation."""

    d: int
    r: int
    epsilon: float
    N: int | None = None
    budget: NoiseBudget | None = None

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ValueError("d and r must be positive")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie strictly between 0 and 1")
        if self.N is not None and self.N < 1:
            raise ValueError("N must be positive when given")

    @property
    def premise_ok(self) -> bool:
        return 6 * self.r <= self.d


@dataclass(frozen=True)
class BoundResult:
    """Minimal per-column count satisfying a bound, with the binding branch."""

    l_min: int
    binding: str
    feasible: bool
    premise_ok: bool
    finite_N_ok: bool | None = None
    unique_N_ok: bool | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _inequality(q: BoundQuery) -> tuple[int | None, str, float]:
    """m and the binding (first largest) right-hand branch, as (label, value).

    The left-hand side is l when there is no budget (m None), otherwise
    l - 12m*log(l/m).  The global and column-wise inequalities differ only in
    m (r+s+1 or g+1) and in their third branch (2r+s+1 or r+g+1).
    """
    log_term = math.log(q.d / q.epsilon)
    rank_branch = ("2r", float(2 * q.r))
    if q.budget is None:
        m, branches = None, [("12log(d/eps)+12", 12.0 * log_term + 12.0), rank_branch]
    else:
        a = q.budget.amount
        if q.budget.kind == GLOBAL:
            m, m_label, third, third_label = q.r + a + 1, "r+s+1", 2 * q.r + a + 1, "2r+s+1"
        else:
            m, m_label, third, third_label = a + 1, "g+1", q.r + a + 1, "r+g+1"
        branches = [
            (f"12(log(d/eps)+{m_label})", 12.0 * (log_term + m)),
            rank_branch,
            (third_label, float(third)),
        ]
    return m, *max(branches, key=lambda branch: branch[1])


def _holds(l: int, m: int | None, threshold: float) -> bool:
    if m is None:
        return l > threshold
    # the noisy inequality speaks of l > 12m only: below m its left-hand side
    # grows again as l falls and would pass a tiny l (from m to 12m it stays
    # under m < threshold, so only an l below m loses its pass)
    return l > 12 * m and l - 12.0 * m * math.log(l / m) > threshold


def sample_condition(l: int, q: BoundQuery) -> bool:
    """Whether l satisfies the sample inequality of the query's noise regime."""
    m, _, threshold = _inequality(q)
    return _holds(l, m, threshold)


def sample_bound(q: BoundQuery) -> BoundResult:
    """Smallest integer l satisfying the query's sample inequality.

    Noiseless, that is floor(max) + 1.  A noisy left-hand side increases for
    l > 12m, so once the inequality holds it keeps holding: double l until it
    holds, then bisect.  `lo` is never an answer (12m itself, or an l that
    fails); `hi` always holds.
    """
    m, binding, threshold = _inequality(q)
    if m is None:
        hi = math.floor(threshold) + 1
    else:
        lo, hi = 12 * m, 12 * m + 1
        while not _holds(hi, m, threshold):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _holds(mid, m, threshold) else (mid, hi)
    finite_ok = unique_ok = None
    if q.N is not None:
        finite_ok, unique_ok = q.N >= q.r * (q.d - q.r), q.N >= (q.r + 1) * (q.d - q.r)
    return BoundResult(hi, binding, hi <= q.d, q.premise_ok, finite_ok, unique_ok)


def bound_for_budget(
    d: int, r: int, epsilon: float, budget: NoiseBudget | None, N: int | None = None
) -> BoundResult:
    """The bound matching a verification budget.

    A Global(0) budget is equivalent to the noiseless verification, so it maps
    to the noiseless bound; PerColumn(0) still removes one cell per column and
    keeps the column-wise bound.
    """
    if budget == NoiseBudget.global_noise(0):
        budget = None
    return sample_bound(BoundQuery(d, r, epsilon, N, budget))


@dataclass(frozen=True)
class CoupledBoundResult:
    """Column-wise bound with the noise budget tied to the per-column sample count.

    The column-wise guarantee is asked to tolerate a 1/r fraction of noisy
    observations per column: g = ceil(l0 / r) where l0 is the noiseless
    minimal count.  (Substituting the solved l itself for l0 has no finite
    solution for r below ~64, because 12*(g+1)*log(l/(g+1)) ~ 12*l*log(r)/r
    then outgrows l; the one-shot coupling is the meaningful finite-size
    reading.)
    """

    d: int
    r: int
    g: int
    noiseless_l_min: int
    result: BoundResult
    ratio: float  # l_min / max(r, log d)


def coupled_columnwise_bound(d: int, epsilon: float, r: int | None = None) -> CoupledBoundResult:
    """Column-wise bound at g = ceil(l0/r), r defaulting to ceil(log d)."""
    if r is None:
        r = math.ceil(math.log(d))
    l0 = sample_bound(BoundQuery(d, r, epsilon)).l_min
    g = math.ceil(l0 / r)
    result = sample_bound(BoundQuery(d, r, epsilon, budget=NoiseBudget.per_column(g)))
    ratio = result.l_min / max(r, math.log(d))
    return CoupledBoundResult(d, r, g, l0, result, ratio)


NOISELESS_SENTINEL = -1


@dataclass(frozen=True)
class SweepRow:
    r: int
    g: int  # NOISELESS_SENTINEL for the noiseless curve
    l_min: int
    portion: float
    binding: str
    feasible: bool
    premise_ok: bool


def sweep(
    d: int, N: int, epsilon: float, r_values, g_values
) -> list[SweepRow]:
    """One bound evaluation per (g, r) pair, noiseless rows under g = -1.

    Rows with a violated r <= d/6 premise are emitted flagged, not dropped.
    A `SweepRow` carries no N check, so `N` changes no row.
    """
    rows = []
    for g in sorted(g_values):
        budget = None if g == NOISELESS_SENTINEL else NoiseBudget.per_column(g)
        for r in sorted(r_values):
            res = bound_for_budget(d, r, epsilon, budget, N)
            rows.append(
                SweepRow(
                    r,
                    g,
                    res.l_min,
                    res.l_min / d,
                    res.binding,
                    res.feasible,
                    res.premise_ok,
                )
            )
    return rows


SWEEP_HEADER = "r,g,l_min,portion,binding,feasible,premise_ok"


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            f"{row.r},{row.g},{row.l_min},{row.portion:.6f},{row.binding},"
            f"{str(row.feasible).lower()},{str(row.premise_ok).lower()}"
        )
    return "\n".join(lines) + "\n"

