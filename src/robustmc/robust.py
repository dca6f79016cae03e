"""Sparse-noise verification: quantify certificates over removal patterns.

The finite (resp. unique) verdict holds when every admissible removal of the
budgeted noise support leaves a pattern whose constraint matrix carries a
finite (resp. unique plus disjoint) certificate.  Global budgets remove
exactly s cells for the finite check and s+1 for the unique check; per-column
budgets remove exactly g+1 cells per column for both.  Certificates are always
decided, so the only Indeterminate is an enumeration larger than the
configurable cap.

A global verdict is decided from blocks of data columns where it can be.
Removing cells of a data column changes only its own constraint columns, so a
search on the unremoved pattern's matrix without every constraint column of a
block (an exclusion) that finds a certificate serves every removal confined
to the block, whose matrix holds that one.  An exclusion searches that one
matrix with the block's data columns barred (`certify`'s `barred`).  The
data columns are split in order into groups of m = max(1, slack // (2*need))
columns, the slack being the origins available beyond those the witnesses
need, and the blocks are the unions of `need` groups (of all of them when
fewer), so every removal lies in one.  They are searched in `combinations`
order, each warm from the latest positive exclusion (`certify`'s
`warm_from`) on the same matrix; a warm start changes witnesses but never
verdicts.  When all are positive, so is the verdict, with every removal
counted checked and none enumerated.

After a refuted block, the removals are enumerated in lexicographic order up
to the first failure.  One inside a block searched before it is accepted by
lookup; any other is cleared once per set J of data columns it touches where
the exclusion of J finds a certificate, and otherwise searched directly, read
only to see whether it refutes.  A failing removal is therefore always
solved, in order, and the verdict, the checked count, the failing removal and
the reason are those of solving every removal.  A direct search runs cold
on the removal's own matrix, built afresh, or on the unremoved pattern's
for the empty removal, so every warm start stays on one matrix.

A noise-free finite verdict (global:0) is searched first on the fewest
leading data columns of which 2W have constraint columns, W being the
witness size; each such data column is one origin.  Constraint columns are
ordered by origin, so the leading columns' matrix is a prefix of the whole
pattern's, with the same indices, origins and rows, and a certificate found
on it serves the whole pattern: it is the exclusion of the trailing columns.
A refuted prefix proves nothing, so only the whole matrix, built after it,
may refute.  The prefix is searched only when it lies in the first third of
the data columns, so that it saves most of the build, and observes every
row, as every witness does.

The per-column quantifier needs no enumeration.  Once the premise holds, its
first removal in lexicographic order (the first g+1 observed cells of every
column) empties the smallest observed row, and a pattern with an empty row is
never finitely completable.  So per-column checks are always refuted by that
removal, whose matrix alone is built and searched.
The corresponding probabilistic bounds remain useful as formulas.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, islice

import numpy as np

from . import certify, numeric
from .pattern import (
    GLOBAL,
    Cell,
    NoiseBudget,
    RemovalSet,
    SamplingPattern,
    build_constraint_matrix,
    enumerate_removals,
    read_cell_lines,
    remove_entries,
)

DEFAULT_ENUMERATION_CAP = 10_000_000


class RobustOutcome(Enum):
    FINITE = "FinitelyCompletable"
    UNIQUE = "UniquelyCompletable"
    REFUTED = "Refuted"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class RobustVerdict:
    verdict: RobustOutcome
    checked: int = 0
    failing_removal: RemovalSet | None = None
    reason: str = ""
    premise_violation: bool = False

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "checked": self.checked,
            "failing_removal": (
                [list(c) for c in self.failing_removal.sorted_cells()]
                if self.failing_removal is not None
                else None
            ),
            "reason": self.reason,
            "premise_violation": self.premise_violation,
        }


class NoSupportFoundError(RuntimeError):
    """No removal of the allowed size admits a rank-r fit at the tolerance.

    `best_residual` is the smallest fit residual among the candidates that
    were fitted, or None when the minor filter left none to fit.
    """

    def __init__(self, message: str, best_residual: float | None = None):
        super().__init__(message)
        self.best_residual = best_residual


def premise_floor(r: int, budget: NoiseBudget, unique: bool) -> int:
    """Fewest observed entries per column the verification premise allows."""
    return r + budget.amount + (1 if unique or budget.kind != GLOBAL else 0)


def _premise_failure(pattern: SamplingPattern, r: int, budget: NoiseBudget, unique: bool) -> str | None:
    floor = premise_floor(r, budget, unique)
    for j, l in enumerate(map(len, pattern.columns)):
        if l < floor:
            return f"column {j} has {l} observed entries; the premise needs at least {floor}"
    return None


def _row_erasing_removal(pattern: SamplingPattern, need: int) -> RemovalSet:
    """The first `need` observed cells of every column: the first per-column removal.

    The smallest observed row is the first cell of every column observing it,
    so this removal empties that row.
    """
    return RemovalSet(
        frozenset((i, j) for j, rows in enumerate(pattern.columns) for i in rows[:need])
    )


def _verify(
    pattern: SamplingPattern,
    r: int,
    budget: NoiseBudget,
    unique: bool,
    enumeration_cap: int,
) -> RobustVerdict:
    if r < 1:
        raise ValueError("rank must be positive")
    if enumeration_cap < 0:
        raise ValueError("enumeration cap must be non-negative")
    positive = RobustOutcome.UNIQUE if unique else RobustOutcome.FINITE
    failure = _premise_failure(pattern, r, budget, unique)
    if failure is not None:
        return RobustVerdict(RobustOutcome.REFUTED, reason=failure, premise_violation=True)

    certificate = certify.find_unique_certificate if unique else certify.find_finite_certificate
    if budget.kind != GLOBAL:
        # the premise gives r < d; with a row empty, a finite witness W would
        # need r*rows(W) >= |W| + r*r = r*d while rows(W) <= d-1
        removal = _row_erasing_removal(pattern, budget.amount + 1)
        cert = certificate(build_constraint_matrix(remove_entries(pattern, removal), r), r)
        if cert.verdict != certify.Verdict.REFUTED:
            raise RuntimeError("internal error: a row-erasing removal kept a certificate")
        return RobustVerdict(RobustOutcome.REFUTED, 1, removal, cert.note)

    need = budget.amount + unique
    total = math.comb(pattern.size(), need)
    if total > enumeration_cap:
        return RobustVerdict(
            RobustOutcome.INDETERMINATE,
            reason=f"{total} removal patterns exceed the enumeration cap of {enumeration_cap}",
        )
    witnesses = sum(size for _, size in certify.witness_parts(r, pattern.d, unique))
    if not need:
        # search first the fewest leading data columns of which 2W have
        # constraint columns (W the witness size): over 8 shapes x 40 seeds
        # (d 16-50, N 300-1000, r 2-3, l 3-20) a cold witness needed at
        # most 1.94W leading data columns, with a median of 1.0-1.3W.  At
        # r=1 (d=32, 200 seeds) 47% of such prefixes refuted at l=2 and 9%
        # at l=3, all but 3 for a row they miss, and a positive one saved
        # less build than its search cost unless N >= 6W: so the prefix
        # must observe every row, as a witness does, and lie in the first
        # third of the pattern
        wide = (j for j, rows in enumerate(pattern.columns[: pattern.N // 3]) if len(rows) > r)
        first = list(islice(wide, 2 * witnesses))
        if len(first) == 2 * witnesses > 0:
            lead = pattern.columns[: first[-1] + 1]
            if len(set().union(*lead)) == pattern.d:
                head = build_constraint_matrix(SamplingPattern._trusted(pattern.d, lead), r)
                if certificate(head, r).verdict != certify.Verdict.REFUTED:
                    return RobustVerdict(positive, checked=total)

    base = build_constraint_matrix(pattern, r)
    last = None  # the latest positive exclusion, which starts the next search

    def excludes(columns) -> bool:
        """Whether the base matrix keeps a certificate with the data columns `columns` barred."""
        nonlocal last
        cert = certificate(base, r, warm_from=last, barred=frozenset(columns))
        if found := cert.verdict != certify.Verdict.REFUTED:
            last = cert
        return found

    refuted = None  # the first refuted block, once blocks were searched
    if need:
        m = max(1, (len(set(base.origins)) - witnesses) // (2 * need))
        groups = tuple(range(-(-pattern.N // m)))
        size = min(need, len(groups))
        for block in combinations(groups, size):
            if not excludes(j for j in range(pattern.N) if j // m in block):
                refuted = block
                break
        else:
            return RobustVerdict(positive, checked=total)

    excluded: dict[frozenset[int], bool] = {}  # touched data columns: cleared without a direct search?
    checked = 0
    for removal in enumerate_removals(pattern, need):
        checked += 1
        touched = frozenset(j for _, j in removal.cells)
        if refuted is not None and touched not in excluded:
            # J lies in a positive block iff the first block holding its groups precedes the refuted one
            first = next(_supersets(tuple(sorted({j // m for j in touched})), groups, size))
            excluded[touched] = first < refuted or excludes(touched)
        if excluded.get(touched):
            continue
        cm = build_constraint_matrix(remove_entries(pattern, removal), r) if removal.cells else base
        cert = certificate(cm, r)
        if cert.verdict == certify.Verdict.REFUTED:
            return RobustVerdict(RobustOutcome.REFUTED, checked, removal, cert.note)
    return RobustVerdict(positive, checked=checked)


def verify_finite(
    pattern: SamplingPattern,
    r: int,
    budget: NoiseBudget,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> RobustVerdict:
    """Finite completability under the budget: every removal keeps a finite certificate."""
    return _verify(pattern, r, budget, False, enumeration_cap)


def verify_unique(
    pattern: SamplingPattern,
    r: int,
    budget: NoiseBudget,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> RobustVerdict:
    """Unique completability under the budget: every removal keeps a disjoint witness pair.

    The witness pair is sufficient, not necessary, so Refuted means "not
    certified": the fully observed 4x5 matrix at r=1 is uniquely completable,
    yet it is Refuted even at global:0.
    """
    return _verify(pattern, r, budget, True, enumeration_cap)


def _missed(nodes: list[frozenset[Cell]], rows: np.ndarray, cols: np.ndarray, N: int) -> np.ndarray:
    """Per node and row of `cols`, whether the node holds no cell in `rows` x those columns."""
    in_rows = set(rows.tolist())
    held = [(k, j) for k, node in enumerate(nodes) for i, j in node if i in in_rows]
    own = np.zeros((len(nodes), N), dtype=bool)
    own[[k for k, _ in held], [j for _, j in held]] = True
    return ~own[:, cols].any(axis=2)


def _extend(
    live: list[frozenset[Cell]], rows: np.ndarray, cols: np.ndarray, s: int, N: int
) -> list[frozenset[Cell]]:
    """The live family once the minors rows x cols are flagged too.

    The tree grows level by level: a set that misses a minor is replaced by
    its extensions with each cell of the first minor it misses, or dropped
    when already of size s; the sets that hit them all are kept, and those
    holding another kept set pruned.
    """
    level, seen, kept = live, set(live), []
    while level:
        missed = _missed(level, rows, cols, N)
        grown = []
        for node, miss, first in zip(level, missed.any(axis=1), missed.argmax(axis=1)):
            if not miss:
                kept.append(node)
            elif len(node) < s:
                for child in (node | {(i, j)} for i in rows.tolist() for j in cols[first].tolist()):
                    if child not in seen:
                        seen.add(child)
                        grown.append(child)
        level = grown
    out: list[frozenset[Cell]] = []
    for node in sorted(kept, key=len):
        if not any(other <= node for other in out):
            out.append(node)
    return out


def _small_hitting_sets(
    observations: dict[Cell, float],
    pattern: SamplingPattern,
    r: int,
    s: int,
    tolerance: float,
    stop: Callable[[list[frozenset[Cell]]], bool] = lambda live: False,
) -> list[frozenset[Cell]]:
    """Cell sets of size <= s, such that a set of at most s cells hits every
    flagged minor exactly when it holds one of them.

    A bounded search tree grown over the stream of
    `numeric.iter_nonvanishing_minors` (`_extend`).  The kept sets are the
    leaves of a tree of depth s and fan-out (r+1)^2, so at most (r+1)^(2s)
    of them, however many minors are flagged.  Every later live set holds an
    earlier one, so a minor that every live set hits cannot change them, and
    the stream skips its determinant (`needed`), and skips a peeled column p
    of rows X whole once every live set holds a cell of X x {p}.  The
    list is empty when no set of size <= s hits them all (as with s+1
    cell-disjoint minors); the stream is then left unread.  It is left
    unread too once `stop`, called on the live family after each batch,
    returns True, and that family is returned as it stands.
    """
    live = [frozenset()]

    def needed(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return _missed(live, rows, cols, pattern.N).any(axis=0)

    for rows, cols in numeric.iter_nonvanishing_minors(observations, pattern, r, tolerance, needed):
        live = _extend(live, rows, cols, s, pattern.N)
        if not live or stop(live):
            break
    return live


def _supersets(base: tuple, items: tuple, size: int):
    """The sorted `size`-subsets of the ascending `items` holding `base`, in lexicographic order.

    Adding fixed elements to sorted tuples keeps their lexicographic order.
    """
    rest = [item for item in items if item not in base]
    for extra in combinations(rest, size - len(base)):
        yield tuple(sorted(base + extra))


def _holding(bases: list[tuple], items: tuple, size: int):
    """The sorted `size`-subsets of the ascending `items` holding one of
    `bases`, each once, in lexicographic order."""
    previous = None
    for cand in heapq.merge(*(_supersets(b, items, size) for b in bases if len(b) <= size)):
        if cand != previous:
            yield cand
        previous = cand


def _fit_in_order(
    observations: dict[Cell, float],
    pattern: SamplingPattern,
    r: int,
    s: int,
    tolerance: float,
    family: list[frozenset[Cell]],
) -> frozenset[Cell]:
    """The first candidate holding a set of `family`, by cardinality and then
    lexicographically, whose removal admits a rank-r fit; raises
    `NoSupportFoundError` when none of size <= s does."""
    cells = pattern.cells()
    hitting = [tuple(sorted(node)) for node in family]
    passed = 0
    best_residual = np.inf
    for size in range(s + 1):
        for cand in _holding(hitting, cells, size):
            passed += 1
            dropped = RemovalSet(frozenset(cand))
            fit = numeric.rank_r_fit(observations, remove_entries(pattern, dropped), r, tolerance)
            if fit.admits:
                return dropped.cells
            best_residual = min(best_residual, fit.residual)
    raise NoSupportFoundError(
        f"no support of size <= {s} admits a rank-{r} fit at tolerance {tolerance} "
        f"(candidates passing the vanishing-minor filter: {passed}); the rank may be wrong, "
        "the noise heavier than budgeted, or the tolerance too tight",
        best_residual=best_residual if passed else None,
    )


def identify_noise_support(
    noisy_observations: dict[Cell, float],
    pattern: SamplingPattern,
    r: int,
    s: int,
    fit_tolerance: float = 1e-6,
) -> frozenset[Cell]:
    """Smallest observed-cell set whose removal admits a rank-r fit.

    Candidates are tried by cardinality 0, 1, ..., s and lexicographically
    within a cardinality; the first set whose remaining observations fit rank
    r at `fit_tolerance` relative misfit is returned.  A candidate is fitted
    only if it hits every fully observed (r+1)-minor that certifiably does not
    vanish (`numeric.iter_nonvanishing_minors`), which it does exactly when it
    holds one of the sets of `_small_hitting_sets`.  No candidate that misses
    such a minor admits a fit at `fit_tolerance`, so the result is the one
    that fitting every candidate in order would give, on any pattern.

    The minor stream stops early once the live family, read after each batch,
    is a single set H not yet tried whose removal admits a fit from the
    spectral start alone (the first start of `numeric.rank_r_fit`).  Every
    later live set holds H, and H hits every flagged minor, so H would be the
    whole final family and the first candidate holding it, which
    `rank_r_fit` admits at that same start.  A failed probe changes nothing.
    """
    if s < 0:
        raise ValueError("noise budget must be non-negative")
    if not 0 <= fit_tolerance < np.inf:
        raise ValueError("fit tolerance must be finite and non-negative")
    if not pattern.size():
        raise ValueError("pattern has no observed cells")

    probed: dict[frozenset[Cell], bool] = {}  # sole live sets: spectral start admits?

    def sole_fits(live: list[frozenset[Cell]]) -> bool:
        if len(live) != 1 or live[0] in probed:
            return False
        remaining = remove_entries(pattern, RemovalSet(live[0]))
        admits = numeric._spectral_start_admits(noisy_observations, remaining, r, fit_tolerance)
        probed[live[0]] = admits
        return admits

    family = _small_hitting_sets(noisy_observations, pattern, r, s, fit_tolerance, sole_fits)
    if len(family) == 1 and probed.get(family[0]):
        return family[0]
    return _fit_in_order(noisy_observations, pattern, r, s, fit_tolerance, family)


def parse_observations(text: str) -> tuple[SamplingPattern, dict[Cell, float]]:
    """Parse the observation text format (see `pattern.read_cell_lines`)."""
    d, N, values = read_cell_lines(text, with_values=True)
    return SamplingPattern.from_cells(d, N, values), values


def load_observations(path) -> tuple[SamplingPattern, dict[Cell, float]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_observations(fh.read())
