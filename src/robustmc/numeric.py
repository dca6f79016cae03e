"""Desk-scale numerical oracle: synthetic generic instances and rank-r fit tests.

The fit oracle is alternating least squares over a factor pair, with a
spectral initialization from the zero-filled observation matrix on the first
restart and random initializations afterwards.  A fit "admits rank r" when
the relative Frobenius misfit on the observed cells drops to the tolerance.
This is a numerical surrogate for an algebraic statement, so callers treat a
failed fit as "does not admit" only once restarts are exhausted.

Every (r+1)x(r+1) minor of a rank-r matrix vanishes, so the fully observed
minors that certifiably do not vanish name cell sets that any admissible
removal must hit (Kiraly, Theran & Tomioka, JMLR 2015); support
identification uses them as a necessary-condition filter before fitting.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .pattern import GLOBAL, Cell, NoiseBudget, SamplingPattern

_CONVERGENCE_DELTA = 1e-10
_RANK_TOL = 1e-9
# rank_r_fit: ALS sweeps per start, and starts (one spectral, the rest random)
_MAX_ITERATIONS = 500
_RESTARTS = 5
# batched_masked_rank_residuals: iteration cap, stall rule, and the
# iteration from which a slice may stop
_SCREEN_MAX_ITERATIONS = 60
_SCREEN_STALL_RATIO = 0.97
_SCREEN_STALL_PATIENCE = 2
_SCREEN_MIN_ITERATIONS = 6
# iter_nonvanishing_minors: row subsets peeled at once, minors per determinant batch
_PEEL_BATCH = 32
_MINOR_BATCH = 4096


@dataclass(frozen=True)
class Instance:
    """A generic low-rank matrix plus sparse noise restricted to a pattern."""

    X: np.ndarray
    noise: dict[Cell, float]
    pattern: SamplingPattern

    def observations(self) -> dict[Cell, float]:
        obs = {}
        for cell in self.pattern.cells():
            obs[cell] = float(self.X[cell]) + self.noise.get(cell, 0.0)
        return obs

    def noise_support(self) -> frozenset[Cell]:
        return frozenset(self.noise)


@dataclass(frozen=True)
class FitResult:
    residual: float
    iterations: int
    admits: bool


def generate_instance(
    d: int,
    N: int,
    r: int,
    budget: NoiseBudget | None = None,
    planted: bool = True,
    seed: int = 0,
    pattern: SamplingPattern | None = None,
) -> Instance:
    """Draw factors and noise values from a standard normal, deterministically per seed.

    Planted mode spends the budget exactly (s cells globally, or g per
    column); otherwise the support size is drawn uniformly up to the budget.
    Noise lands only on observed cells.
    """
    if r > min(d, N):
        raise ValueError("rank exceeds matrix dimensions")
    if pattern is None:
        pattern = SamplingPattern.full(d, N)
    if (pattern.d, pattern.N) != (d, N):
        raise ValueError("pattern dimensions disagree with d, N")
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, r)) @ rng.standard_normal((r, N))
    singulars = np.linalg.svd(X, compute_uv=False)
    if singulars[r - 1] <= _RANK_TOL * singulars[0]:
        raise RuntimeError("degenerate draw: generated matrix is not of full target rank")

    noise: dict[Cell, float] = {}
    if budget is not None and budget.amount > 0:
        if budget.kind == GLOBAL:
            cells = pattern.cells()
            size = budget.amount if planted else int(rng.integers(0, budget.amount + 1))
            if size > len(cells):
                raise ValueError("noise budget exceeds the number of observed cells")
            picks = rng.choice(len(cells), size=size, replace=False)
            support = [cells[i] for i in sorted(picks)]
        else:
            support = []
            for j in range(N):
                col = pattern.column_rows(j)
                size = budget.amount if planted else int(rng.integers(0, budget.amount + 1))
                if size > len(col):
                    raise ValueError(f"column {j} cannot host {size} noisy cells")
                picks = rng.choice(len(col), size=size, replace=False)
                support.extend((col[i], j) for i in sorted(picks))
        for cell in support:
            noise[cell] = float(rng.standard_normal())
    return Instance(X, noise, pattern)


def _observation_arrays(observations: dict[Cell, float], pattern: SamplingPattern):
    M = np.zeros((pattern.d, pattern.N))
    mask = np.zeros((pattern.d, pattern.N), dtype=bool)
    for cell in pattern.cells():
        if cell not in observations:
            raise ValueError(f"missing value for observed cell {cell}")
        M[cell] = observations[cell]
        mask[cell] = True
    return M, mask


def _group_keys(mask: np.ndarray, axis: int) -> dict[bytes, list[int]]:
    groups: dict[bytes, list[int]] = {}
    for idx in range(mask.shape[axis]):
        key = (mask[:, idx] if axis == 1 else mask[idx, :]).tobytes()
        groups.setdefault(key, []).append(idx)
    return groups


def _als_sweeps(M, mask, A, B, col_groups, row_groups, norm, tolerance):
    """Alternate factor solves until the residual stabilizes; returns best state."""
    residual = np.inf
    iterations = 0
    for it in range(1, _MAX_ITERATIONS + 1):
        # columns given row factors
        for key, cols in col_groups.items():
            rows = np.flatnonzero(np.frombuffer(key, dtype=bool))
            if rows.size == 0:
                B[:, cols] = 0.0
                continue
            sol, *_ = np.linalg.lstsq(A[rows], M[np.ix_(rows, cols)], rcond=None)
            B[:, cols] = sol
        # rows given column factors
        for key, rows in row_groups.items():
            cols = np.flatnonzero(np.frombuffer(key, dtype=bool))
            if cols.size == 0:
                A[rows, :] = 0.0
                continue
            sol, *_ = np.linalg.lstsq(B[:, cols].T, M[np.ix_(rows, cols)].T, rcond=None)
            A[rows, :] = sol.T
        new_residual = float(np.linalg.norm((A @ B - M) * mask) / norm)
        iterations = it
        stalled = abs(residual - new_residual) < _CONVERGENCE_DELTA
        residual = new_residual
        if stalled or residual <= tolerance:
            break
    return residual, iterations


def rank_r_fit(
    observations: dict[Cell, float],
    pattern: SamplingPattern,
    r: int,
    tolerance: float = 1e-6,
) -> FitResult:
    """Best relative misfit of a rank-r factor model on the cells `pattern` observes."""
    if r < 1:
        raise ValueError("rank must be positive")
    M, mask = _observation_arrays(observations, pattern)
    norm = float(np.linalg.norm(M * mask))
    if norm == 0.0:
        return FitResult(0.0, 0, True)
    col_groups = _group_keys(mask, axis=1)
    row_groups = _group_keys(mask, axis=0)

    best = (np.inf, 0)
    for restart in range(_RESTARTS):
        if restart == 0:
            U, S, Vt = np.linalg.svd(M * mask, full_matrices=False)
            root = np.sqrt(S[:r])
            A = U[:, :r] * root
            B = (root[:, None]) * Vt[:r, :]
        else:
            rng = np.random.default_rng([0, restart])
            A = rng.standard_normal((pattern.d, r))
            B = rng.standard_normal((r, pattern.N))
        residual, iterations = _als_sweeps(M, mask, A, B, col_groups, row_groups, norm, tolerance)
        if residual < best[0]:
            best = (residual, iterations)
        if best[0] <= tolerance:
            break
    residual, iterations = best
    return FitResult(residual, iterations, residual <= tolerance)


def _peel_to_rank_r(blocks: np.ndarray, threshold: float) -> np.ndarray:
    """Columns to peel off each k x N block until its sigma_k is at most `threshold`.

    Each round removes, in every block still above the threshold, the nonzero
    column whose removal leaves the smallest sigma_k (the least eigenvalue of
    the block's Gram matrix without that column).  A block stops once it has
    fewer than k nonzero columns, so every block stops within N rounds.
    """
    k = blocks.shape[1]
    blocks = blocks.copy()
    peeled = np.zeros((blocks.shape[0], blocks.shape[2]), dtype=bool)
    active = np.arange(blocks.shape[0])
    while active.size:
        live = blocks[active].any(axis=1)
        above = live.sum(axis=1) >= k
        above[above] = np.linalg.svd(blocks[active[above]], compute_uv=False)[:, -1] > threshold
        active, live = active[above], live[above]
        if active.size == 0:
            break
        sub = blocks[active]
        outer = np.einsum("bin,bjn->bnij", sub, sub)
        rest = np.linalg.eigvalsh(outer.sum(axis=1, keepdims=True) - outer)[:, :, 0]
        worst = np.where(live, rest, np.inf).argmin(axis=1)
        peeled[active, worst] = True
        blocks[active, :, worst] = 0.0
    return peeled


def _minors_through(cols: np.ndarray, peeled: np.ndarray, r: int):
    """The (r+1)-subsets of `cols` holding a column of `peeled`, in batches.

    `peeled` is a subset of `cols`.  Each subset is generated once, from its
    first peeled column, and lists that column first; the r others are read
    lazily, in lexicographic order, from the columns after it in `peeled`
    and those outside it.
    """
    rest = cols.tolist()
    for p in peeled.tolist():
        rest.remove(p)
        flat = chain.from_iterable(combinations(rest, r))
        while (part := np.fromiter(islice(flat, _MINOR_BATCH * r), dtype=np.intp)).size:
            yield np.column_stack([np.full(part.size // r, p), part.reshape(-1, r)])


def iter_nonvanishing_minors(
    observations: dict[Cell, float],
    pattern: SamplingPattern,
    r: int,
    tolerance: float,
    needed: Callable[[np.ndarray, np.ndarray], np.ndarray],
):
    """Fully observed (r+1)x(r+1) minors that no rank-r fit at `tolerance` leaves intact.

    A minor S is flagged when |det S| * (r / ||S||_F^2)^(r/2), a lower bound
    on its smallest singular value sigma_{r+1}(S) (AM-GM on the top r), exceeds
    2 * tolerance * ||M_Omega||_F; the factor 2 absorbs rounding.  A rank-r fit
    whose relative misfit on a subset of the observed cells is at most
    `tolerance` is within tolerance * ||M_Omega||_F of every fully observed
    minor inside that subset, so by Weyl's inequality such a minor has
    sigma_{r+1} at most that: every flagged minor must lose a cell.

    The sigma_{r+1} of a minor is at most that of any column set holding it
    (interlacing), so for each row (r+1)-subset the columns observed in all
    its rows are peeled (`_peel_to_rank_r`) until the rest has sigma_{r+1} at
    or below the threshold, and determinants are taken only of the minors
    through a peeled column; a row subset that misses every noisy cell needs
    none.  Row subsets are peeled `_PEEL_BATCH` at a time and determinants
    taken `_MINOR_BATCH` at a time, so beyond the d x N observations memory
    is O(_PEEL_BATCH * r^2 * N + _MINOR_BATCH * r^2): it grows with neither
    C(N-1, r) nor the number of minors.  Yields (rows, cols): one row subset,
    shape (r+1,), and the flagged column subsets of one batch, shape
    (B, r+1), in no set order.
    `needed(rows, cols)` returns which column sets, of a batch or single
    peeled columns, to decide; the minors it rejects, and those holding a
    rejected column, are skipped and not yielded.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    M, mask = _observation_arrays(observations, pattern)
    k = r + 1
    # |det| * r^(r/2) > threshold * ||S||_F^r, free of a division by ||S||_F
    threshold = 2.0 * tolerance * float(np.linalg.norm(M))
    scale = float(r) ** (r / 2)
    row_subsets = combinations(range(pattern.d), k)
    while chunk := list(islice(row_subsets, _PEEL_BATCH)):
        row_sets = np.array(chunk, dtype=np.intp)
        shared = mask[row_sets].all(axis=1)  # columns observed in all rows of each subset
        peeled = _peel_to_rank_r(M[row_sets] * shared[:, None, :], threshold)
        for t in np.flatnonzero(peeled.any(axis=1)):
            block = M[row_sets[t]]
            cols = np.flatnonzero(shared[t])
            through = np.flatnonzero(peeled[t])
            through = through[needed(row_sets[t], through[:, None])]
            for combos in _minors_through(cols, through, r):
                combos = combos[needed(row_sets[t], combos)]
                minors = block[:, combos].transpose(1, 0, 2)
                fro2 = np.einsum("bij,bij->b", minors, minors)
                flagged = np.abs(np.linalg.det(minors)) * scale > threshold * fro2 ** (r / 2)
                if flagged.any():
                    yield row_sets[t], combos[flagged]


def batched_masked_rank_residuals(
    values: np.ndarray,
    masks: np.ndarray,
    r: int,
    stop_below: float = 0.0,
) -> np.ndarray:
    """Relative rank-r misfit per observation mask, via batched SVD imputation.

    For each mask the unobserved cells are imputed from the running rank-r
    truncation (starting at zero) and the residual is measured on the observed
    cells only.  A slice stops early once it drops below `stop_below` or once
    its improvement factor stays above `_SCREEN_STALL_RATIO` for
    `_SCREEN_STALL_PATIENCE` consecutive iterations.  The returned residual of
    a stalled slice is an upper bound on what more iterations could achieve,
    which keeps rejection screens conservative in one direction only.
    """
    if masks.ndim != 3 or masks.shape[1:] != values.shape:
        raise ValueError("masks must have shape (batch, d, N)")
    batch = masks.shape[0]
    denom = np.sqrt(np.einsum("ij,bij->b", values * values, masks))
    denom = np.where(denom == 0.0, 1.0, denom)
    Z = np.where(masks, values[None, :, :], 0.0)
    residuals = np.full(batch, np.inf)
    streak = np.zeros(batch, dtype=int)
    active = np.ones(batch, dtype=bool)
    for it in range(1, _SCREEN_MAX_ITERATIONS + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        U, S, Vt = np.linalg.svd(Z[idx], full_matrices=False)
        L = (U[:, :, :r] * S[:, None, :r]) @ Vt[:, :r, :]
        sub_masks = masks[idx]
        diff = (L - values[None, :, :]) * sub_masks
        new_res = np.sqrt(np.einsum("bij,bij->b", diff, diff)) / denom[idx]
        Z[idx] = np.where(sub_masks, values[None, :, :], L)
        old_res = residuals[idx]
        improved = new_res < old_res * _SCREEN_STALL_RATIO
        streak[idx] = np.where(improved, 0, streak[idx] + 1)
        residuals[idx] = np.minimum(old_res, new_res)
        if it >= _SCREEN_MIN_ITERATIONS:
            done = (residuals[idx] <= stop_below) | (streak[idx] >= _SCREEN_STALL_PATIENCE)
            active[idx[done]] = False
    return residuals
