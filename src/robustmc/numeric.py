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
    if r < 1:
        raise ValueError("rank must be positive")
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
                col = pattern.columns[j]
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


def _group_keys(M: np.ndarray, mask: np.ndarray, axis: int):
    """The columns (axis 1) or rows (axis 0) of `mask` grouped by observed set.

    Per group, in first-seen order: its members, the indices they observe,
    and M's block on those, observed indices by members, built once per fit
    so that every ALS sweep reuses them.
    """
    lines, data = (mask.T, M) if axis == 1 else (mask, M.T)
    groups: dict[bytes, list[int]] = {}
    for idx in range(lines.shape[0]):
        groups.setdefault(lines[idx].tobytes(), []).append(idx)
    out = []
    for key, members in groups.items():
        observed = np.flatnonzero(np.frombuffer(key, dtype=bool))
        members = np.array(members)
        out.append((members, observed, data[np.ix_(observed, members)]))
    return out


def _als_sweeps(M, mask, A, B, col_groups, row_groups, norm, tolerance):
    """Alternate factor solves until the residual stabilizes or reaches `tolerance`;
    returns the last sweep's (residual, sweep count)."""
    residual = np.inf
    iterations = 0
    for it in range(1, _MAX_ITERATIONS + 1):
        # columns given row factors
        for cols, rows, block in col_groups:
            sol, *_ = np.linalg.lstsq(A[rows], block, rcond=None)
            B[:, cols] = sol
        # rows given column factors
        for rows, cols, block in row_groups:
            sol, *_ = np.linalg.lstsq(B[:, cols].T, block, rcond=None)
            A[rows, :] = sol.T
        new_residual = float(np.linalg.norm((A @ B - M) * mask) / norm)
        iterations = it
        stalled = abs(residual - new_residual) < _CONVERGENCE_DELTA
        residual = new_residual
        if stalled or residual <= tolerance:
            break
    return residual, iterations


def _fits(observations: dict[Cell, float], pattern: SamplingPattern, r: int, tolerance: float):
    """(residual, iterations) of ALS from each start in turn: the spectral
    start first, then `_RESTARTS` - 1 seeded random ones."""
    if r < 1:
        raise ValueError("rank must be positive")
    M, mask = _observation_arrays(observations, pattern)
    norm = float(np.linalg.norm(M * mask))
    if norm == 0.0:
        yield 0.0, 0
        return
    col_groups = _group_keys(M, mask, axis=1)
    row_groups = _group_keys(M, mask, axis=0)
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
        yield _als_sweeps(M, mask, A, B, col_groups, row_groups, norm, tolerance)


def _spectral_start_admits(
    observations: dict[Cell, float], pattern: SamplingPattern, r: int, tolerance: float
) -> bool:
    """Whether the first start of `rank_r_fit`, the spectral one, reaches `tolerance`.

    If so, `rank_r_fit` stops there and admits too.
    """
    return next(_fits(observations, pattern, r, tolerance))[0] <= tolerance


def rank_r_fit(
    observations: dict[Cell, float],
    pattern: SamplingPattern,
    r: int,
    tolerance: float = 1e-6,
) -> FitResult:
    """Best relative misfit of a rank-r factor model on the cells `pattern` observes."""
    best = (np.inf, 0)
    for residual, iterations in _fits(observations, pattern, r, tolerance):
        if residual < best[0]:
            best = (residual, iterations)
        if best[0] <= tolerance:
            break
    residual, iterations = best
    return FitResult(residual, iterations, residual <= tolerance)


def _peel_to_rank_r(blocks: np.ndarray, threshold: float) -> np.ndarray:
    """Columns to peel off each k x N block until its sigma_k is at most `threshold`.

    Each round removes, in every block still above the threshold, the nonzero
    column x of largest leverage x^T G^-1 x (G the block's Gram matrix), read
    off V of the stop test's SVD; as det(G - x x^T) = det G * (1 - x^T G^-1 x),
    that removal shrinks det G the most.  A block stops once it has fewer than
    k nonzero columns, so every block stops within N rounds.
    """
    k = blocks.shape[1]
    blocks = blocks.copy()
    peeled = np.zeros((blocks.shape[0], blocks.shape[2]), dtype=bool)
    active = np.arange(blocks.shape[0])
    while active.size:
        live = blocks[active].any(axis=1)
        _, sigma, vt = np.linalg.svd(blocks[active], full_matrices=False)
        above = (live.sum(axis=1) >= k) & (sigma[:, -1] > threshold)
        active, live, vt = active[above], live[above], vt[above]
        leverage = np.einsum("bin,bin->bn", vt, vt)  # x^T G^-1 x per column
        worst = np.where(live, leverage, -np.inf).argmax(axis=1)
        peeled[active, worst] = True
        blocks[active, :, worst] = 0.0
    return peeled


def _probes(n: int, r: int) -> np.ndarray:
    """The consecutive r-blocks of range(n), floor(n / r) of them, pairwise disjoint."""
    return np.arange(n // r * r, dtype=np.intp).reshape(-1, r)


def _non_probes(n: int, r: int):
    """The r-subsets of range(n) but `_probes(n, r)`, in lexicographic order,
    read lazily `_MINOR_BATCH` at a time."""
    flat = chain.from_iterable(combinations(range(n), r))
    while (part := np.fromiter(islice(flat, _MINOR_BATCH * r), dtype=np.intp)).size:
        part = part.reshape(-1, r)
        yield part[(part[:, 0] % r != 0) | (part[:, -1] - part[:, 0] != r - 1)]


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
    none.  Each minor is taken once, from its first peeled column p, with
    its other r columns among the n shared columns left after p and the
    peeled columns before it.  The first batch through p is its probes,
    whose other columns are the floor(n / r) consecutive, disjoint r-blocks
    of those n (`_probes`); then come the other r-subsets, lexicographically
    (`_non_probes`).  Row subsets are peeled `_PEEL_BATCH` at a time and
    determinants taken `_MINOR_BATCH` at a time, so beyond the d x N
    observations memory is O(_PEEL_BATCH * r^2 * N + _MINOR_BATCH * r^2): it
    grows with neither C(N-1, r) nor the number of minors.  Yields (rows,
    cols): one row subset, shape (r+1,), and the flagged column subsets of
    one batch, shape (B, r+1), in no set order.
    `needed(rows, cols)` returns which column sets, of a batch or the single
    peeled column [[p]], to decide; the minors it rejects, and those holding
    a rejected column, are skipped and not yielded.  It is asked about p
    before each batch through p, so the consumer sees each yielded batch
    before the next is decided: once s+1 probes through p are flagged, no
    set of at most s cells hits them all without a cell of rows x {p}, and
    a consumer tracking such sets can reject p and with it the rest.
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
            rows, block = row_sets[t], M[row_sets[t]]
            rest = np.flatnonzero(shared[t])
            for p in np.flatnonzero(peeled[t]).tolist():
                # minors through p and an earlier peeled column came with that column
                rest = rest[rest != p]
                for others in chain([_probes(rest.size, r)], _non_probes(rest.size, r)):
                    if not needed(rows, np.array([[p]]))[0]:
                        break
                    combos = np.column_stack([np.full(len(others), p), rest[others]])
                    combos = combos[needed(rows, combos)]
                    minors = block[:, combos].transpose(1, 0, 2)
                    fro2 = np.einsum("bij,bij->b", minors, minors)
                    flagged = np.abs(np.linalg.det(minors)) * scale > threshold * fro2 ** (r / 2)
                    if flagged.any():
                        yield rows, combos[flagged]


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
