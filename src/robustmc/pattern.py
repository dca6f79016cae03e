"""Sampling patterns, noise budgets, entry removals, and the derived constraint columns.

A sampling pattern is a d-by-N binary observation mask stored column by
column: column j holds its observed rows in ascending order.  From a pattern
and a rank r we derive a binary "constraint matrix": for every data column
with l observed rows x_1 < ... < x_l it contributes max(l - r, 0) columns,
the j-th carrying ones exactly at rows {x_1, ..., x_r, x_{r+j}}.  All
certificate machinery operates on these columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import lt
from typing import Iterable, Iterator

Cell = tuple[int, int]


class PatternFormatError(ValueError):
    """Raised when a pattern or observation file violates the text format."""


@dataclass(frozen=True)
class SamplingPattern:
    """Binary d-by-N observation mask: `columns[j]` holds column j's observed
    rows, strictly ascending within [0, d); N is the number of columns."""

    d: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        columns = tuple(map(tuple, self.columns))
        object.__setattr__(self, "columns", columns)
        if self.d <= 0 or not columns:
            raise ValueError("pattern dimensions must be positive")
        for j, rows in enumerate(columns):
            if rows and not (0 <= rows[0] and rows[-1] < self.d and all(map(lt, rows, rows[1:]))):
                raise ValueError(f"column {j}: rows must ascend strictly within [0, {self.d})")

    @classmethod
    def _trusted(cls, d: int, columns: tuple[tuple[int, ...], ...]) -> "SamplingPattern":
        """The pattern of tuple columns this package has just built strictly
        ascending within [0, d).  Only the dimensions are checked: at 20x600
        the per-column check costs about as much as drawing the columns."""
        if d <= 0 or not columns:
            raise ValueError("pattern dimensions must be positive")
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "d", d)
        object.__setattr__(pattern, "columns", columns)
        return pattern

    @property
    def N(self) -> int:
        return len(self.columns)

    @classmethod
    def from_cells(cls, d: int, N: int, cells: Iterable[Cell]) -> "SamplingPattern":
        """The pattern observing `cells`; cells outside the grid and repeated
        cells raise ValueError."""
        rows: list[list[int]] = [[] for _ in range(N)]
        for i, j in cells:
            if not (0 <= i < d and 0 <= j < N):
                raise ValueError(f"cell ({i}, {j}) outside a {d}x{N} grid")
            rows[j].append(i)
        return cls(d, tuple(tuple(sorted(col)) for col in rows))

    @classmethod
    def full(cls, d: int, N: int) -> "SamplingPattern":
        return cls(d, (tuple(range(d)),) * N)

    def cells(self) -> tuple[Cell, ...]:
        """Observed cells in canonical ascending (row, col) order."""
        return tuple(sorted((i, j) for j, rows in enumerate(self.columns) for i in rows))

    def size(self) -> int:
        """The number of observed cells."""
        return sum(map(len, self.columns))


@dataclass(frozen=True)
class RemovalSet:
    """A set of cells to delete from a parent pattern (a hypothesized noise support)."""

    cells: frozenset[Cell]

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(self.cells))

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))


GLOBAL = "global"
PER_COLUMN = "per_column"


@dataclass(frozen=True)
class NoiseBudget:
    """Sparse-noise budget: at most `amount` corrupted cells, globally or per column."""

    kind: str
    amount: int

    def __post_init__(self):
        if self.kind not in (GLOBAL, PER_COLUMN):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if self.amount < 0:
            raise ValueError("budget amount must be non-negative")

    @classmethod
    def global_noise(cls, s: int) -> "NoiseBudget":
        return cls(GLOBAL, s)

    @classmethod
    def per_column(cls, g: int) -> "NoiseBudget":
        return cls(PER_COLUMN, g)


@dataclass(frozen=True)
class ConstraintMatrix:
    """Binary columns with exactly r+1 ones each, tagged with their source column.

    Columns are ordered by source column ascending, then by the extra row
    ascending, which makes every downstream certificate deterministic.
    """

    d: int
    r: int
    columns: tuple[tuple[int, ...], ...]  # sorted row supports, each of size r+1
    origins: tuple[int, ...]              # source data column per constraint column

    def __len__(self) -> int:
        return len(self.columns)


def build_constraint_matrix(pattern: SamplingPattern, r: int) -> ConstraintMatrix:
    """Derive the constraint columns of a pattern at rank r.

    A data column with fewer than r+1 observations contributes no columns.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    columns, origins = [], []
    for j, rows in enumerate(pattern.columns):
        base = rows[:r]
        fresh = [base + (extra,) for extra in rows[r:]]
        columns += fresh
        origins += [j] * len(fresh)
    return ConstraintMatrix(pattern.d, r, tuple(columns), tuple(origins))


def remove_entries(pattern: SamplingPattern, removal: RemovalSet) -> SamplingPattern:
    """Delete the removal cells from the pattern; every cell must be observed.
    An empty removal returns the pattern itself; otherwise only the columns
    the removal touches are rebuilt."""
    cells = removal.cells
    if not cells:
        return pattern
    _check_observed(pattern, cells)
    columns = list(pattern.columns)
    for j in {j for _, j in cells}:
        columns[j] = tuple([i for i in columns[j] if (i, j) not in cells])
    return SamplingPattern(pattern.d, tuple(columns))


def _check_observed(pattern: SamplingPattern, cells: Iterable[Cell]) -> None:
    """ValueError unless every cell is observed; one off the grid would alias or raise IndexError."""
    missing = [(i, j) for i, j in cells if not (0 <= j < pattern.N and i in pattern.columns[j])]
    if missing:
        raise ValueError(f"removal contains unobserved cells: {sorted(missing)[:4]}")


def enumerate_removals(pattern: SamplingPattern, size: int) -> Iterator[RemovalSet]:
    """Stream all comb(|observed|, size) `size`-subsets of the observed cells,
    in lexicographic order; size 0 yields the one empty removal, without
    sorting the cells.  Raises ValueError unless 0 <= size <= |observed|."""
    if not 0 <= size <= pattern.size():
        raise ValueError(f"cannot remove {size} of {pattern.size()} observed cells")
    for cells in combinations(pattern.cells() if size else (), size):
        yield RemovalSet(frozenset(cells))


def serialize_pattern(pattern: SamplingPattern) -> str:
    """Canonical text form: `d N` header then one `row col` line per cell, ascending."""
    lines = [f"{pattern.d} {pattern.N}"]
    lines.extend(f"{i} {j}" for i, j in pattern.cells())
    return "\n".join(lines) + "\n"


def read_cell_lines(text: str, with_values: bool) -> tuple[int, int, dict[Cell, float | None]]:
    """Read the shared text format of pattern and observation files.

    A `d N` header comes first, then one `row col` line per cell, or one
    `row col value` line when `with_values`; `#` starts a comment line.
    Returns d, N and the cells in file order, each mapped to its value (None
    without values).  Bad dimensions, cells outside the grid, duplicate cells
    and non-finite values raise PatternFormatError.
    """
    header: tuple[int, int] | None = None
    entries: dict[Cell, float | None] = {}
    shape = "`row col value`" if with_values else "`row col`"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise PatternFormatError(f"line {lineno}: expected `d N` header")
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError as exc:
                raise PatternFormatError(f"line {lineno}: bad header {line!r}") from exc
            if header[0] <= 0 or header[1] <= 0:
                raise PatternFormatError(f"line {lineno}: dimensions must be positive")
            continue
        if len(fields) != (3 if with_values else 2):
            raise PatternFormatError(f"line {lineno}: expected {shape}")
        try:
            cell = (int(fields[0]), int(fields[1]))
            value = float(fields[2]) if with_values else None
        except ValueError as exc:
            raise PatternFormatError(f"line {lineno}: bad entry {line!r}") from exc
        d, N = header
        if not (0 <= cell[0] < d and 0 <= cell[1] < N):
            raise PatternFormatError(f"line {lineno}: cell {cell} outside a {d}x{N} grid")
        if cell in entries:
            raise PatternFormatError(f"line {lineno}: duplicate cell {cell}")
        if value is not None and not math.isfinite(value):
            raise PatternFormatError(f"line {lineno}: non-finite value {fields[2]!r}")
        entries[cell] = value
    if header is None:
        raise PatternFormatError("missing `d N` header line")
    return header[0], header[1], entries


def parse_pattern(text: str) -> SamplingPattern:
    """Parse the pattern text format (see `read_cell_lines`)."""
    d, N, entries = read_cell_lines(text, with_values=False)
    return SamplingPattern.from_cells(d, N, entries)


def load_pattern(path) -> SamplingPattern:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pattern(fh.read())
