"""Reference implementations the tests compare the library against, a
reader for the sweep CSV the library only writes, and a writer for the
observation format the library only reads."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from robustmc.bounds import SWEEP_HEADER, SweepRow
from robustmc.certify import CountCondition
from robustmc.pattern import Cell, ConstraintMatrix, SamplingPattern

# the enumeration oracle runs over blocks of 2**12 subsets
_BLOCK_BITS = 12
_SUBSET_SIZES = np.array([s.bit_count() for s in range(1 << _BLOCK_BITS)], dtype=np.int32)


def _row_cover(columns: Sequence[list[int]], width: int) -> np.ndarray:
    """cover[v, s] says whether subset s of the columns covers row v; built by doubling."""
    cover = np.zeros((width, 1 << len(columns)), dtype=bool)
    for i, rows in enumerate(columns):
        half = 1 << i
        cover[:, half : 2 * half] = cover[:, :half]
        cover[rows, half : 2 * half] = True
    return cover


def min_slack_exhaustive(cm: ConstraintMatrix, subset: Sequence[int], cond: CountCondition) -> int:
    """Enumeration oracle for min_slack; limited to 22 columns by design.

    The row covers of all subsets are built by doubling over the subset's
    rows renumbered 0..R-1: the first 12 columns enumerate inside a block of
    2**12 subsets, the remaining ones choose the block, so memory stays
    O(2**12 * R).
    """
    if not subset:
        raise ValueError("subset must be non-empty")
    n = len(subset)
    if n > 22:
        raise ValueError("exhaustive oracle limited to 22 columns")
    used_rows = sorted({row for i in subset for row in cm.columns[i]})
    position = {row: pos for pos, row in enumerate(used_rows)}
    columns = [[position[row] for row in cm.columns[i]] for i in subset]
    low = min(n, _BLOCK_BITS)
    low_cover = _row_cover(columns[:low], len(used_rows))
    high_cover = _row_cover(columns[low:], len(used_rows))
    sizes = _SUBSET_SIZES[: 1 << low]
    k, r = cond.k, cond.r
    best = None
    for high in range(1 << (n - low)):
        rows = (low_cover | high_cover[:, high : high + 1]).sum(axis=0, dtype=np.int32)
        values = k * rows - sizes - (high.bit_count() + k * r)
        value = int(values[1:].min() if high == 0 else values.min())  # S is nonempty
        if best is None or value < best:
            best = value
    return best


def parse_sweep_csv(text: str) -> list[SweepRow]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError("missing or malformed sweep header")
    rows = []
    for line in lines[1:]:
        r, g, l_min, portion, binding, feasible, premise_ok = line.split(",")
        rows.append(
            SweepRow(
                int(r),
                int(g),
                int(l_min),
                float(portion),
                binding,
                feasible == "true",
                premise_ok == "true",
            )
        )
    return rows


def serialize_observations(pattern: SamplingPattern, values: dict[Cell, float]) -> str:
    """Text form: `d N` header then one `row col value` line per cell, ascending.
    A missing or non-finite value raises ValueError."""
    lines = [f"{pattern.d} {pattern.N}"]
    for cell in pattern.cells():
        if cell not in values:
            raise ValueError(f"missing value for observed cell {cell}")
        value = float(values[cell])
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} for cell {cell}")
        lines.append(f"{cell[0]} {cell[1]} {value!r}")
    return "\n".join(lines) + "\n"
