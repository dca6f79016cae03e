import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmc.pattern import (
    NoiseBudget,
    PatternFormatError,
    RemovalSet,
    SamplingPattern,
    build_constraint_matrix,
    enumerate_removals,
    parse_pattern,
    remove_entries,
    serialize_pattern,
)
from robustmc.sim import sample_pattern


def pat(d, N, cells):
    return SamplingPattern.from_cells(d, N, cells)


class TestConstraintMatrix:
    def test_single_full_column_rank_one(self):
        cm = build_constraint_matrix(pat(3, 1, [(0, 0), (1, 0), (2, 0)]), r=1)
        assert cm.columns == ((0, 1), (0, 2))
        assert cm.origins == (0, 0)

    def test_three_observations_rank_two(self):
        cm = build_constraint_matrix(pat(5, 1, [(0, 0), (2, 0), (4, 0)]), r=2)
        assert cm.columns == ((0, 2, 4),)

    def test_column_with_exactly_r_observations_contributes_nothing(self):
        cm = build_constraint_matrix(pat(4, 1, [(0, 0), (1, 0)]), r=2)
        assert len(cm) == 0

    def test_columns_have_r_plus_one_ones_and_shared_base(self):
        p = pat(6, 3, [(i, j) for j in range(3) for i in range(j, 6)])
        for r in (1, 2, 3):
            cm = build_constraint_matrix(p, r)
            for idx, rows in enumerate(cm.columns):
                assert len(rows) == r + 1
                origin = cm.origins[idx]
                base = p.columns[origin][:r]
                assert set(base) <= set(rows)
                assert all((i, origin) in set(p.cells()) for i in rows)

    def test_extras_enumerate_rows_beyond_base(self):
        p = pat(5, 2, [(0, 0), (1, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1)])
        cm = build_constraint_matrix(p, 2)
        for origin in range(2):
            base = set(p.columns[origin][:2])
            extras = [
                (set(rows) - base).pop() for rows, o in zip(cm.columns, cm.origins) if o == origin
            ]
            assert tuple(extras) == p.columns[origin][2:]

    def test_per_origin_count(self):
        p = pat(4, 2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
        cm = build_constraint_matrix(p, 2)
        assert cm.origins.count(0) == 2  # l=4, r=2
        assert cm.origins.count(1) == 0


class TestRemoval:
    def test_remove_nothing_is_identity(self):
        p = pat(2, 2, [(0, 0), (1, 1)])
        assert remove_entries(p, RemovalSet(frozenset())) == p

    def test_remove_nothing_returns_the_pattern_itself(self):
        p = SamplingPattern.full(3, 4)
        assert remove_entries(p, RemovalSet(frozenset())) is p

    def test_remove_one_cell(self):
        p = SamplingPattern.full(2, 2)
        q = remove_entries(p, RemovalSet(frozenset({(0, 0)})))
        assert len(set(q.cells())) == 3
        assert (0, 0) not in set(q.cells())
        assert (q.d, q.N) == (2, 2)

    def test_remove_unobserved_cell_rejected(self):
        with pytest.raises(ValueError):
            remove_entries(pat(2, 2, [(0, 0)]), RemovalSet(frozenset({(1, 1)})))
        # cells outside the grid, where indexing a column would wrap around
        # or raise IndexError
        for cell in [(0, -1), (0, 2), (-1, 0), (2, 0)]:
            with pytest.raises(ValueError, match="unobserved cells"):
                remove_entries(SamplingPattern.full(2, 2), RemovalSet(frozenset({cell})))

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_disjoint_removals_compose(self, data):
        d, N = 4, 3
        cells = data.draw(
            st.sets(st.tuples(st.integers(0, d - 1), st.integers(0, N - 1)), min_size=2)
        )
        p = SamplingPattern.from_cells(d, N, cells)
        split = data.draw(st.integers(0, len(cells)))
        ordered = sorted(cells)
        e1, e2 = frozenset(ordered[:split]), frozenset(ordered[split:])
        joint = remove_entries(p, RemovalSet(e1 | e2))
        stepwise = remove_entries(remove_entries(p, RemovalSet(e1)), RemovalSet(e2))
        assert joint == stepwise


def _random_pattern(rng, d, N):
    return SamplingPattern.from_cells(
        d, N, [(i, j) for j in range(N) for i in rng.sample(range(d), rng.randint(0, d))]
    )


class TestRemovalDelta:
    """`remove_entries` matches a fresh pattern."""

    @pytest.mark.parametrize("seed", range(5))
    def test_remove_entries_equals_a_fresh_pattern(self, seed):
        rng = random.Random(seed)
        p = _random_pattern(rng, 6, 5)
        cells = p.cells()
        for size in (1, 2, 3):
            removal = frozenset(rng.sample(cells, min(size, len(cells))))
            q = remove_entries(p, RemovalSet(removal))
            fresh = SamplingPattern.from_cells(p.d, p.N, set(p.cells()) - removal)
            assert q == fresh
            assert hash(q) == hash(fresh)
            assert all(q.columns[j] == fresh.columns[j] for j in range(p.N))

    def test_remove_entries_leaves_the_parent_intact(self):
        p = SamplingPattern.full(3, 2)
        remove_entries(p, RemovalSet(frozenset({(0, 0)})))
        assert p.columns[0] == (0, 1, 2) and len(set(p.cells())) == 6


class TestEnumeration:
    def test_global_one_of_four(self):
        p = pat(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        sets = list(enumerate_removals(p, 1))
        assert len(sets) == 4
        assert len({s.cells for s in sets}) == 4

    def test_global_zero_single_empty(self):
        p = pat(2, 1, [(0, 0), (1, 0)])
        sets = list(enumerate_removals(p, 0))
        assert sets == [RemovalSet(frozenset())]

    @given(
        st.sets(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=12),
        st.integers(-1, 3),
    )
    @settings(deadline=None, max_examples=60)
    def test_global_count_is_binomial(self, cells, s):
        p = SamplingPattern.from_cells(4, 3, cells)
        if not 0 <= s <= len(cells):
            with pytest.raises(ValueError):
                list(enumerate_removals(p, s))
            return
        got = list(enumerate_removals(p, s))
        assert len(got) == math.comb(len(cells), s)
        assert [removal.sorted_cells() for removal in got] == list(combinations(p.cells(), s))


class TestTextFormat:
    def test_round_trip_is_byte_stable(self):
        p = pat(3, 4, [(0, 0), (2, 1), (1, 1), (0, 3)])
        text = serialize_pattern(p)
        assert parse_pattern(text) == p
        assert serialize_pattern(parse_pattern(text)) == text

    def test_comments_and_blank_lines_ignored(self):
        text = "# mask\n3 2\n\n0 0\n# middle\n2 1\n"
        p = parse_pattern(text)
        assert p.cells() == ((0, 0), (2, 1))

    def test_duplicate_cell_rejected(self):
        with pytest.raises(PatternFormatError):
            parse_pattern("2 2\n0 0\n0 0\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(PatternFormatError):
            parse_pattern("2 2\n5 0\n")

    def test_missing_header_rejected(self):
        with pytest.raises(PatternFormatError):
            parse_pattern("# nothing\n")


class TestValidation:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            NoiseBudget.global_noise(-1)

    def test_unknown_budget_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown budget kind 'rowwise'"):
            NoiseBudget("rowwise", 1)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="rank must be positive"):
            build_constraint_matrix(SamplingPattern.full(3, 3), 0)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SamplingPattern.from_cells(0, 2, [])
        with pytest.raises(ValueError, match="outside a 2x2 grid"):
            SamplingPattern.from_cells(2, 2, [(5, 0)])

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError):
            SamplingPattern.from_cells(2, 2, [(0, 0), (0, 0)])

    @pytest.mark.parametrize(
        "d, columns",
        [
            (3, ((0, 1), (2, 1))),  # unsorted column
            (3, ((0, 1), (1, 1))),  # repeated row
            (3, ((-1, 0),)),        # row below 0
            (3, ((0, 3),)),         # row at d
            (3, ()),                # no columns
            (0, ((),)),             # d = 0
            (-2, ((),)),            # d < 0
        ],
    )
    def test_bad_columns_rejected(self, d, columns):
        with pytest.raises(ValueError):
            SamplingPattern(d, columns)


class TestColumns:
    def test_list_columns_equal_the_tuple_form(self):
        p = SamplingPattern(3, [[0, 2], [], [1]])
        q = SamplingPattern(3, ((0, 2), (), (1,)))
        assert p == q and hash(p) == hash(q)
        assert p.columns == ((0, 2), (), (1,)) and p.N == 3 and p.size() == 3
        assert p.cells() == ((0, 0), (1, 2), (2, 0))

    @pytest.mark.parametrize("seed", range(4))
    def test_from_cells_rebuilds_the_pattern(self, seed):
        for p in (
            sample_pattern(7, 9, 1 + seed, np.random.default_rng(seed)),
            _random_pattern(random.Random(seed), 6, 5),
        ):
            q = SamplingPattern.from_cells(p.d, p.N, p.cells())
            assert q == p and hash(q) == hash(p)
            assert q.size() == len(p.cells())
