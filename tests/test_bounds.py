import math
from itertools import product

import pytest

from robustmc.bounds import (
    BoundQuery,
    NOISELESS_SENTINEL,
    coupled_columnwise_bound,
    sample_bound,
    sample_condition,
    sweep,
    sweep_to_csv,
)
from robustmc.pattern import NoiseBudget

from oracles import parse_sweep_csv


def q(d, r, eps, N=None, budget=None):
    return BoundQuery(d, r, eps, N, budget)


class TestNoiseless:
    def test_reference_point_log_bound(self):
        # independent recomputation: 12*ln(600/0.01) + 12 = 144.025..., so 145
        direct = 12 * math.log(600 / 0.01) + 12
        assert math.floor(direct) + 1 == 145
        res = sample_bound(q(600, 10, 0.01))
        assert res.l_min == 145
        assert res.binding == "12log(d/eps)+12"
        assert res.feasible

    def test_reference_point_rank_bound(self):
        res = sample_bound(q(600, 100, 0.01))
        assert res.l_min == 201
        assert res.binding == "2r"

    def test_smaller_epsilon_needs_no_fewer_samples(self):
        tight = sample_bound(q(600, 10, 0.001)).l_min
        loose = sample_bound(q(600, 10, 0.01)).l_min
        assert tight >= loose

    def test_strictness_at_integral_threshold(self):
        # 2r is integral, so l must exceed it by a full step
        res = sample_bound(q(600, 100, 0.5))
        assert res.l_min == 201

    def test_premise_flagged_not_hidden(self):
        res = sample_bound(q(10, 5, 0.1))
        assert not res.premise_ok
        assert res.l_min > 0

    def test_n_requirements(self):
        res = sample_bound(q(600, 10, 0.01, N=60000))
        assert res.finite_N_ok and res.unique_N_ok
        res = sample_bound(q(600, 10, 0.01, N=100))
        assert not res.finite_N_ok


class TestGlobalNoise:
    def test_self_consistent_at_boundary(self):
        query = q(600, 5, 0.01, budget=NoiseBudget.global_noise(2))
        res = sample_bound(query)
        assert sample_condition(res.l_min, query)
        assert not sample_condition(res.l_min - 1, query)

    def test_zero_noise_dominates_noiseless(self):
        for r in (2, 5, 10):
            noisy = sample_bound(q(600, r, 0.01, budget=NoiseBudget.global_noise(0))).l_min
            clean = sample_bound(q(600, r, 0.01)).l_min
            assert noisy >= clean

    def test_nondecreasing_in_s(self):
        values = [
            sample_bound(q(600, 5, 0.01, budget=NoiseBudget.global_noise(s))).l_min
            for s in range(5)
        ]
        assert values == sorted(values)


class TestColumnwiseNoise:
    def test_reference_point(self):
        # scan oracle recomputed directly: smallest l above 24 with
        # l - 24*ln(l/2) > 12*(ln(60000) + 2)
        rhs = 12 * (math.log(600 / 0.01) + 2)
        l = 25
        while not (l - 24 * math.log(l / 2) > rhs):
            l += 1
        assert l == 275
        query = q(600, 10, 0.01, budget=NoiseBudget.per_column(1))
        assert sample_bound(query).l_min == 275
        assert sample_condition(275, query)
        assert not sample_condition(274, query)

    def test_zero_g_dominates_noiseless(self):
        for r in (2, 5, 10):
            noisy = sample_bound(
                q(600, r, 0.01, budget=NoiseBudget.per_column(0))
            ).l_min
            clean = sample_bound(q(600, r, 0.01)).l_min
            assert noisy >= clean

    def test_nondecreasing_in_g(self):
        values = [
            sample_bound(q(600, 10, 0.01, budget=NoiseBudget.per_column(g))).l_min
            for g in range(4)
        ]
        assert values == sorted(values)

    def test_lhs_increasing_on_scan_path(self):
        g = 2
        m = g + 1
        lhs = lambda l: l - 12 * m * math.log(l / m)
        start = math.floor(12 * m) + 1
        values = [lhs(l) for l in range(start, start + 200)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestSearch:
    def test_matches_an_upward_scan(self):
        # the bound is the first l above 12m that satisfies the inequality
        kinds = (
            (NoiseBudget.global_noise, lambda r, a: r + a + 1),
            (NoiseBudget.per_column, lambda r, a: a + 1),
        )
        grid = product(kinds, (10, 600, 10**5), (0.5, 1e-3), (1, 7), (0, 3))
        for (budget, m), d, eps, r, a in grid:
            query = q(d, r, eps, budget=budget(a))
            l = 12 * m(r, a) + 1
            while not sample_condition(l, query):
                l += 1
            assert sample_bound(query).l_min == l, query

    def test_answers_beyond_ten_million(self):
        query = q(6_000_000, 1_000_000, 0.01, budget=NoiseBudget.per_column(1_000_000))
        res = sample_bound(query)
        assert res.l_min > 10_000_000
        assert not res.feasible
        assert sample_condition(res.l_min, query)
        assert not sample_condition(res.l_min - 1, query)


class TestCoupled:
    def test_ratio_bounded_and_nonincreasing(self):
        results = [coupled_columnwise_bound(d, 0.01) for d in (100, 1000, 10000)]
        ratios = [r.ratio for r in results]
        assert max(ratios) / min(ratios) <= 50
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_explicit_rank_override(self):
        res = coupled_columnwise_bound(10000, 0.01, r=10)
        assert res.r == 10
        assert res.g == math.ceil(res.noiseless_l_min / 10)


class TestSweep:
    def test_reference_configuration(self):
        rows = sweep(600, 60000, 0.01, range(1, 101), [NOISELESS_SENTINEL, 1, 2])
        assert len(rows) == 300
        # (g, r) ascending
        keys = [(row.g, row.r) for row in rows]
        assert keys == sorted(keys)
        by_g = {g: {row.r: row for row in rows if row.g == g} for g in (-1, 1, 2)}
        for r in range(1, 101):
            assert by_g[2][r].portion >= by_g[1][r].portion >= by_g[-1][r].portion
        for row in rows:
            if row.feasible:
                assert 0 < row.portion <= 1
            assert row.premise_ok  # d/6 = 100 covers every r in the sweep

    def test_rank_branch_monotone_tail(self):
        rows = [row for row in sweep(600, 60000, 0.01, range(1, 101), [-1]) if row.binding == "2r"]
        values = [row.l_min for row in sorted(rows, key=lambda row: row.r)]
        assert values == sorted(values)

    def test_csv_round_trip(self):
        rows = sweep(60, 600, 0.05, range(1, 4), [-1, 1])
        text = sweep_to_csv(rows)
        parsed = parse_sweep_csv(text)
        assert sweep_to_csv(parsed) == text  # byte-stable after one round
        for got, want in zip(parsed, rows):
            assert (got.r, got.g, got.l_min, got.binding) == (
                want.r, want.g, want.l_min, want.binding,
            )
            assert got.portion == pytest.approx(want.portion, abs=1e-6)
        assert text.splitlines()[0] == "r,g,l_min,portion,binding,feasible,premise_ok"

    def test_premise_violations_emitted_flagged(self):
        rows = sweep(30, 100, 0.1, range(1, 10), [-1])
        flagged = [row for row in rows if not row.premise_ok]
        assert flagged  # r > 5 violates 6r <= 30
        assert all(row.l_min > 0 for row in flagged)


class TestValidation:
    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            BoundQuery(10, 1, 1.5)
        with pytest.raises(ValueError):
            BoundQuery(10, 1, 0.0)

    @pytest.mark.parametrize("d,r,N", [(0, 1, None), (5, 0, None), (5, 1, 0)])
    def test_nonpositive_dimensions_rejected(self, d, r, N):
        with pytest.raises(ValueError):
            BoundQuery(d, r, 0.1, N=N)

    @pytest.mark.parametrize("text", ["", "r,g,l_min\n1,-1,145\n"])
    def test_malformed_sweep_csv_rejected(self, text):
        with pytest.raises(ValueError, match="sweep header"):
            parse_sweep_csv(text)

    def test_self_consistency_property_grid(self):
        for d in (60, 300):
            for r in (2, 5):
                for s in (0, 2):
                    query = q(d, r, 0.05, budget=NoiseBudget.global_noise(s))
                    res = sample_bound(query)
                    assert sample_condition(res.l_min, query)
                    assert not sample_condition(res.l_min - 1, query)
                for g in (0, 2):
                    query = q(d, r, 0.05, budget=NoiseBudget.per_column(g))
                    res = sample_bound(query)
                    assert sample_condition(res.l_min, query)
                    assert not sample_condition(res.l_min - 1, query)
