import pytest

from robustmc import numeric
from robustmc.bounds import BoundQuery, sample_bound, sample_condition
from robustmc.pattern import NoiseBudget, SamplingPattern
from robustmc.rank import estimate_rank_ceiling, probabilistic_rank_premise, rank_dichotomy
from robustmc.robust import RobustOutcome, verify_finite


class TestCeiling:
    def test_fully_observed_wide_pattern(self):
        pattern = SamplingPattern.full(4, 12)
        ceiling = estimate_rank_ceiling(pattern, NoiseBudget.global_noise(0))
        assert ceiling.r_star >= 3
        assert ceiling.exact
        # the scan records a verdict for every rank up to the stop
        assert set(ceiling.per_rank) == set(range(1, max(ceiling.per_rank) + 1))

    def test_recorded_verdicts_reproduce(self):
        pattern = SamplingPattern.full(3, 6)
        budget = NoiseBudget.global_noise(0)
        ceiling = estimate_rank_ceiling(pattern, budget)
        for r, stored in ceiling.per_rank.items():
            again = verify_finite(pattern, r, budget)
            assert again.verdict == stored.verdict

    def test_starved_column_limits_rank(self):
        # one nearly-empty column keeps the premise at r=2 from holding
        cells = [(i, j) for j in range(3) for i in range(4)] + [(0, 3)]
        pattern = SamplingPattern.from_cells(4, 4, cells)
        ceiling = estimate_rank_ceiling(pattern, NoiseBudget.global_noise(0))
        assert ceiling.r_star == 1
        assert ceiling.per_rank[2].premise_violation

    def test_hopeless_pattern_gives_zero(self):
        pattern = SamplingPattern.from_cells(3, 2, [(0, 0), (0, 1)])
        ceiling = estimate_rank_ceiling(pattern, NoiseBudget.global_noise(0))
        assert ceiling.r_star == 0

    def test_capped_scan_is_a_lower_bound(self):
        # 12 one-cell removals exceed a cap of 0, so rank 1 is Indeterminate
        ceiling = estimate_rank_ceiling(
            SamplingPattern.full(4, 3), NoiseBudget.global_noise(1), enumeration_cap=0
        )
        assert ceiling.r_star == 0
        assert ceiling.exact is False
        assert list(ceiling.per_rank) == [1]
        assert ceiling.per_rank[1].verdict == RobustOutcome.INDETERMINATE


class TestDichotomy:
    def _ceiling(self):
        return estimate_rank_ceiling(SamplingPattern.full(4, 12), NoiseBudget.global_noise(0))

    def test_alternative_one(self):
        report = rank_dichotomy(self._ceiling(), 2, completion_found=2)
        assert report.alternative == "i"
        assert "rank 2" in report.statement

    def test_alternative_two(self):
        report = rank_dichotomy(self._ceiling(), 2, completion_found=None)
        assert report.alternative == "ii"

    def test_nonpositive_r_prime_rejected(self):
        with pytest.raises(ValueError, match="r_prime must be positive"):
            rank_dichotomy(self._ceiling(), 0)

    def test_r_prime_above_ceiling_rejected(self):
        ceiling = self._ceiling()
        with pytest.raises(ValueError):
            rank_dichotomy(ceiling, ceiling.r_star + 1)

    def test_completion_rank_above_r_prime_rejected(self):
        with pytest.raises(ValueError):
            rank_dichotomy(self._ceiling(), 2, completion_found=3)


class TestProbabilisticPremise:
    def test_delegates_to_columnwise_bound(self):
        ok, result = probabilistic_rank_premise(600, 60000, 0.01, 1, 10)
        direct = sample_bound(
            BoundQuery(600, 10, 0.01, 60000, NoiseBudget.per_column(1))
        )
        assert result.l_min == direct.l_min
        assert ok

    def test_n_requirement(self):
        ok, _ = probabilistic_rank_premise(600, 100, 0.01, 1, 10)
        assert not ok  # 100 < 10 * 590

    def test_monotone_in_r_prime(self):
        values = [
            probabilistic_rank_premise(600, 60000, 0.01, 1, r)[1].l_min for r in (5, 20, 60)
        ]
        assert values == sorted(values)

    def test_explicit_l_checked(self):
        _, result = probabilistic_rank_premise(600, 60000, 0.01, 1, 10)
        ok_at_lmin, _ = probabilistic_rank_premise(600, 60000, 0.01, 1, 10, l=result.l_min)
        ok_below, _ = probabilistic_rank_premise(600, 60000, 0.01, 1, 10, l=result.l_min - 1)
        assert ok_at_lmin and not ok_below

    def test_tiny_l_below_twelve_m_rejected(self):
        # l - 12m*log(l/m) grows again as l falls below m = g+1 = 21, so l = 1..4
        # beat the threshold of a bound whose l_min is 1452
        query = BoundQuery(600, 1, 0.01, 60000, NoiseBudget.per_column(20))
        assert not any(sample_condition(l, query) for l in range(1, 5))
        ok, result = probabilistic_rank_premise(600, 60000, 0.01, g=20, r_prime=1, l=2)
        assert not ok
        assert (result.l_min, result.feasible) == (1452, False)


class TestPlantedDichotomy:
    def test_rank_three_data_separates_at_rank_two(self):
        hits = 0
        for seed in range(6):
            inst = numeric.generate_instance(6, 18, 3, seed=seed)
            obs = inst.observations()
            fit3 = numeric.rank_r_fit(obs, inst.pattern, 3, tolerance=1e-6)
            fit2 = numeric.rank_r_fit(obs, inst.pattern, 2, tolerance=1e-6)
            hits += fit3.residual <= 1e-6 and fit2.residual > 1e-3
        assert hits >= 5
        ceiling = estimate_rank_ceiling(
            SamplingPattern.full(6, 18), NoiseBudget.global_noise(0)
        )
        assert ceiling.r_star >= 3
