import math

import pytest

from robustmc.bounds import BoundQuery, sample_bound
from robustmc.pattern import NoiseBudget
from robustmc.sim import (
    DEFAULT_TRIAL_ENUMERATION_CAP,
    TrialConfig,
    empirical_threshold,
    estimate_pass_probability,
    outcomes_to_csv,
    sample_pattern,
    wilson_interval,
)


class TestWilson:
    def test_interval_contains_estimate(self):
        lo, hi = wilson_interval(7, 10)
        assert lo <= 0.7 <= hi
        assert 0.0 <= lo < hi <= 1.0

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert 0.2 < hi < 0.35

    def test_narrower_with_more_trials(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1


class TestEstimate:
    def test_full_observation_always_passes(self):
        cfg = TrialConfig(5, 8, 2, 5, NoiseBudget.global_noise(0), trials=10, seed=0)
        outcome = estimate_pass_probability(cfg)
        assert outcome.point_estimate == 1.0
        assert outcome.pass_count == 10

    def test_too_few_observations_never_pass(self):
        cfg = TrialConfig(6, 8, 3, 2, NoiseBudget.global_noise(0), trials=10, seed=0)
        outcome = estimate_pass_probability(cfg)
        assert outcome.point_estimate == 0.0
        assert outcome.premise_failures == 10

    def test_deterministic_per_seed(self):
        cfg = TrialConfig(8, 10, 2, 4, NoiseBudget.global_noise(0), trials=25, seed=42)
        assert estimate_pass_probability(cfg) == estimate_pass_probability(cfg)

    def test_indeterminate_counts_as_failure(self):
        # C(900, 2) = 404,550 two-cell removals exceed the trial cap, so every
        # trial is Indeterminate, decided by counting alone
        cfg = TrialConfig(30, 30, 1, 30, NoiseBudget.global_noise(2), trials=5, seed=1)
        assert math.comb(30 * 30, 2) > DEFAULT_TRIAL_ENUMERATION_CAP
        outcome = estimate_pass_probability(cfg)
        assert outcome.pass_count == 0
        assert outcome.indeterminate_count == 5

    def test_unique_target_decided_exactly(self):
        # a trial whose unique certificate needs the first witness re-chosen
        cfg = TrialConfig(
            8, 24, 2, 4, NoiseBudget.global_noise(0), trials=1, seed=10, target="unique"
        )
        outcome = estimate_pass_probability(cfg)
        assert outcome.indeterminate_count == 0
        assert outcome.pass_count == 1

    def test_unique_target(self):
        cfg = TrialConfig(
            3, 6, 1, 3, NoiseBudget.global_noise(0), trials=5, seed=7, target="unique"
        )
        outcome = estimate_pass_probability(cfg)
        assert outcome.pass_count == 5

    def test_sampled_patterns_have_exactly_l_rows_per_column(self):
        import numpy as np

        pattern = sample_pattern(7, 5, 3, np.random.default_rng(3))
        assert pattern.column_counts() == [3] * 5

    def test_sampling_stream_is_pinned(self):
        # one rng.choice per column; any change to the draws changes every
        # simulate result, so it must show here first
        import numpy as np

        pattern = sample_pattern(6, 4, 3, np.random.default_rng(0))
        assert sorted(pattern.observed) == [
            (0, 1), (2, 2), (2, 3), (3, 0), (3, 2), (3, 3),
            (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 3),
        ]


class TestThreshold:
    def test_threshold_at_most_full_observation(self):
        result = empirical_threshold(
            8, 16, 2, NoiseBudget.global_noise(0), epsilon=0.1, trials=40, seed=3
        )
        theory = sample_bound(BoundQuery(8, 2, 0.1, 16)).l_min
        assert result.theory_l_min == theory
        assert result.threshold is not None
        assert result.threshold <= min(8, theory)

    def test_rows_cover_scan_up_to_threshold(self):
        result = empirical_threshold(
            8, 16, 2, NoiseBudget.global_noise(0), epsilon=0.1, trials=30, seed=5
        )
        ls = [l for l, _ in result.rows]
        assert ls == list(range(2, result.threshold + 1))

    def test_reproducible(self):
        a = empirical_threshold(6, 10, 2, NoiseBudget.global_noise(0), 0.1, 20, seed=9)
        b = empirical_threshold(6, 10, 2, NoiseBudget.global_noise(0), 0.1, 20, seed=9)
        assert a == b

    def test_csv_shape(self):
        result = empirical_threshold(6, 10, 2, NoiseBudget.global_noise(0), 0.1, 10, seed=2)
        text = outcomes_to_csv(result.rows, result.theory_l_min)
        lines = text.strip().splitlines()
        assert lines[0] == "l,pass,trials,estimate,ci_lo,ci_hi,theory_lmin"
        assert len(lines) == len(result.rows) + 1


class TestMonotonicity:
    def test_pass_rate_nondecreasing_in_l_within_intervals(self):
        outcomes = []
        for l in range(2, 11):
            cfg = TrialConfig(10, 20, 2, l, NoiseBudget.global_noise(0), trials=100, seed=14 + l)
            outcomes.append(estimate_pass_probability(cfg))
        for i in range(len(outcomes)):
            for j in range(i + 1, len(outcomes)):
                assert outcomes[j].ci_hi >= outcomes[i].ci_lo


class TestValidation:
    def test_l_bounds_enforced(self):
        with pytest.raises(ValueError):
            TrialConfig(4, 4, 1, 5, NoiseBudget.global_noise(0), trials=1, seed=0)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one trial"):
            TrialConfig(4, 4, 1, 2, NoiseBudget.global_noise(0), trials=0, seed=0)

    def test_target_restricted(self):
        with pytest.raises(ValueError):
            TrialConfig(4, 4, 1, 2, NoiseBudget.global_noise(0), trials=1, seed=0, target="x")
