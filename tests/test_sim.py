import math

import numpy as np
import pytest

from robustmc.bounds import BoundQuery, sample_bound
from robustmc.pattern import NoiseBudget, SamplingPattern
from robustmc import robust, sim
from robustmc.sim import (
    DEFAULT_TRIAL_ENUMERATION_CAP,
    TrialConfig,
    TrialOutcome,
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

    def test_rank_level_refuted_unsampled(self, monkeypatch):
        # l = r observes no constraint column: every trial the verifier would
        # run is Refuted with the premise met, so none is sampled
        budget = NoiseBudget.global_noise(0)
        for seed in range(3):
            pattern = sample_pattern(8, 40, 2, np.random.default_rng([seed, 0]))
            verdict = robust.verify_finite(pattern, 2, budget)
            assert verdict.verdict == robust.RobustOutcome.REFUTED and not verdict.premise_violation

        def unsampled(*args):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(sim, "sample_pattern", unsampled)
        cfg = TrialConfig(20, 600, 2, 2, budget, trials=1000, seed=0)
        assert estimate_pass_probability(cfg) == TrialOutcome(0, 1000, 0.0, *wilson_interval(0, 1000))

    def test_full_rank_level_still_sampled(self):
        # l = r = d observes every cell, and a witness of r*(d-r) = 0 columns passes
        cfg = TrialConfig(3, 8, 3, 3, NoiseBudget.global_noise(0), trials=5, seed=0)
        assert estimate_pass_probability(cfg).pass_count == 5

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
        pattern = sample_pattern(7, 5, 3, np.random.default_rng(3))
        assert [len(rows) for rows in pattern.columns] == [3] * 5

    def test_sampling_stream_is_pinned(self):
        # the rows of one rng.choice per column, replayed from raw 32-bit words;
        # any change to the draws changes every simulate result, so it must
        # show here first
        pattern = sample_pattern(6, 4, 3, np.random.default_rng(0))
        assert sorted(set(pattern.cells())) == [
            (0, 1), (2, 2), (2, 3), (3, 0), (3, 2), (3, 3),
            (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 3),
        ]


def _choice_per_column(d, N, l, rng):
    """Reference sampler: one rng.choice(d, size=l, replace=False) per column."""
    return frozenset(
        (i, j) for j in range(N) for i in rng.choice(d, size=l, replace=False).tolist()
    )


# the benchmark's shapes, then l = d, l = 1, l = 0, a long column, the largest
# d with 32-bit draws, and a d where numpy rejects about a quarter of the words
CHOICE_SHAPES = [(20, 600, l) for l in range(4, 21)] + [
    (8, 16, 3), (8, 32, 5), (32, 93, 12), (9, 7, 9), (9, 7, 1), (9, 7, 0),
    (10000, 2, 400), (2**32, 5, 3), (3 * 2**30, 40, 2),
]


class TestSampler:
    @pytest.mark.parametrize("d, N, l", CHOICE_SHAPES)
    def test_matches_choice_per_column(self, d, N, l):
        for seed in range(4):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert set(sample_pattern(d, N, l, fast).cells()) == _choice_per_column(d, N, l, slow)
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("d, N, l", CHOICE_SHAPES)
    def test_equals_the_checked_pattern(self, d, N, l):
        # the sampler builds its pattern without the public constructor's
        # per-column check; the same columns passed through it give an equal
        # pattern with an equal hash
        pattern = sample_pattern(d, N, l, np.random.default_rng(0))
        checked = SamplingPattern(d, pattern.columns)
        assert pattern == checked and hash(pattern) == hash(checked)
        assert type(pattern.columns) is tuple and all(type(rows) is tuple for rows in pattern.columns)

    def test_rejected_words_are_redrawn(self):
        # one word per bound would leave the generator where this plain draw
        # does; at d = 3 * 2**30 some words are rejected and redrawn
        d, N, l = 3 * 2**30, 40, 2
        rng, plain = np.random.default_rng(0), np.random.default_rng(0)
        sample_pattern(d, N, l, rng)
        plain.integers(0, 2**32, size=N * (2 * l - 1), dtype=np.uint32)
        assert rng.bit_generator.state != plain.bit_generator.state

    def test_distinct_rows_where_choice_shuffles_instead(self):
        # l > d // 50 with d > 10,000: choice shuffles a range, Floyd still runs here
        pattern = sample_pattern(10_001, 3, 201, np.random.default_rng(0))
        assert [len(rows) for rows in pattern.columns] == [201] * 3

    @pytest.mark.parametrize("d, l", [(5, 6), (5, -1), (2**32 + 1, 2)])
    def test_out_of_range_rejected(self, d, l):
        with pytest.raises(ValueError):
            sample_pattern(d, 3, l, np.random.default_rng(0))

    @pytest.mark.parametrize("d, N, l", [(5, 0, 2), (0, 3, 0)])
    def test_empty_grid_rejected(self, d, N, l):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            sample_pattern(d, N, l, np.random.default_rng(0))


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
