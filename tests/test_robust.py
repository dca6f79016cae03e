import random

import numpy as np
import pytest

from robustmc import certify, numeric
from robustmc.pattern import (
    NoiseBudget,
    PatternFormatError,
    SamplingPattern,
    build_constraint_matrix,
    enumerate_removals,
    remove_entries,
)
from robustmc.robust import (
    NoSupportFoundError,
    RobustOutcome,
    identify_noise_support,
    parse_observations,
    serialize_observations,
    verify_finite,
    verify_unique,
)


def random_pattern(rng, d, N, r):
    """Random pattern with every column observed in at least r rows."""
    cells = []
    for j in range(N):
        l = rng.randint(r, d)
        rows = rng.sample(range(d), l)
        cells.extend((i, j) for i in rows)
    return SamplingPattern.from_cells(d, N, cells)


class TestVerifyFinite:
    def test_zero_budget_equals_noiseless_certificate(self):
        rng = random.Random(31)
        for _ in range(60):
            d = rng.randint(3, 6)
            r = rng.randint(1, min(3, d - 1))
            N = rng.randint(1, 8)
            pattern = random_pattern(rng, d, N, r)
            direct = certify.find_finite_certificate(build_constraint_matrix(pattern, r), r)
            robustly = verify_finite(pattern, r, NoiseBudget.global_noise(0))
            expected = (
                RobustOutcome.FINITE
                if direct.verdict == certify.Verdict.FINITE
                else RobustOutcome.REFUTED
            )
            assert robustly.verdict == expected
            assert robustly.checked == 1

    def test_single_cell_removals_all_pass(self):
        pattern = SamplingPattern.full(3, 3)
        verdict = verify_finite(pattern, 1, NoiseBudget.global_noise(1))
        assert verdict.verdict == RobustOutcome.FINITE
        assert verdict.checked == 9

    def test_premise_violation_distinct_from_refutation(self):
        # column 0 has r+s-1 observations
        pattern = SamplingPattern.from_cells(
            3, 2, [(0, 0), (0, 1), (1, 1), (2, 1)]
        )
        verdict = verify_finite(pattern, 1, NoiseBudget.global_noise(1))
        assert verdict.verdict == RobustOutcome.REFUTED
        assert verdict.premise_violation
        assert verdict.failing_removal is None

    def test_combinatorial_refutation_carries_removal(self):
        # two columns observed only at rows {0,1}: the unique-extra structure dies
        # once the only distinguishing cell is removed
        pattern = SamplingPattern.from_cells(
            3, 2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
        )
        verdict = verify_finite(pattern, 1, NoiseBudget.global_noise(1))
        assert verdict.verdict == RobustOutcome.REFUTED
        assert not verdict.premise_violation
        assert verdict.failing_removal is not None
        # the reported removal re-checks as refuted
        sub = remove_entries(pattern, verdict.failing_removal)
        cert = certify.find_finite_certificate(build_constraint_matrix(sub, 1), 1)
        assert cert.verdict == certify.Verdict.REFUTED

    def test_enumeration_cap_yields_indeterminate(self):
        pattern = SamplingPattern.full(3, 3)
        verdict = verify_finite(pattern, 1, NoiseBudget.global_noise(1), enumeration_cap=5)
        assert verdict.verdict == RobustOutcome.INDETERMINATE
        assert "cap" in verdict.reason

    def test_per_column_removals_can_erase_a_row(self):
        # the per-column quantifier admits coordinated removals that empty an
        # entire row; the first lexicographic removal does exactly that, and a
        # pattern with an empty row is never finitely completable
        pattern = SamplingPattern.full(3, 3)
        verdict = verify_finite(pattern, 1, NoiseBudget.per_column(0))
        assert verdict.verdict == RobustOutcome.REFUTED
        assert verdict.checked == 1
        assert verdict.failing_removal.cells == frozenset({(0, 0), (0, 1), (0, 2)})

    def test_per_column_refutes_without_enumerating(self):
        # 8**30 per-column removals, far past the enumeration cap; the first
        # one erases row 0 and is decided directly
        pattern = SamplingPattern.full(8, 30)
        verdict = verify_finite(pattern, 1, NoiseBudget.per_column(0))
        assert verdict.verdict == RobustOutcome.REFUTED
        assert verdict.checked == 1
        assert verdict.failing_removal.cells == frozenset((0, j) for j in range(30))


class TestVerifyUnique:
    def test_full_pattern_uniquely_completable(self):
        verdict = verify_unique(SamplingPattern.full(3, 4), 1, NoiseBudget.global_noise(0))
        assert verdict.verdict == RobustOutcome.UNIQUE
        assert verdict.checked == 12  # removals of size s+1 = 1

    def test_per_column_premise_boundary(self):
        # l_i = r + g violates the r+g+1 premise
        pattern = SamplingPattern.from_cells(4, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        verdict = verify_unique(pattern, 1, NoiseBudget.per_column(1))
        assert verdict.verdict == RobustOutcome.REFUTED
        assert verdict.premise_violation

    def test_unique_implies_finite_at_matching_removals(self):
        rng = random.Random(77)
        for _ in range(12):
            pattern = random_pattern(rng, 4, 8, 1)
            s = 0
            uniq = verify_unique(pattern, 1, NoiseBudget.global_noise(s))
            if uniq.verdict != RobustOutcome.UNIQUE:
                continue
            fin = verify_finite(pattern, 1, NoiseBudget.global_noise(s + 1))
            assert fin.verdict == RobustOutcome.FINITE

    def test_per_column_unique_and_finite_agree_on_refutation(self):
        # both per-column checks quantify over the same g+1 removals, so the
        # row-erasing refutation shows up identically
        pattern = SamplingPattern.full(3, 4)
        uniq = verify_unique(pattern, 1, NoiseBudget.per_column(0))
        fin = verify_finite(pattern, 1, NoiseBudget.per_column(0))
        assert uniq.verdict == RobustOutcome.REFUTED
        assert fin.verdict == RobustOutcome.REFUTED
        assert uniq.failing_removal == fin.failing_removal

    def test_per_column_refutation_is_the_first_enumerated_failure(self):
        rng = random.Random(190)
        for _ in range(40):
            r, g = rng.randint(1, 2), rng.randint(0, 1)
            pattern = random_pattern(rng, 5, rng.randint(1, 6), r + g + 1)
            budget = NoiseBudget.per_column(g)
            for verifier, find in (
                (verify_finite, certify.find_finite_certificate),
                (verify_unique, certify.find_unique_certificate),
            ):
                verdict = verifier(pattern, r, budget)
                first_failure = next(
                    removal
                    for removal in enumerate_removals(pattern, budget, extra=1)
                    if find(build_constraint_matrix(remove_entries(pattern, removal), r), r).verdict
                    == certify.Verdict.REFUTED
                )
                assert verdict.verdict == RobustOutcome.REFUTED
                assert verdict.checked == 1
                assert verdict.failing_removal == first_failure


class TestGMonotonicity:
    def test_growing_g_never_rescues_a_refutation(self):
        rng = random.Random(5)
        for _ in range(10):
            pattern = random_pattern(rng, 4, 5, 3)
            previous = None
            for g in (0, 1):
                counts = pattern.column_counts()
                if min(counts) < 1 + g + 1 + 1:
                    break
                verdict = verify_finite(pattern, 1, NoiseBudget.per_column(g))
                if previous == RobustOutcome.REFUTED:
                    assert verdict.verdict != RobustOutcome.FINITE
                previous = verdict.verdict


class TestIdentify:
    def test_noiseless_returns_empty(self):
        inst = numeric.generate_instance(6, 12, 2, NoiseBudget.global_noise(0), seed=21)
        support = identify_noise_support(inst.observations(), inst.pattern, 2, 2)
        assert support == frozenset()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_support_recovered(self, seed):
        inst = numeric.generate_instance(
            8, 24, 2, NoiseBudget.global_noise(2), planted=True, seed=seed
        )
        support = identify_noise_support(inst.observations(), inst.pattern, 2, 2, 1e-6)
        assert support == inst.noise_support()

    @pytest.mark.parametrize("seed", [100, 101, 102, 103])
    def test_excess_noise_raises(self, seed):
        inst = numeric.generate_instance(
            8, 24, 2, NoiseBudget.global_noise(3), planted=True, seed=seed
        )
        with pytest.raises(NoSupportFoundError):
            identify_noise_support(inst.observations(), inst.pattern, 2, 2, 1e-6)

    def test_permutation_equivariance(self):
        inst = numeric.generate_instance(
            6, 10, 2, NoiseBudget.global_noise(1), planted=True, seed=17
        )
        obs = inst.observations()
        support = identify_noise_support(obs, inst.pattern, 2, 1, 1e-6)
        rng = np.random.default_rng(4)
        prow = rng.permutation(6)
        pcol = rng.permutation(10)
        perm_obs = {(int(prow[i]), int(pcol[j])): v for (i, j), v in obs.items()}
        perm_pattern = SamplingPattern(6, 10, frozenset(perm_obs))
        perm_support = identify_noise_support(perm_obs, perm_pattern, 2, 1, 1e-6)
        assert perm_support == {(int(prow[i]), int(pcol[j])) for (i, j) in support}

    def test_missing_value_rejected(self):
        pattern = SamplingPattern.full(2, 2)
        with pytest.raises(ValueError):
            identify_noise_support({(0, 0): 1.0}, pattern, 1, 0)


class TestObservationFormat:
    def test_round_trip(self):
        inst = numeric.generate_instance(4, 5, 2, NoiseBudget.global_noise(2), seed=2)
        obs = inst.observations()
        text = serialize_observations(inst.pattern, obs)
        pattern2, obs2 = parse_observations(text)
        assert pattern2 == inst.pattern
        assert obs2 == pytest.approx(obs)
        assert serialize_observations(pattern2, obs2) == text

    def test_malformed_line_rejected(self):
        with pytest.raises(PatternFormatError):
            parse_observations("2 2\n0 0\n")

    def test_duplicate_rejected(self):
        with pytest.raises(PatternFormatError):
            parse_observations("2 2\n0 0 1.5\n0 0 2.5\n")

    @pytest.mark.parametrize(
        "text",
        ["2 2\n5 0 1.5\n", "2 2\n0 -1 1.5\n", "0 2\n", "2 -3\n0 0 1.5\n",
         "2 2\n0 0 nan\n", "2 2\n1 1 -inf\n"],
    )
    def test_bad_cell_header_or_value_rejected(self, text):
        with pytest.raises(PatternFormatError):
            parse_observations(text)
