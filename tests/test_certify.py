import json
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmc.certify import (
    _PebbleGame,
    CountCondition,
    Verdict,
    find_finite_certificate,
    find_unique_certificate,
    min_slack,
    validate_witness,
)
from robustmc import certify
from robustmc.pattern import (
    NoiseBudget,
    RemovalSet,
    SamplingPattern,
    build_constraint_matrix,
    remove_entries,
)
from robustmc.robust import RobustOutcome, verify_finite
from robustmc.sim import sample_pattern

from oracles import min_slack_exhaustive


def random_candidate(rng, max_d=8, max_cols=12):
    """Random constraint matrix plus a random non-empty column subset."""
    while True:
        d = rng.randint(4, max_d)
        N = rng.randint(2, 6)
        r = rng.randint(1, 3)
        p_obs = rng.uniform(0.4, 0.95)
        cells = [(i, j) for i in range(d) for j in range(N) if rng.random() < p_obs]
        if not cells:
            continue
        cm = build_constraint_matrix(SamplingPattern.from_cells(d, N, cells), r)
        if len(cm) == 0:
            continue
        subset = rng.sample(range(len(cm)), rng.randint(1, min(max_cols, len(cm))))
        return cm, subset, r


class TestMinSlack:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_single_column_slack(self, r):
        # fully observed single column: one constraint column per extra row
        p = SamplingPattern.full(r + 2, 1)
        cm = build_constraint_matrix(p, r)
        cond = CountCondition.finite(r)
        assert min_slack(cm, [0], cond) == r - 1
        assert min_slack_exhaustive(cm, [0], cond) == r - 1

    def test_duplicate_columns_fail_unique_condition(self):
        # two columns with identical supports violate rows(S) >= |S| + r
        p = SamplingPattern.from_cells(3, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
        cm = build_constraint_matrix(p, 1)
        assert cm.columns == ((0, 1), (0, 1))
        cond = CountCondition.unique(1)
        assert min_slack(cm, [0, 1], cond) == -1
        assert min_slack_exhaustive(cm, [0, 1], cond) == -1

    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(2024)
        for _ in range(300):
            cm, subset, r = random_candidate(rng)
            for cond in (CountCondition.finite(r), CountCondition.unique(r)):
                assert min_slack(cm, subset, cond) == min_slack_exhaustive(cm, subset, cond)

    @pytest.mark.parametrize("size", range(13, 21))
    def test_agrees_with_exhaustive_oracle_on_wide_subsets(self, size):
        # most data columns repeat one of three row sets, so their constraint
        # columns share rows and some cannot be routed by the base flow
        rng = random.Random(100 + size)
        crowded = 0
        for _ in range(4):
            r = rng.randint(1, 3)
            d = rng.randint(r + 2, 8)
            shared = [rng.sample(range(d), rng.randint(r + 2, d)) for _ in range(3)]
            cells = [
                (i, j)
                for j in range(16)
                for i in (rng.choice(shared) if rng.random() < 0.7 else rng.sample(range(d), rng.randint(r + 1, d)))
            ]
            cm = build_constraint_matrix(SamplingPattern.from_cells(d, 16, cells), r)
            subset = rng.sample(range(len(cm)), size)
            for cond in (CountCondition.finite(r), CountCondition.unique(r)):
                expected = min_slack_exhaustive(cm, subset, cond)
                assert min_slack(cm, subset, cond) == expected
                assert min_slack(cm, subset[::-1], cond) == expected  # the scan order does not matter
                # below -k*r some S has k*rows(S) < |S|: a column left unrouted
                crowded += expected < -cond.k * r
        assert crowded > 0

    def test_research_scale_witness_is_a_basis(self):
        # d=32, N=93, l=12, r=3: the finite witness has 3*29 = 87 columns, the
        # count matroid's rank, so it is tight and any further column breaks it
        pattern = sample_pattern(32, 93, 12, np.random.default_rng(0))
        cm = build_constraint_matrix(pattern, 3)
        cond = CountCondition.finite(3)
        witness = find_finite_certificate(cm, 3).finite_witness
        assert len(witness) == 87
        assert min_slack(cm, witness, cond) == 0
        outside = [c for c in range(len(cm)) if c not in witness]
        for c in outside[:: len(outside) // 10][:10]:
            assert min_slack(cm, [*witness, c], cond) < 0
        # a column from an origin the witness leaves unused breaks only the slack
        assert validate_witness(cm, witness, cond)
        used = {cm.origins[c] for c in witness}
        extra = next(c for c in outside if cm.origins[c] not in used)
        assert not validate_witness(cm, [*witness, extra], cond)

    def test_monotone_nonincreasing_under_added_columns(self):
        rng = random.Random(7)
        for _ in range(60):
            cm, subset, r = random_candidate(rng)
            if len(subset) < 2:
                continue
            cond = CountCondition.finite(r)
            smaller = min_slack(cm, subset[:-1], cond)
            assert min_slack(cm, subset, cond) <= smaller

    def test_empty_subset_rejected(self):
        cm = build_constraint_matrix(SamplingPattern.full(3, 1), 1)
        with pytest.raises(ValueError):
            min_slack(cm, [], CountCondition.finite(1))

    def test_condition_denominator_restricted(self):
        with pytest.raises(ValueError):
            CountCondition(3, 2)

    def test_condition_rank_must_be_positive(self):
        with pytest.raises(ValueError, match="rank must be positive"):
            CountCondition(0, 1)


class TestValidateWitness:
    """validate_witness accepts exactly the origin-distinct subsets of nonnegative slack."""

    def test_agrees_with_exhaustive_oracle(self):
        # half the subsets take one column per origin, so their rejections
        # come from the slack alone; the others may repeat an origin
        rng = random.Random(14)
        rejected = {"origins": 0, "slack": 0}
        for case in range(300):
            r = rng.randint(1, 3)
            d = rng.randint(r + 2, 9)
            N = rng.randint(4, 24)
            cells = [(i, j) for j in range(N) for i in rng.sample(range(d), rng.randint(r + 1, d))]
            cm = build_constraint_matrix(SamplingPattern.from_cells(d, N, cells), r)
            pool = list(range(len(cm)))
            if case % 2 == 0:
                rng.shuffle(pool)
                pool = list({cm.origins[c]: c for c in pool}.values())
            subset = rng.sample(pool, rng.randint(1, min(22, len(pool))))
            distinct = len({cm.origins[c] for c in subset}) == len(subset)
            for cond in (CountCondition.finite(r), CountCondition.unique(r)):
                slack = min_slack_exhaustive(cm, subset, cond)
                assert validate_witness(cm, subset, cond) == (distinct and slack >= 0)
                rejected["origins"] += not distinct
                rejected["slack"] += distinct and slack < 0
        assert rejected["origins"] > 0 and rejected["slack"] > 0

    def test_hereditary_recheck_matches_exhaustive_oracle(self):
        # chains of witnesses: a validated witness V, then W made of a random
        # part of V's columns (found again by origin and rows) and 1-3 other
        # columns, on the matrix of the pattern less one or two cells, so the
        # column indices shift; half the other columns repeat the rows of a V
        # column, and W is shuffled, so neither index nor order gives V away
        rng = random.Random(22)
        seen = {"accepted": 0, "rejected": 0, "repeated": 0}
        for case in range(150):
            cond, pattern, cm = _crowded_matrix(rng, case)
            validated = _greedy_witness(rng, cm, cond)
            for _ in range(4):
                removal = frozenset(rng.sample(pattern.cells(), rng.randint(1, 2)))
                pattern = remove_entries(pattern, RemovalSet(removal))
                cm = build_constraint_matrix(pattern, cm.r)
                if not len(cm):
                    break
                pool = list(range(len(cm)))
                kept = [c for c in pool if (cm.origins[c], cm.columns[c]) in validated]
                part = rng.sample(kept, rng.randint(0, len(kept)))
                supports = [rows for _, rows in validated]
                others = [c for c in pool if c not in part]
                repeats = [c for c in others if cm.columns[c] in supports]
                added = set()
                for _ in range(rng.randint(1, 3) if others else 0):
                    added.add(rng.choice(repeats if repeats and rng.random() < 0.5 else others))
                witness = part + sorted(added)
                rng.shuffle(witness)
                distinct = len({cm.origins[c] for c in witness}) == len(witness)
                expected = distinct and min_slack_exhaustive(cm, witness, cond) >= 0
                assert validate_witness(cm, witness, cond, supports) == expected
                seen["accepted" if expected else "rejected"] += 1
                shared = [cm.columns[c] for c in witness if cm.columns[c] in supports]
                seen["repeated"] += len(shared) > len(set(shared))  # one support twice in W
                if expected:
                    validated = [(cm.origins[c], cm.columns[c]) for c in witness]
        assert min(seen.values()) > 0, seen

    def test_warm_search_hands_over_the_previous_witness(self, monkeypatch):
        # warm chains as robust verification runs them, one data column barred
        # on one matrix at a time: every validation of a found witness is told
        # the row supports of the previous certificate's witness under the
        # same condition, and nothing when cold
        calls = []
        validate = certify.validate_witness

        def recorded(cm, witness, cond, validated=()):
            calls.append((cond, list(validated)))
            return validate(cm, witness, cond, validated)

        monkeypatch.setattr(certify, "validate_witness", recorded)
        rng = random.Random(23)
        handed = 0
        for case in range(40):
            unique = case % 2 == 1
            d = rng.randint(4, 8)
            r = rng.randint(1, min(3, d - 2))
            N = r * (d - r) + (d - r if unique else 0) + rng.randint(2, 6)
            cells = [(i, j) for j in range(N) for i in rng.sample(range(d), rng.randint(r + 1, d))]
            pattern = SamplingPattern.from_cells(d, N, cells)
            find = find_unique_certificate if unique else find_finite_certificate
            conds = (CountCondition.finite(r), CountCondition.unique(r))[: 1 + unique]
            base = build_constraint_matrix(pattern, r)
            previous, supports = None, [[] for _ in conds]
            for _ in range(8):
                del calls[:]
                cert = find(base, r, warm_from=previous, barred=frozenset(rng.sample(range(N), 1)))
                if cert.verdict == Verdict.REFUTED:
                    assert calls == []
                    continue
                assert calls == list(zip(conds, supports))
                handed += previous is not None
                witnesses = (cert.finite_witness, cert.unique_witness)
                supports = [[base.columns[c] for c in witness] for witness in witnesses[: len(conds)]]
                previous = cert
        assert handed > 0

    def test_validated_supports_are_a_multiset(self):
        # two data columns observing rows {0, 1, 2} at r=2 give two constraint
        # columns of equal rows from different origins; one validated copy
        # vouches for one of them, and both together have slack 3 - 2 - 2 = -1
        cm = build_constraint_matrix(SamplingPattern.full(3, 2), 2)
        assert cm.columns == ((0, 1, 2), (0, 1, 2)) and cm.origins == (0, 1)
        cond = CountCondition.unique(2)
        assert min_slack(cm, [0, 1], cond) == -1
        assert not validate_witness(cm, [0, 1], cond, validated=[(0, 1, 2)])
        assert validate_witness(cm, [1], cond, validated=[(0, 1, 2)])

    def test_out_of_range_column_rejected(self):
        cm = build_constraint_matrix(SamplingPattern.full(3, 2), 1)
        assert len(cm) == 4
        cond = CountCondition.finite(1)
        for subset in ([-1], [-4], [4], [0, 2, 7], [1, -2]):
            with pytest.raises(ValueError, match="outside range"):
                validate_witness(cm, subset, cond)
            with pytest.raises(ValueError, match="outside range"):
                validate_witness(cm, subset, cond, validated=[cm.columns[0]])
            with pytest.raises(ValueError, match="outside range"):
                min_slack(cm, subset, cond)
        assert validate_witness(cm, [3], cond) and min_slack(cm, [0], cond) == 0


def _crowded_matrix(rng, case):
    """A seeded pattern and its constraint matrix, most data columns repeating
    one of three row sets so that constraint columns of equal rows recur, and
    the condition: finite on even cases, unique on odd ones."""
    r = rng.randint(1, 3)
    d = rng.randint(r + 2, 8)
    shared = [sorted(rng.sample(range(d), rng.randint(r + 1, d))) for _ in range(3)]
    columns = [
        rng.choice(shared) if rng.random() < 0.6 else sorted(rng.sample(range(d), rng.randint(r + 1, d)))
        for _ in range(rng.randint(6, 14))
    ]
    pattern = SamplingPattern(d, columns)
    cond = (CountCondition.finite(r), CountCondition.unique(r))[case % 2]
    return cond, pattern, build_constraint_matrix(pattern, r)


def _greedy_witness(rng, cm, cond, size=12):
    """(origin, rows) of an origin-distinct set of up to `size` columns of
    nonnegative slack by the enumeration oracle, grown in a random order."""
    chosen: list[int] = []
    order = list(range(len(cm)))
    rng.shuffle(order)
    for c in order:
        if len(chosen) == size:
            break
        if cm.origins[c] in {cm.origins[x] for x in chosen}:
            continue
        if min_slack_exhaustive(cm, [*chosen, c], cond) >= 0:
            chosen.append(c)
    return [(cm.origins[c], cm.columns[c]) for c in chosen]


class TestFiniteCertificate:
    def test_two_full_columns_give_finite(self):
        cm = build_constraint_matrix(SamplingPattern.full(3, 2), 1)
        cert = find_finite_certificate(cm, 1)
        assert cert.verdict == Verdict.FINITE
        assert len(cert.finite_witness) == 2
        origins = {cm.origins[i] for i in cert.finite_witness}
        assert origins == {0, 1}
        assert validate_witness(cm, cert.finite_witness, CountCondition.finite(1))

    def test_column_below_rank_is_outside_the_precondition(self):
        # an empty third column is never determined, yet adds no constraint
        # columns, so the certificate alone says Finite; the verifier's
        # premise floor refutes the pattern
        pattern = SamplingPattern.from_cells(3, 3, [(i, j) for i in range(3) for j in range(2)])
        assert find_finite_certificate(build_constraint_matrix(pattern, 1), 1).verdict == Verdict.FINITE
        verdict = verify_finite(pattern, 1, NoiseBudget.global_noise(0))
        assert verdict.verdict == RobustOutcome.REFUTED
        assert verdict.premise_violation

    def test_single_origin_refuted(self):
        cm = build_constraint_matrix(SamplingPattern.full(3, 1), 1)
        cert = find_finite_certificate(cm, 1)
        assert cert.verdict == Verdict.REFUTED
        assert cert.refutation["kind"] == "insufficient_origins"

    def test_no_constraint_columns_refuted(self):
        p = SamplingPattern.from_cells(4, 3, [(0, 0), (1, 1), (2, 2)])
        cm = build_constraint_matrix(p, 2)
        assert len(cm) == 0
        cert = find_finite_certificate(cm, 2)
        assert cert.verdict == Verdict.REFUTED

    @pytest.mark.parametrize("d,r", [(4, 1), (4, 2), (5, 2), (6, 3)])
    def test_fully_observed_minimal_width(self, d, r):
        N = r * (d - r)
        cm = build_constraint_matrix(SamplingPattern.full(d, N), r)
        cert = find_finite_certificate(cm, r)
        assert cert.verdict == Verdict.FINITE
        assert len(cert.finite_witness) == N
        assert validate_witness(cm, cert.finite_witness, CountCondition.finite(r))

    def test_mismatched_rank_rejected(self):
        cm = build_constraint_matrix(SamplingPattern.full(4, 4), 2)
        with pytest.raises(ValueError):
            find_finite_certificate(cm, 1)

    def test_deterministic(self):
        cm = build_constraint_matrix(SamplingPattern.full(5, 8), 2)
        a = find_finite_certificate(cm, 2)
        b = find_finite_certificate(cm, 2)
        assert a == b


class TestUniqueCertificate:
    def test_four_full_columns_give_unique(self):
        cm = build_constraint_matrix(SamplingPattern.full(3, 4), 1)
        cert = find_unique_certificate(cm, 1)
        assert cert.verdict == Verdict.UNIQUE
        assert len(cert.finite_witness) == 2
        assert len(cert.unique_witness) == 2
        main_origins = {cm.origins[i] for i in cert.finite_witness}
        side_origins = {cm.origins[i] for i in cert.unique_witness}
        assert not (main_origins & side_origins)
        assert validate_witness(cm, cert.unique_witness, CountCondition.unique(1))

    def test_three_columns_cannot_be_unique(self):
        cm = build_constraint_matrix(SamplingPattern.full(3, 3), 1)
        cert = find_unique_certificate(cm, 1)
        assert cert.verdict == Verdict.REFUTED
        assert cert.refutation["kind"] == "insufficient_origins"

    def test_report_serialization_carries_witness_details(self):
        cm = build_constraint_matrix(SamplingPattern.full(3, 4), 1)
        cert = find_unique_certificate(cm, 1)
        doc = cert.to_dict()
        assert doc["verdict"] == "Unique"
        assert doc["finite_witness"]["min_slack"] >= 0
        assert doc["unique_witness"]["min_slack"] >= 0
        for entry in doc["finite_witness"]["columns"]:
            assert set(entry) == {"column", "origin", "rows"}

    def test_report_without_a_matrix_rejected(self):
        # a certificate built by hand has witness indices but no matrix to read them from
        bare = certify.Certificate(Verdict.FINITE, 2, (0, 1))
        with pytest.raises(ValueError, match="no constraint matrix"):
            bare.to_dict()
        refuted = certify.Certificate(Verdict.REFUTED, 2, note="none")
        assert refuted.to_dict() == {"verdict": "Refuted", "rank": 2, "note": "none"}


class TestAugmentation:
    def test_origins_stay_distinct_after_flips(self, monkeypatch):
        # seeded sparse patterns (r+1 or r+2 rows per data column, d <= 12,
        # r <= 3) searched cold for a finite and a unique witness at once;
        # a round that moves a member out of a game flips a path, and the
        # entering elements must take over its origins for later rounds
        events: list[str] = []
        add, remove = _PebbleGame.add, _PebbleGame.remove

        def added(game, column):
            events.append("add")
            add(game, column)

        def removed(game, column):
            events.append("remove")
            remove(game, column)

        monkeypatch.setattr(_PebbleGame, "add", added)
        monkeypatch.setattr(_PebbleGame, "remove", removed)
        most_flips = 0
        for seed in range(300):
            rng = random.Random(seed)
            d = rng.randint(4, 12)
            r = rng.randint(1, min(3, d - 2))
            parts = [(CountCondition.finite(r), r * (d - r)), (CountCondition.unique(r), d - r)]
            if r * (d - r) > 22:  # the enumeration oracle's limit
                continue
            N = rng.randint(r * (d - r) + d - r, r * (d - r) + d - r + 4)
            columns = [sorted(rng.sample(range(d), rng.randint(r + 1, r + 2))) for _ in range(N)]
            cm = build_constraint_matrix(SamplingPattern(d, columns), r)
            events.clear()
            found = certify._max_rainbow_witnesses(cm, parts)
            # rounds that flip: each starts with a member leaving its game
            flips = sum(a == "add" and b == "remove" for a, b in zip(["add", *events], events))
            most_flips = max(most_flips, flips)
            if found is None:
                continue
            witnesses = [sorted(tails) for tails in found]
            used = [cm.origins[c] for witness in witnesses for c in witness]
            assert len(used) == len(set(used))
            for witness, (cond, size) in zip(witnesses, parts):
                assert len(witness) == size
                assert min_slack_exhaustive(cm, witness, cond) >= 0
        # some search augments at least twice after its first flip
        assert most_flips >= 3


class TestWarmStart:
    """A search started from another certificate's pebble state decides like a cold one."""

    def test_matches_cold_search(self, monkeypatch):
        # seeded patterns (d <= 8, r <= 3) with about as many data columns as
        # the witnesses need origins, so both verdicts occur; the base matrix
        # with 1-2 data columns barred is searched warm from the latest
        # positive warm certificate, as robust verification does, and cold
        flips = [0]  # members leaving a game, which only an augmenting path does
        remove = _PebbleGame.remove

        def counted(game, column):
            flips[0] += 1
            remove(game, column)

        monkeypatch.setattr(_PebbleGame, "remove", counted)
        rng = random.Random(41)
        verdicts, augmented = [], 0
        for case in range(60):
            unique = case % 2 == 1
            d = rng.randint(3, 8)
            r = rng.randint(1, min(3, d - 1))
            origins = r * (d - r) + (d - r if unique else 0)
            N = rng.randint(origins, origins + 6)
            cells = [(i, j) for j in range(N) for i in rng.sample(range(d), rng.randint(r + 1, d))]
            pattern = SamplingPattern.from_cells(d, N, cells)
            find = find_unique_certificate if unique else find_finite_certificate
            base = build_constraint_matrix(pattern, r)
            previous = None
            for _ in range(20):
                block = frozenset(rng.sample(range(N), rng.randint(1, min(2, N))))
                cold = find(base, r, barred=block)
                before = flips[0]
                warm = find(base, r, warm_from=previous, barred=block)
                augmented += previous is not None and flips[0] > before
                assert warm.verdict == cold.verdict
                verdicts.append(warm.verdict)
                if warm.verdict == Verdict.REFUTED:
                    assert warm.refutation == cold.refutation
                    continue
                conds = (CountCondition.finite(r), CountCondition.unique(r))
                witnesses = (warm.finite_witness, warm.unique_witness)[: 1 + unique]
                used = [base.origins[c] for witness in witnesses for c in witness]
                assert len(used) == len(set(used)) and block.isdisjoint(used)
                for witness, cond, size in zip(witnesses, conds, (r * (d - r), d - r)):
                    assert len(witness) == size
                    assert min_slack_exhaustive(base, witness, cond) >= 0
                    assert validate_witness(warm.cm, witness, cond)
                # the certificate carries the matrix its indices refer to,
                # and its report holds neither the matrix nor the tail rows
                assert warm.cm is base
                report = json.dumps(warm.to_dict())
                assert "_tails" not in report and "ConstraintMatrix" not in report
                previous = warm
        assert augmented > 0
        assert {Verdict.FINITE, Verdict.UNIQUE, Verdict.REFUTED} <= set(verdicts)

    def test_rejects_another_rank_kind_or_height(self):
        # a warm start comes only from a certificate of the same kind found
        # on the very matrix searched: one of another rank or height, or of
        # an equal matrix built again, is rejected, for both kinds
        cm = build_constraint_matrix(SamplingPattern.full(5, 12), 2)
        finite, unique = find_finite_certificate(cm, 2), find_unique_certificate(cm, 2)
        assert find_finite_certificate(cm, 2, warm_from=finite) == finite
        assert find_unique_certificate(cm, 2, warm_from=unique) == unique
        with pytest.raises(ValueError, match="Unique"):
            find_finite_certificate(cm, 2, warm_from=unique)
        with pytest.raises(ValueError, match="Finite"):
            find_unique_certificate(cm, 2, warm_from=finite)
        other_rank = build_constraint_matrix(SamplingPattern.full(5, 12), 1)
        taller = build_constraint_matrix(SamplingPattern.full(6, 12), 2)
        again = build_constraint_matrix(SamplingPattern.full(5, 12), 2)
        assert again == cm and again is not cm
        for other, r in ((other_rank, 1), (taller, 2), (again, 2)):
            with pytest.raises(ValueError, match="not found on this constraint matrix"):
                find_finite_certificate(other, r, warm_from=finite)
            with pytest.raises(ValueError, match="not found on this constraint matrix"):
                find_unique_certificate(other, r, warm_from=unique)
        # a certificate built by hand carries no matrix and no tail rows, and
        # one given the matrix still has no tail rows
        bare = certify.Certificate(Verdict.FINITE, 2, finite.finite_witness)
        handmade = certify.Certificate(Verdict.FINITE, 2, finite.finite_witness, cm=cm)
        for start in (bare, handmade):
            with pytest.raises(ValueError, match="not found on this constraint matrix"):
                find_finite_certificate(cm, 2, warm_from=start)

    def test_pebble_state_stays_private(self):
        cm = build_constraint_matrix(SamplingPattern.full(4, 6), 2)
        cert = find_finite_certificate(cm, 2)
        assert cert._tails is not None
        assert "_tails" not in repr(cert)
        assert "_tails" not in json.dumps(cert.to_dict())
        assert cert == certify.Certificate(Verdict.FINITE, 2, cert.finite_witness)


def _read(cert):
    """A certificate's verdict, refutation and witnesses as (origin, rows), free of column indices."""
    witnesses = [
        [(cert.cm.origins[c], cert.cm.columns[c]) for c in witness]
        for witness in (cert.finite_witness, cert.unique_witness)
        if witness is not None
    ]
    return cert.verdict, cert.refutation, witnesses


class TestBarred:
    """A search with data columns barred is that of the matrix without them."""

    def test_matches_the_matrix_rebuilt_without_them(self, monkeypatch):
        # seeded patterns (d <= 8, r <= 3) with about as many data columns as
        # the witnesses need origins, so both verdicts occur; a random block B
        # of data columns is barred on the base matrix, and also removed cell
        # by cell; searched cold, both find the same witnesses, read as
        # (origin, rows), and the barred search warm from the latest positive
        # barred certificate, as robust verification chains them, reaches the
        # same verdict with a witness of the base matrix outside B
        flips = [0]  # members leaving a game, which only an augmenting path does
        remove = _PebbleGame.remove

        def counted(game, column):
            flips[0] += 1
            remove(game, column)

        monkeypatch.setattr(_PebbleGame, "remove", counted)
        rng = random.Random(27)
        seen, augmented = set(), 0
        for case in range(60):
            unique = case % 2 == 1
            d = rng.randint(3, 8)
            r = rng.randint(1, min(3, d - 1))
            origins = r * (d - r) + (d - r if unique else 0)
            N = rng.randint(origins, origins + 6)
            cells = [(i, j) for j in range(N) for i in rng.sample(range(d), rng.randint(r + 1, d))]
            pattern = SamplingPattern.from_cells(d, N, cells)
            find = find_unique_certificate if unique else find_finite_certificate
            base = build_constraint_matrix(pattern, r)
            previous = None
            for _ in range(10):
                block = frozenset(rng.sample(range(N), rng.randint(1, min(3, N))))
                every = RemovalSet(frozenset((i, j) for j in block for i in pattern.columns[j]))
                rebuilt = _read(find(build_constraint_matrix(remove_entries(pattern, every), r), r))
                for warm_from in (None, previous):
                    before = flips[0]
                    barred = find(base, r, warm_from=warm_from, barred=block)
                    augmented += flips[0] > before
                    read = _read(barred)
                    assert read == rebuilt if warm_from is None else read[:2] == rebuilt[:2]
                    seen.add((warm_from is not None, barred.verdict))
                if barred.verdict == Verdict.REFUTED:
                    continue
                assert barred.cm is base
                conds = (CountCondition.finite(r), CountCondition.unique(r))
                witnesses = (barred.finite_witness, barred.unique_witness)[: 1 + unique]
                assert not any(base.origins[c] in block for witness in witnesses for c in witness)
                for witness, cond, size in zip(witnesses, conds, (r * (d - r), d - r)):
                    assert len(witness) == size and min_slack(base, witness, cond) >= 0
                previous = barred
        assert augmented > 0
        for warm in (False, True):
            assert {(warm, Verdict.FINITE), (warm, Verdict.UNIQUE), (warm, Verdict.REFUTED)} <= seen


class TestBruteForceAgreement:
    """Certificate existence cross-checked against exhaustive enumeration."""

    def test_finite_verdicts_match_brute_force(self):
        from itertools import product

        rng = random.Random(99)
        checked = 0
        while checked < 120:
            d = rng.randint(3, 5)
            N = rng.randint(1, 6)
            r = rng.randint(1, d - 1)
            target = r * (d - r)
            if target > 6:
                continue
            cells = [
                (i, j) for i in range(d) for j in range(N) if rng.random() < rng.uniform(0.3, 1.0)
            ]
            if not cells:
                continue
            cm = build_constraint_matrix(SamplingPattern.from_cells(d, N, cells), r)
            if len(cm) > 12:
                continue
            cond = CountCondition.finite(r)
            groups: dict[int, list[int]] = {}
            for idx, origin in enumerate(cm.origins):
                groups.setdefault(origin, []).append(idx)
            exists = False
            if len(groups) >= target:
                for chosen in combinations(groups.values(), target):
                    for cols in product(*chosen):
                        if min_slack_exhaustive(cm, cols, cond) >= 0:
                            exists = True
                            break
                    if exists:
                        break
            cert = find_finite_certificate(cm, r)
            assert (cert.verdict == Verdict.FINITE) == exists
            checked += 1


def _witness_origin_sets(cm, size, cond):
    """Origin bitmasks of every origin-distinct size-column set passing the condition."""
    found = set()
    for cols in combinations(range(len(cm)), size):
        origins = {cm.origins[i] for i in cols}
        if len(origins) == size and min_slack_exhaustive(cm, cols, cond) >= 0:
            found.add(sum(1 << o for o in origins))
    return found


@st.composite
def small_patterns(draw):
    """Patterns with d <= 5, r <= 2, N <= 8 and enough data columns for a witness pair."""
    d, r = draw(st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]))
    N = draw(st.integers((r + 1) * (d - r), 8))
    # at most two constraint columns per data column keeps the oracle cheap
    columns = [
        draw(st.sets(st.integers(0, d - 1), min_size=r + 1, max_size=r + 2)) for _ in range(N)
    ]
    cells = [(i, j) for j, rows in enumerate(columns) for i in rows]
    return build_constraint_matrix(SamplingPattern.from_cells(d, N, cells), r), r


class TestUniqueDifferential:
    """The unique certificate agrees with brute-force enumeration of witness pairs."""

    @given(small_patterns())
    @settings(deadline=None, max_examples=150)
    def test_unique_verdict_matches_brute_force(self, case):
        cm, r = case
        cond_main, cond_side = CountCondition.finite(r), CountCondition.unique(r)
        mains = _witness_origin_sets(cm, r * (cm.d - r), cond_main)
        sides = _witness_origin_sets(cm, cm.d - r, cond_side)
        exists = any(m & s == 0 for m in mains for s in sides)

        cert = find_unique_certificate(cm, r)
        assert cert.verdict in (Verdict.UNIQUE, Verdict.REFUTED)
        assert (cert.verdict == Verdict.UNIQUE) == exists
        assert (find_finite_certificate(cm, r).verdict == Verdict.FINITE) == bool(mains)
        if exists:
            assert validate_witness(cm, cert.finite_witness, cond_main)
            assert validate_witness(cm, cert.unique_witness, cond_side)
            main_origins = {cm.origins[i] for i in cert.finite_witness}
            side_origins = {cm.origins[i] for i in cert.unique_witness}
            assert not main_origins & side_origins


def _row_column_graph_connected(pattern):
    """Union-find over rows 0..d-1 and columns d..d+N-1, one edge per observed cell."""
    parent = list(range(pattern.d + pattern.N))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pattern.cells():
        parent[find(i)] = find(pattern.d + j)
    return len({find(x) for x in range(len(parent))}) == 1


@st.composite
def rank_one_patterns(draw):
    """Patterns with d <= 7 and N <= 10 in which every column observes at least one row."""
    d = draw(st.integers(2, 7))
    N = draw(st.integers(1, 10))
    columns = [draw(st.sets(st.integers(0, d - 1), min_size=1)) for _ in range(N)]
    return SamplingPattern.from_cells(d, N, [(i, j) for j, rows in enumerate(columns) for i in rows])


class TestRankOneConnectivity:
    """At r=1 a pattern is finitely (and uniquely) completable iff its row-column graph is connected.

    The certificates are sufficient conditions, so only one direction is checked:
    a certificate implies a connected graph, and a connected graph may be refuted.
    """

    @given(rank_one_patterns())
    @settings(deadline=None, max_examples=300)
    def test_certificate_implies_connected(self, pattern):
        cm = build_constraint_matrix(pattern, 1)
        if (
            find_finite_certificate(cm, 1).verdict == Verdict.FINITE
            or find_unique_certificate(cm, 1).verdict == Verdict.UNIQUE
        ):
            assert _row_column_graph_connected(pattern)

    def test_connected_pattern_can_be_refuted(self):
        # column 0 full, columns 1-3 observe only row 0: connected, yet a single
        # origin carries constraint columns where the witness needs two
        pattern = SamplingPattern.from_cells(3, 4, [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (0, 3)])
        assert _row_column_graph_connected(pattern)
        cert = find_finite_certificate(build_constraint_matrix(pattern, 1), 1)
        assert cert.verdict == Verdict.REFUTED
        assert cert.refutation["kind"] == "insufficient_origins"

    def test_fully_observed_matrix_can_be_refuted_for_uniqueness(self):
        cm = build_constraint_matrix(SamplingPattern.full(4, 5), 1)
        assert find_finite_certificate(cm, 1).verdict == Verdict.FINITE
        assert find_unique_certificate(cm, 1).verdict == Verdict.REFUTED


_P = 2**31 - 1  # prime; a product of two residues fits in int64


def _rank_mod_p(A):
    """Rank over GF(_P) by row reduction."""
    A = A % _P
    rank = 0
    for c in range(A.shape[1]):
        nonzero = np.flatnonzero(A[rank:, c])
        if nonzero.size == 0:
            continue
        pivot = rank + nonzero[0]
        A[[rank, pivot]] = A[[pivot, rank]]
        A[rank] = A[rank] * pow(int(A[rank, c]), _P - 2, _P) % _P
        below = rank + 1 + np.flatnonzero(A[rank + 1 :, c])
        A[below] = (A[below] - A[below, c][:, None] * A[rank]) % _P
        rank += 1
        if rank == A.shape[0]:
            break
    return rank


def _generically_finite(cells, d, N, r):
    """Whether (U, V) -> (UV^T) on `cells` has Jacobian rank r(d+N) - r^2 at one of
    two seeded random points over GF(_P).

    That rank at any point means the pattern is generically finitely completable
    (Kiraly, Theran & Tomioka, JMLR 2015); a point can only fall short of the
    generic rank, so False may be an unlucky pair of points.
    """
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        U = rng.integers(0, _P, size=(d, r), dtype=np.int64)
        V = rng.integers(0, _P, size=(N, r), dtype=np.int64)
        J = np.zeros((len(cells), r * (d + N)), dtype=np.int64)
        for k, (i, j) in enumerate(cells):
            J[k, i * r : (i + 1) * r] = V[j]
            J[k, (d + j) * r : (d + j + 1) * r] = U[i]
        if _rank_mod_p(J) == r * (d + N) - r * r:
            return True
    return False


class TestJacobianOracle:
    """Finite verdicts cross-checked against the algebraic rank test.

    Certificates are sufficient conditions, so only positives are checked.
    """

    def test_oracle_sees_an_empty_row(self):
        full = SamplingPattern.full(5, 8).cells()
        assert _generically_finite(full, 5, 8, 2)
        assert not _generically_finite([(i, j) for i, j in full if i != 0], 5, 8, 2)

    def test_finite_verdicts_have_full_jacobian_rank(self):
        rng = random.Random(0)
        positives = []
        for _ in range(368):
            d = rng.randint(3, 8)
            r = rng.randint(1, min(3, d - 1))
            N = rng.randint(r * (d - r), r * (d - r) + 4)
            columns = [rng.sample(range(d), rng.randint(r, d)) for _ in range(N)]
            pattern = SamplingPattern.from_cells(
                d, N, [(i, j) for j, rows in enumerate(columns) for i in rows]
            )
            cert = find_finite_certificate(build_constraint_matrix(pattern, r), r)
            if cert.verdict == Verdict.FINITE:
                assert _generically_finite(pattern.cells(), d, N, r), (d, N, r, columns)
                positives.append((pattern, r))
        assert len(positives) >= 100
        robust = 0
        for pattern, r in positives[::4]:
            if verify_finite(pattern, r, NoiseBudget.global_noise(1)).verdict != RobustOutcome.FINITE:
                continue
            robust += 1
            cells = pattern.cells()
            for cell in cells:
                rest = [c for c in cells if c != cell]
                assert _generically_finite(rest, pattern.d, pattern.N, r), (pattern, r, cell)
        assert robust >= 5


@st.composite
def pebble_game_cases(draw):
    """A pattern with d <= 7 and r <= 3, a count condition, and an order to grow members in."""
    d = draw(st.integers(2, 7))
    r = draw(st.integers(1, min(3, d - 1)))
    N = draw(st.integers(1, 5))
    columns = [draw(st.sets(st.integers(0, d - 1), min_size=r + 1, max_size=d)) for _ in range(N)]
    cells = [(i, j) for j, rows in enumerate(columns) for i in rows]
    cm = build_constraint_matrix(SamplingPattern.from_cells(d, N, cells), r)
    cond = draw(st.sampled_from([CountCondition.finite(r), CountCondition.unique(r)]))
    order = draw(st.permutations(range(len(cm))))
    dropped = draw(st.sets(st.integers(0, len(cm) - 1)))
    return cm, cond, order, dropped


class TestPebbleGameOracle:
    """The pebble game's independence and circuits agree with the min-cut validator."""

    @given(pebble_game_cases())
    @settings(deadline=None, max_examples=120)
    def test_probe_matches_min_slack(self, case):
        cm, cond, order, dropped = case
        game = _PebbleGame(cm, cond)
        members: list[int] = []

        def grow(game, members, columns):
            for c in columns:
                if c not in members and game.probe(c) is None:
                    game.add(c)
                    members.append(c)

        # grow, drop some members and grow again without them, so the game
        # also answers after removals
        grow(game, members, order)
        for c in [m for m in members if m in dropped]:
            game.remove(c)
            members.remove(c)
        grow(game, members, [c for c in order if c not in dropped])
        # a second game starts warm, as `warm_from` does: the first game's
        # members pinned on their tail rows, then grown over the whole order
        warm = _PebbleGame(cm, cond)
        for c in members:
            warm.pin(c, game.tail[c])
        warm_members = list(members)
        grow(warm, warm_members, order)
        for game, members in ((game, members), (warm, warm_members)):
            if members:
                assert min_slack(cm, members, cond) >= 0
            for y in range(len(cm)):
                if y in members:
                    continue
                circuit = game.probe(y)
                assert (circuit is None) == (min_slack(cm, members + [y], cond) >= 0)
                if circuit is not None:
                    exchangeable = {
                        x for x in members if min_slack(cm, [m for m in members if m != x] + [y], cond) >= 0
                    }
                    assert circuit == exchangeable


class TestTightSetSkip:
    """The greedy seed skips, unsearched, only columns dependent on its members."""

    @staticmethod
    def _patterns():
        """Two triangles at r=1, then two 4-row blocks of all four triples at
        r=2, each closed by a repeated column and sharing r-1 rows with the
        other; then seeded patterns with d <= 10, r <= 3 and r+1 to r+3 rows
        per data column."""
        yield 6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]], 1
        blocks = [list(rows) for base in (0, 3) for rows in combinations(range(base, base + 4), 3)]
        yield 7, blocks[:4] + [[0, 1, 2]] + blocks[4:] + [[4, 5, 6], [0, 4, 5]], 2
        for seed in range(150):
            rng = random.Random(seed)
            d = rng.randint(4, 10)
            r = rng.randint(1, min(3, d - 2))
            N = rng.randint(d, 3 * d)
            yield d, [sorted(rng.sample(range(d), rng.randint(r + 1, min(d, r + 3)))) for _ in range(N)], r

    def test_skipped_columns_are_dependent(self, monkeypatch):
        # a finite and a unique copy, each sized to what a greedy pass by
        # min_slack takes, so that the seed fills them and no path search
        # follows; a column the seed reaches that was never searched against
        # the members it met must be dependent on them.  The cases that open
        # the list fail if sets sharing fewer than r rows are merged
        games: list[_PebbleGame] = []
        searches: set[tuple[int, tuple[int, ...], frozenset[int]]] = set()
        init, gather = _PebbleGame.__init__, _PebbleGame._gather

        def created(game, cm, cond):
            games.append(game)
            init(game, cm, cond)

        def recorded(game, rows):
            searches.add((id(game), rows, frozenset(game.tail)))
            return gather(game, rows)

        def augmenting(game, column):
            raise AssertionError("the seed left a copy short, so a path search began")

        monkeypatch.setattr(_PebbleGame, "__init__", created)
        monkeypatch.setattr(_PebbleGame, "_gather", recorded)
        monkeypatch.setattr(_PebbleGame, "probe", augmenting)
        skipped = 0
        for case, (d, columns, r) in enumerate(self._patterns()):
            cm = build_constraint_matrix(SamplingPattern(d, columns), r)
            conds = (CountCondition.finite(r), CountCondition.unique(r))
            # the reference seed: each copy in turn takes the columns
            # independent of its members, one per origin across the copies,
            # and stops at the last one it takes
            used: set[int] = set()
            reached, taken = [], []
            for cond in conds:
                members: list[int] = []
                met = []
                for c in range(len(cm)):
                    if cm.origins[c] not in used:
                        met.append((c, list(members)))
                        if min_slack(cm, members + [c], cond) >= 0:
                            members.append(c)
                            used.add(cm.origins[c])
                reached.append([(c, m) for c, m in met if len(m) < len(members)])
                taken.append(members)
            games.clear()
            searches.clear()
            found = certify._max_rainbow_witnesses(cm, [(cond, len(m)) for cond, m in zip(conds, taken)])
            for met, cond, members, tails, game in zip(reached, conds, taken, found, games):
                assert sorted(tails) == members, case
                for c, before in met:
                    if (id(game), cm.columns[c], frozenset(before)) not in searches:
                        skipped += 1
                        assert min_slack(cm, before + [c], cond) < 0, (case, c)
        assert skipped > 0

    def test_fewer_searches_on_the_simulate_shape(self, monkeypatch):
        # one cold finite search on a pattern of the simulate benchmark; the
        # seed that searched every column it reached made 241 searches
        calls = [0]
        gather = _PebbleGame._gather

        def counted(game, rows):
            calls[0] += 1
            return gather(game, rows)

        monkeypatch.setattr(_PebbleGame, "_gather", counted)
        cm = build_constraint_matrix(sample_pattern(20, 600, 12, np.random.default_rng(0)), 2)
        assert find_finite_certificate(cm, 2).verdict == Verdict.FINITE
        assert calls[0] < 241


class TestSeedPins:
    """A column the greedy seed accepts is covered where its one search left the pebbles."""

    def test_a_filled_seed_adds_nothing(self, monkeypatch):
        # cold searches whose seed fills every copy without a path search:
        # one finite search on a pattern of the simulate benchmark and a
        # unique one on a full pattern.  The seed that searched each column
        # it took a second time, through `_PebbleGame.add`, made 86 searches
        # on the first
        calls = {"_gather": 0, "add": 0, "probe": 0}

        def counted(name, original):
            def method(game, arg):
                calls[name] += 1
                return original(game, arg)

            return method

        for name in calls:
            monkeypatch.setattr(_PebbleGame, name, counted(name, getattr(_PebbleGame, name)))
        cm = build_constraint_matrix(sample_pattern(20, 600, 12, np.random.default_rng(0)), 2)
        assert find_finite_certificate(cm, 2).verdict == Verdict.FINITE
        assert calls["probe"] == calls["add"] == 0
        assert calls["_gather"] < 86
        cm = build_constraint_matrix(SamplingPattern.full(5, 12), 2)
        assert find_unique_certificate(cm, 2).verdict == Verdict.UNIQUE
        assert calls["probe"] == calls["add"] == 0


class TestExhaustiveOracle:
    def test_rows_beyond_64(self):
        rng = random.Random(64)
        cells = [(i, j) for j in range(10) for i in rng.sample(range(100), 6)]
        cm = build_constraint_matrix(SamplingPattern.from_cells(100, 10, cells), 2)
        high = [i for i, rows in enumerate(cm.columns) if rows[-1] >= 64]
        for _ in range(20):
            subset = rng.sample(range(len(cm)), rng.randint(1, 11))
            subset += [rng.choice([i for i in high if i not in subset])]
            for cond in (CountCondition.finite(2), CountCondition.unique(2)):
                assert min_slack_exhaustive(cm, subset, cond) == min_slack(cm, subset, cond)

    @pytest.mark.parametrize("size", [13, 14, 16])
    def test_block_path_matches_min_slack(self, size):
        rng = random.Random(size)
        for _ in range(6):
            d, r = rng.randint(5, 9), rng.randint(1, 3)
            cells = [(i, j) for j in range(8) for i in rng.sample(range(d), rng.randint(r + 1, d))]
            cm = build_constraint_matrix(SamplingPattern.from_cells(d, 8, cells), r)
            if len(cm) < size:
                continue
            subset = rng.sample(range(len(cm)), size)
            for cond in (CountCondition.finite(r), CountCondition.unique(r)):
                assert min_slack_exhaustive(cm, subset, cond) == min_slack(cm, subset, cond)

    def test_minimum_only_in_a_later_block(self):
        # twelve columns on distinct row pairs, then the duplicated pair that alone fails
        cells = [(i, j) for j in range(12) for i in (2 * j, 2 * j + 1)]
        cells += [(0, 12), (1, 12), (0, 13), (1, 13)]
        cm = build_constraint_matrix(SamplingPattern.from_cells(24, 14, cells), 1)
        cond = CountCondition.unique(1)
        assert min_slack_exhaustive(cm, list(range(1, 14)), cond) == min_slack(cm, list(range(1, 14)), cond)
        assert min_slack_exhaustive(cm, list(range(1, 12)), cond) == 0
        assert min_slack_exhaustive(cm, list(range(1, 14)), cond) == -1


_RECORDED = Path(__file__).resolve().parent / "data" / "certificates.jsonl"


def test_certificates_reproduce_recorded_bytes():
    """Certificates of 200 seeded patterns, recorded with the min-cut independence oracle.

    Each line holds a pattern (observed rows per column), its rank and the
    finite and unique `Certificate.to_dict()`.  Any change to the search's
    scan order or oracle that alters a witness shows up here.
    """
    lines = _RECORDED.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 200
    for line in lines:
        entry = json.loads(line)
        cells = [(i, j) for j, rows in enumerate(entry["columns"]) for i in rows]
        cm = build_constraint_matrix(SamplingPattern.from_cells(entry["d"], entry["N"], cells), entry["r"])
        got = {
            "finite": find_finite_certificate(cm, entry["r"]).to_dict(),
            "unique": find_unique_certificate(cm, entry["r"]).to_dict(),
        }
        for key, doc in got.items():
            assert json.dumps(doc, sort_keys=True) == json.dumps(entry[key], sort_keys=True), line
