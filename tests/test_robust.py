import math
import random
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from robustmc import certify, numeric, robust, sim
from robustmc.pattern import (
    NoiseBudget,
    PatternFormatError,
    RemovalSet,
    SamplingPattern,
    build_constraint_matrix,
    enumerate_removals,
    remove_entries,
)
from robustmc.robust import (
    NoSupportFoundError,
    RobustOutcome,
    RobustVerdict,
    _fit_in_order,
    _holding,
    _small_hitting_sets,
    identify_noise_support,
    parse_observations,
    verify_finite,
    verify_unique,
)

from oracles import serialize_observations


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

    @pytest.mark.parametrize("verify", [verify_finite, verify_unique])
    def test_nonpositive_rank_rejected_before_the_premise(self, verify):
        # column 2 is empty, so a premise check would answer Refuted
        pattern = SamplingPattern.from_cells(3, 3, [(i, j) for i in range(3) for j in range(2)])
        with pytest.raises(ValueError, match="rank"):
            verify(pattern, 0, NoiseBudget.global_noise(0))

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


def _per_column_removals(pattern, need):
    """Every choice of `need` observed cells in each column, in lexicographic order."""
    per_column = [
        combinations([(i, j) for i in pattern.columns[j]], need) for j in range(pattern.N)
    ]
    for choice in product(*per_column):
        yield RemovalSet(frozenset(cell for chunk in choice for cell in chunk))


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
                    for removal in _per_column_removals(pattern, g + 1)
                    if find(build_constraint_matrix(remove_entries(pattern, removal), r), r).verdict
                    == certify.Verdict.REFUTED
                )
                assert verdict.verdict == RobustOutcome.REFUTED
                assert verdict.checked == 1
                assert verdict.failing_removal == first_failure


def _resolve_every_removal(pattern, r, budget, unique, find) -> dict:
    """The global verdict from one certificate per removal, none skipped."""
    checked = 0
    for removal in enumerate_removals(pattern, budget.amount + unique):
        checked += 1
        cert = find(build_constraint_matrix(remove_entries(pattern, removal), r), r)
        if cert.verdict == certify.Verdict.REFUTED:
            return RobustVerdict(RobustOutcome.REFUTED, checked, removal, cert.note).to_dict()
    positive = RobustOutcome.UNIQUE if unique else RobustOutcome.FINITE
    return RobustVerdict(positive, checked).to_dict()


class TestSkippedRemovals:
    def test_matches_resolving_every_removal(self, monkeypatch):
        # finite global:0-2 and unique global:0-1 on d <= 7, r <= 2, with N
        # around the number of origins the witnesses need, so both verdicts
        # occur; certificate calls are counted to see removals skipped
        find = {False: certify.find_finite_certificate, True: certify.find_unique_certificate}
        calls = [0]

        def counted(original):
            def certificate(cm, r, warm_from=None, barred=frozenset()):
                calls[0] += 1
                return original(cm, r, warm_from, barred)

            return certificate

        monkeypatch.setattr(certify, "find_finite_certificate", counted(find[False]))
        monkeypatch.setattr(certify, "find_unique_certificate", counted(find[True]))
        rng = random.Random(8)
        skipped, outcomes, cases = 0, set(), 0
        while cases < 60:
            unique = cases % 2 == 1
            d = rng.randint(3, 7)
            r = rng.randint(1, min(2, d - 1))
            s = rng.randint(0, 1 if unique else 2)
            floor = r + s + unique
            if floor > d:
                continue
            origins = r * (d - r) + (d - r if unique else 0)
            pattern = random_pattern(rng, d, rng.randint(max(origins - 1, 1), origins + 3), floor)
            budget = NoiseBudget.global_noise(s)
            if math.comb(len(set(pattern.cells())), s + unique) > 600:
                continue
            cases += 1
            before = calls[0]
            verdict = (verify_unique if unique else verify_finite)(pattern, r, budget)
            skipped += verdict.checked - (calls[0] - before)
            outcomes.add(verdict.verdict)
            expected = _resolve_every_removal(pattern, r, budget, unique, find[unique])
            assert verdict.to_dict() == expected
        assert skipped > 0
        assert {RobustOutcome.FINITE, RobustOutcome.UNIQUE, RobustOutcome.REFUTED} <= outcomes


def _exclusion_cases():
    """TestExclusion's seeded set: (pattern, r, budget, unique), finite and unique in turn."""
    rng = random.Random(24)
    cases = 0
    while cases < 60:
        unique = cases % 2 == 1
        d = rng.randint(3, 7)
        r = rng.randint(1, min(2, d - 1))
        s = rng.randint(0, 1 if unique else 2)
        floor = r + s + unique
        if floor > d:
            continue
        origins = r * (d - r) + (d - r if unique else 0)
        pattern = random_pattern(rng, d, rng.randint(max(origins - 1, 1), origins + 3), floor)
        budget = NoiseBudget.global_noise(s)
        if math.comb(len(set(pattern.cells())), s + unique) > 600:
            continue
        cases += 1
        yield pattern, r, budget, unique


class TestExclusion:
    def test_matches_resolving_every_removal(self, monkeypatch):
        # finite global:0-2 and unique global:0-1 on d <= 7, r <= 2, with N
        # around the number of origins the witnesses need; a search on the
        # matrix without every column of some data columns is an exclusion
        # (no removal of the premise empties a data column); blocks are
        # searched before the removal loop, exclusions of J within it, and
        # every outcome of both must occur
        find = {False: certify.find_finite_certificate, True: certify.find_unique_certificate}
        outcomes = []  # (exclusion?, refuted?) per certificate search
        loop = []  # searches made before the removal loop started

        def counted(original):
            def certificate(cm, r, warm_from=None, barred=frozenset()):
                cert = original(cm, r, warm_from, barred)
                outcomes.append((bool(barred), cert.verdict == certify.Verdict.REFUTED))
                return cert

            return certificate

        def enumerating(pattern, size):
            loop.append(len(outcomes))
            return enumerate_removals(pattern, size)

        monkeypatch.setattr(robust, "enumerate_removals", enumerating)
        monkeypatch.setattr(certify, "find_finite_certificate", counted(find[False]))
        monkeypatch.setattr(certify, "find_unique_certificate", counted(find[True]))
        seen = set()
        for pattern, r, budget, unique in _exclusion_cases():
            outcomes.clear()
            loop.clear()
            s = budget.amount
            verdict = (verify_unique if unique else verify_finite)(pattern, r, budget)
            seen.add((verdict.verdict, s, unique))
            expected = _resolve_every_removal(pattern, r, budget, unique, find[unique])
            assert verdict.to_dict() == expected
            # every block before the last is positive, and only a refuted
            # last block starts the removal loop
            start = loop[0] if loop else len(outcomes)
            blocks, searches = outcomes[:start], outcomes[start:]
            assert all(excluded for excluded, _ in blocks)
            assert not any(refuted for _, refuted in blocks[:-1])
            assert bool(loop) == (s + unique == 0 or blocks[-1][1])
            seen.update(("block", refuted) for _, refuted in blocks)
            # a refuted exclusion falls through to the direct search, which
            # alone can refute the verdict; it runs cold on the removal's own
            # matrix, and must be seen both to pass and to refute
            for (excluded, refuted), (then_excluded, then_refuted) in zip(searches, searches[1:]):
                assert not (excluded and refuted and then_excluded)
                if excluded and refuted:
                    seen.add(("direct", then_refuted))
            assert not outcomes or not outcomes[-1][0] or not outcomes[-1][1]
            seen.update(("exclusion", refuted) for excluded, refuted in searches if excluded)
        assert {("block", False), ("block", True), ("exclusion", False), ("exclusion", True)} <= seen
        assert {("direct", False), ("direct", True)} <= seen
        for s, unique in ((0, False), (1, False), (2, False), (0, True), (1, True)):
            assert {(RobustOutcome.FINITE, s, unique), (RobustOutcome.UNIQUE, s, unique)} & seen

    def test_blocks_of_several_columns_match_resolving_every_removal(self, monkeypatch):
        # N well past the origins the witnesses need, so a block holds
        # several data columns, and the last row, whose cells are removed last,
        # observed in r to r+need columns, so some blocks refute
        find = {False: certify.find_finite_certificate, True: certify.find_unique_certificate}
        widths = []  # data columns barred per exclusion, before the removal loop

        def counted(original):
            def certificate(cm, r, warm_from=None, barred=frozenset()):
                if barred:
                    widths.append(len(barred))
                return original(cm, r, warm_from, barred)

            return certificate

        def enumerating(pattern, size):
            widths.append(None)
            return enumerate_removals(pattern, size)

        monkeypatch.setattr(robust, "enumerate_removals", enumerating)
        monkeypatch.setattr(certify, "find_finite_certificate", counted(find[False]))
        monkeypatch.setattr(certify, "find_unique_certificate", counted(find[True]))
        rng = random.Random(3)
        refuted, cases = 0, 0
        while cases < 24:
            unique = cases % 2 == 1
            d = rng.randint(4, 6)
            r = rng.randint(1, min(2, d - 2))
            need = rng.randint(1 + unique, 2)
            if r + need > d - 1:
                continue
            N = (r + unique) * (d - r) + rng.randint(4 * need, 4 * need + 4)
            hits = set(rng.sample(range(N), rng.randint(r, r + need)))
            cells = [(d - 1, j) for j in hits] + [
                (i, j) for j in range(N) for i in rng.sample(range(d - 1), rng.randint(r + need, d - 1))
            ]
            pattern = SamplingPattern.from_cells(d, N, cells)
            budget = NoiseBudget.global_noise(need - unique)
            if math.comb(pattern.size(), need) > 1500:
                continue
            cases += 1
            widths.clear()
            verdict = (verify_unique if unique else verify_finite)(pattern, r, budget)
            expected = _resolve_every_removal(pattern, r, budget, unique, find[unique])
            assert verdict.to_dict() == expected
            blocks = widths[: widths.index(None)] if None in widths else widths
            assert max(blocks) > need
            refuted += verdict.verdict == RobustOutcome.REFUTED
        assert refuted > 0

    def test_block_the_last_witnesses_avoid_is_not_searched(self, monkeypatch):
        # unique global:0 at r=2 on 8x32, l=5: 32 origins and witnesses of
        # 12 + 6 columns make five blocks of 7, 7, 7, 7 and 4 data columns;
        # the witnesses found with the fourth block barred avoid the fifth,
        # so that block is decided without a search
        find = certify.find_unique_certificate
        searches = []  # (barred, certificate) per search

        def certificate(cm, r, warm_from=None, barred=frozenset()):
            cert = find(cm, r, warm_from, barred)
            searches.append((barred, cert))
            return cert

        monkeypatch.setattr(certify, "find_unique_certificate", certificate)
        pattern = sim.sample_pattern(8, 32, 5, np.random.default_rng(0))
        verdict = verify_unique(pattern, 2, NoiseBudget.global_noise(0))
        assert verdict == RobustVerdict(RobustOutcome.UNIQUE, checked=160)
        assert [sorted(barred) for barred, _ in searches] == [list(range(k, k + 7)) for k in (0, 7, 14, 21)]
        last = searches[-1][1]
        assert {last.cm.origins[c] for c in last.finite_witness + last.unique_witness}.isdisjoint(range(28, 32))



def _lookup_cases():
    """(pattern, unique, s) at r=2: finite global:1 on 8x16 and unique global:0 on 8x32, in turn."""
    for seed in range(24):
        yield sim.sample_pattern(8, 16, 3 + seed % 4, np.random.default_rng(seed)), False, 1
        yield sim.sample_pattern(8, 32, 3 + seed % 3, np.random.default_rng(seed)), True, 0


class TestWitnessLookup:
    def test_no_search_bars_only_columns_a_positive_witness_avoids(self, monkeypatch):
        # a positive exclusion's witnesses are columns of the base matrix, so
        # they decide every barred set that avoids their data columns, whatever
        # set they were searched with: no later search bars only such columns
        find = {False: certify.find_finite_certificate, True: certify.find_unique_certificate}
        used = []  # per positive exclusion of the case: its witnesses' data columns
        avoided, searched = [], 0  # barred sets some positive exclusion's witnesses avoid

        def counted(original):
            def certificate(cm, r, warm_from=None, barred=frozenset()):
                nonlocal searched
                cert = original(cm, r, warm_from, barred)
                if barred:
                    searched += 1
                    if any(columns.isdisjoint(barred) for columns in used):
                        avoided.append(barred)
                    if cert.verdict != certify.Verdict.REFUTED:
                        used.append({cm.origins[c] for c in cert.finite_witness + (cert.unique_witness or ())})
                return cert

            return certificate

        monkeypatch.setattr(certify, "find_finite_certificate", counted(find[False]))
        monkeypatch.setattr(certify, "find_unique_certificate", counted(find[True]))
        outcomes = set()
        for pattern, unique, s in _lookup_cases():
            used.clear()
            budget = NoiseBudget.global_noise(s)
            verdict = (verify_unique if unique else verify_finite)(pattern, 2, budget)
            assert verdict.to_dict() == _resolve_every_removal(pattern, 2, budget, unique, find[unique])
            outcomes.add(verdict.verdict)
        assert avoided == [] and searched > 0
        assert {RobustOutcome.FINITE, RobustOutcome.UNIQUE, RobustOutcome.REFUTED} <= outcomes


def _oversampled_cases():
    """(pattern, r) with at least r observed rows per column and N from 6W to
    9W, W = r*(d-r) the finite witness size.  In the first third of the data
    columns, one case in three observes no row d-1 there, and one in three
    observes rows below k and rows from k up only in separate columns, so a
    witness there would need r*(d-2r) >= r*(d-r) columns; the other columns
    observe row d-1, or mix the two blocks, only in `hits` of them: none, one
    or a random number."""
    rng = random.Random(28)
    for case in range(90):
        d = rng.randint(4, 8)
        r = rng.randint(1, min(3, d // 2 - 1))
        W = r * (d - r)
        N = rng.randint(6 * W, 9 * W)
        k = rng.randint(r + 1, d - r - 1)
        hits = set(rng.sample(range(N // 3, N), rng.choice((0, 1, rng.randint(0, N - N // 3)))))

        def column(j):
            if case % 3 == 0 or j in hits:
                return rng.sample(range(d), rng.randint(r, d))
            if case % 3 == 1:
                return rng.sample(range(d - 1), rng.randint(r, d - 1))
            block = rng.choice((range(k), range(k, d)))
            return rng.sample(block, rng.randint(r + 1, len(block)))

        yield SamplingPattern(d, tuple(tuple(sorted(column(j))) for j in range(N))), r


class TestLeadingColumns:
    """Noise-free finite verdicts, searched first on the leading data columns."""

    def test_matches_a_cold_search_on_the_whole_matrix(self, monkeypatch):
        # a search on a matrix shorter than the whole pattern's is the leading
        # columns' one; a positive one, a refuted one followed by either
        # verdict of the whole matrix, and none, must each occur
        find = certify.find_finite_certificate
        searches = []  # per search: (constraint columns, refuted?)

        def counted(cm, r, warm_from=None, barred=frozenset()):
            cert = find(cm, r, warm_from, barred)
            searches.append((len(cm), cert.verdict == certify.Verdict.REFUTED))
            return cert

        monkeypatch.setattr(certify, "find_finite_certificate", counted)
        seen = set()
        budget = NoiseBudget.global_noise(0)
        for pattern, r in _oversampled_cases():
            searches.clear()
            verdict = verify_finite(pattern, r, budget)
            assert verdict.to_dict() == _resolve_every_removal(pattern, r, budget, False, find)
            whole = len(build_constraint_matrix(pattern, r))
            seen.add((tuple(refuted for size, refuted in searches if size < whole), verdict.verdict))
        assert {
            ((False,), RobustOutcome.FINITE),
            ((True,), RobustOutcome.FINITE),
            ((True,), RobustOutcome.REFUTED),
            ((), RobustOutcome.FINITE),
            ((), RobustOutcome.REFUTED),
        } <= seen

    def test_skips_leading_columns_that_cannot_pay(self, monkeypatch):
        # at r=1 (W = 31) the first 2W = 62 of 93 data columns are more than a
        # third of the pattern; with 600 columns they are not, but erasing row
        # 19 from them leaves leading columns that observe no row 19
        built = []

        def building(pattern, r):
            built.append(pattern.N)
            return build_constraint_matrix(pattern, r)

        monkeypatch.setattr(robust, "build_constraint_matrix", building)
        budget = NoiseBudget.global_noise(0)
        pattern = sim.sample_pattern(32, 93, 12, np.random.default_rng(0))
        assert verify_finite(pattern, 1, budget) == RobustVerdict(RobustOutcome.FINITE, checked=1)
        pattern = sim.sample_pattern(20, 600, 12, np.random.default_rng(0))
        columns = [tuple(i for i in rows if i != 19 or j >= 72) for j, rows in enumerate(pattern.columns)]
        verdict = verify_finite(SamplingPattern(20, tuple(columns)), 2, budget)
        assert verdict == RobustVerdict(RobustOutcome.FINITE, checked=1)
        assert built == [93, 600]

    def test_enumeration_cap_is_checked_first(self):
        # the leading columns certify this pattern (next test), but a cap of 0
        # admits not even the one empty removal
        pattern = sim.sample_pattern(20, 600, 12, np.random.default_rng(0))
        verdict = verify_finite(pattern, 2, NoiseBudget.global_noise(0), enumeration_cap=0)
        assert verdict.verdict == RobustOutcome.INDETERMINATE
        assert verdict.checked == 0

    def test_builds_only_the_leading_columns(self, monkeypatch):
        # W = 2*18 = 36: 2W = 72 of the 600 data columns, 10 constraint columns each
        built = []

        def building(pattern, r):
            cm = build_constraint_matrix(pattern, r)
            built.append(len(cm))
            return cm

        monkeypatch.setattr(robust, "build_constraint_matrix", building)
        pattern = sim.sample_pattern(20, 600, 12, np.random.default_rng(0))
        verdict = verify_finite(pattern, 2, NoiseBudget.global_noise(0))
        assert verdict == RobustVerdict(RobustOutcome.FINITE, checked=1)
        assert len(build_constraint_matrix(pattern, 2)) == 6000
        assert len(built) == 1 and built[0] <= 720


class TestResearchScale:
    """Verdicts at d=32 (r=3, l=12), decided warm over chains of block exclusions."""

    @pytest.mark.parametrize("N, unique, s", [(93, False, 1), (130, True, 0)], ids=["finite", "unique"])
    def test_positive_verdict_makes_no_direct_search(self, monkeypatch, N, unique, s):
        # 1,116 and 1,560 removals, all cleared by block exclusions: every
        # search bars whole data columns, none is made on a removal's matrix
        direct = []  # per search, whether it bars no data column

        def counted(original):
            def certificate(cm, r, warm_from=None, barred=frozenset()):
                direct.append(not barred)
                return original(cm, r, warm_from, barred)

            return certificate

        monkeypatch.setattr(certify, "find_finite_certificate", counted(certify.find_finite_certificate))
        monkeypatch.setattr(certify, "find_unique_certificate", counted(certify.find_unique_certificate))
        pattern = sim.sample_pattern(32, N, 12, np.random.default_rng(0))
        verdict = (verify_unique if unique else verify_finite)(pattern, 3, NoiseBudget.global_noise(s))
        assert verdict.verdict == (RobustOutcome.UNIQUE if unique else RobustOutcome.FINITE)
        assert direct and not any(direct)

    def test_finite_global_one(self):
        pattern = sim.sample_pattern(32, 93, 12, np.random.default_rng(0))
        verdict = verify_finite(pattern, 3, NoiseBudget.global_noise(1))
        assert verdict == RobustVerdict(RobustOutcome.FINITE, checked=1116)

    def test_unique_global_zero(self):
        pattern = sim.sample_pattern(32, 130, 12, np.random.default_rng(0))
        verdict = verify_unique(pattern, 3, NoiseBudget.global_noise(0))
        assert verdict == RobustVerdict(RobustOutcome.UNIQUE, checked=1560)

    def test_finite_global_two(self):
        pattern = sim.sample_pattern(32, 93, 12, np.random.default_rng(0))
        verdict = verify_finite(pattern, 3, NoiseBudget.global_noise(2))
        assert verdict == RobustVerdict(RobustOutcome.FINITE, checked=622170)


class TestGMonotonicity:
    def test_growing_g_never_rescues_a_refutation(self):
        rng = random.Random(5)
        for _ in range(10):
            pattern = random_pattern(rng, 4, 5, 3)
            previous = None
            for g in (0, 1):
                counts = [len(rows) for rows in pattern.columns]
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
        with pytest.raises(NoSupportFoundError) as excinfo:
            identify_noise_support(inst.observations(), inst.pattern, 2, 2, 1e-6)
        # two cells cannot hit every minor through three noisy ones
        assert excinfo.value.best_residual is None
        assert "vanishing-minor filter: 0)" in str(excinfo.value)

    @pytest.mark.parametrize(
        "d,N,rank,r,planted",
        [(20, 60, 3, 2, 0), (20, 60, 2, 2, 30), (20, 120, 4, 3, 0)],
        ids=["3-0", "2-30", "4-0"],
    )
    def test_far_from_rank_r_ends_early_in_bounded_memory(
        self, d, N, rank, r, planted, monkeypatch
    ):
        # data of rank r+1, or 30 noisy cells, at s=1: of the millions of fully
        # observed minors nearly all are flagged, and two cell-disjoint ones end
        # the search before any candidate is fitted; no table of the C(N-1, r)
        # column subsets is built on the way (ids: data rank, planted cells)
        inst = numeric.generate_instance(
            d, N, rank, NoiseBudget.global_noise(planted), planted=True, seed=7
        )
        read = []
        stream = numeric.iter_nonvanishing_minors

        def counted(*args):
            for rows, cols in stream(*args):
                read.append(len(cols))
                yield rows, cols

        monkeypatch.setattr(numeric, "iter_nonvanishing_minors", counted)
        tracemalloc.start()
        try:
            with pytest.raises(NoSupportFoundError) as excinfo:
                identify_noise_support(inst.observations(), inst.pattern, r, 1, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert excinfo.value.best_residual is None
        assert sum(read) < 10_000
        assert peak < 16e6

    def test_sole_fitting_support_ends_the_stream(self, monkeypatch):
        # the planted pair is the only live set after a few flagged batches;
        # its removal fits, so the rest of the minors are left unread
        inst = numeric.generate_instance(
            40, 200, 3, NoiseBudget.global_noise(2), planted=True, seed=1
        )
        read = []
        stream = numeric.iter_nonvanishing_minors

        def counted(*args):
            for rows, cols in stream(*args):
                read.append(len(cols))
                yield rows, cols

        monkeypatch.setattr(numeric, "iter_nonvanishing_minors", counted)
        support = identify_noise_support(inst.observations(), inst.pattern, 3, 2, 1e-6)
        assert support == inst.noise_support()
        assert sum(read) < 2_000

    def test_error_reports_best_fitted_residual(self):
        # a 6-cycle holds no 2x2 minor, so the empty candidate is fitted and fails
        cells = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]
        pattern = SamplingPattern.from_cells(3, 3, cells)
        obs = dict(zip(cells, [1.0, 2.0, 3.0, 5.0, 7.0, 11.0]))
        with pytest.raises(NoSupportFoundError) as excinfo:
            identify_noise_support(obs, pattern, 1, 0, 1e-6)
        assert excinfo.value.best_residual > 1e-6
        assert "vanishing-minor filter: 1)" in str(excinfo.value)

    @pytest.mark.parametrize("seed", range(6))
    def test_partially_observed_planted_cell_recovered(self, seed):
        # 5 of 7 rows observed per column: a dense but partial pattern
        pattern = sim.sample_pattern(7, 10, 5, np.random.default_rng(seed))
        inst = numeric.generate_instance(
            7, 10, 2, NoiseBudget.global_noise(1), planted=True, seed=seed, pattern=pattern
        )
        support = identify_noise_support(inst.observations(), inst.pattern, 2, 1, 1e-6)
        assert support == inst.noise_support()

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
        perm_pattern = SamplingPattern.from_cells(6, 10, perm_obs)
        perm_support = identify_noise_support(perm_obs, perm_pattern, 2, 1, 1e-6)
        assert perm_support == {(int(prow[i]), int(pcol[j])) for (i, j) in support}

    def test_missing_value_rejected(self):
        pattern = SamplingPattern.full(2, 2)
        with pytest.raises(ValueError, match=r"missing value for observed cell \(0, 1\)"):
            identify_noise_support({(0, 0): 1.0}, pattern, 1, 0)

    @pytest.mark.parametrize(
        "cells,s,message",
        [([(0, 0)], -1, "noise budget must be non-negative"), ([], 0, "pattern has no observed cells")],
    )
    def test_negative_budget_or_empty_pattern_rejected(self, cells, s, message):
        with pytest.raises(ValueError, match=message):
            identify_noise_support({c: 1.0 for c in cells}, SamplingPattern.from_cells(2, 2, cells), 1, s)


def _fit_every_candidate(observations, pattern, r, s, tolerance):
    """Reference: fit every candidate by cardinality, then lexicographically."""
    for size in range(s + 1):
        for cand in combinations(pattern.cells(), size):
            sub = SamplingPattern.from_cells(pattern.d, pattern.N, set(pattern.cells()) - set(cand))
            remaining = {c: observations[c] for c in sub.cells()}
            if numeric.rank_r_fit(remaining, sub, r, tolerance).admits:
                return frozenset(cand)
    return None


@pytest.mark.parametrize("seed", range(8))
def test_small_hitting_sets_decide_the_filter(seed):
    # a set of at most s cells hits every flagged minor iff it holds a returned set
    d, N, r, s = 5, 6, 1 + seed % 2, 1 + seed % 3 // 2
    pattern = sim.sample_pattern(d, N, 4, np.random.default_rng(seed))
    inst = numeric.generate_instance(
        d, N, r, NoiseBudget.global_noise(seed % 4), planted=True, seed=seed, pattern=pattern
    )
    obs = inst.observations()
    minors = [
        {(i, j) for i in rows.tolist() for j in c}
        for rows, cols in numeric.iter_nonvanishing_minors(
            obs, pattern, r, 1e-6, lambda rows, cols: np.ones(len(cols), dtype=bool)
        )
        for c in cols.tolist()
    ]
    sets = _small_hitting_sets(obs, pattern, r, s, 1e-6)
    assert all(len(h) <= s for h in sets)
    for size in range(s + 1):
        for cand in combinations(pattern.cells(), size):
            cand = set(cand)
            assert all(m & cand for m in minors) == any(h <= cand for h in sets)


@pytest.mark.parametrize("seed", range(4))
def test_holding_lists_each_superset_once_in_order(seed):
    rng = random.Random(seed)
    n = 7
    low = 0 if seed == 3 else 1  # the empty base holds every subset
    bases = [tuple(sorted(rng.sample(range(n), rng.randint(low, 3)))) for _ in range(4)]
    for size in range(5):
        expected = [c for c in combinations(range(n), size) if any(set(b) <= set(c) for b in bases)]
        assert list(_holding(bases, tuple(range(n)), size)) == expected


# (seed, d, N, r, l, s, planted cells): partial patterns, s = 2 only where d*N <= 20
DIFFERENTIAL_CASES = [
    (0, 5, 6, 2, 4, 1, 1),
    (1, 4, 5, 1, 3, 2, 2),
    (3, 5, 4, 2, 4, 2, 1),
    (4, 6, 7, 2, 4, 1, 0),
    (5, 4, 5, 2, 3, 2, 3),
    (8, 4, 5, 1, 2, 1, 1),
    (15, 4, 4, 1, 3, 2, 1),
    (16, 6, 6, 2, 5, 1, 1),
    (23, 5, 6, 2, 4, 0, 1),
    (24, 4, 6, 2, 4, 1, 2),
    (25, 5, 6, 2, 5, 1, 2),
]


@pytest.mark.parametrize("seed,d,N,r,l,s,planted", DIFFERENTIAL_CASES)
def test_identify_matches_fitting_every_candidate(seed, d, N, r, l, s, planted):
    pattern = sim.sample_pattern(d, N, l, np.random.default_rng(seed))
    inst = numeric.generate_instance(
        d, N, r, NoiseBudget.global_noise(planted), planted=True, seed=seed, pattern=pattern
    )
    obs = inst.observations()
    try:
        support = identify_noise_support(obs, pattern, r, s, 1e-6)
    except NoSupportFoundError:
        support = None
    assert support == _fit_every_candidate(obs, pattern, r, s, 1e-6)


def _outcome(call):
    """The support a call returns, or the message and best residual it raises."""
    try:
        return call()
    except NoSupportFoundError as exc:
        return str(exc), exc.best_residual


@pytest.mark.parametrize("seed", range(64))
def test_identify_matches_the_full_family(seed):
    # reference: no early stop, every candidate holding a set of the final
    # family fitted in order; planted 0 to s+1 cells, one row missing per column
    rng = random.Random(seed)
    s, r = rng.choice([1, 2]), rng.choice([1, 2])
    planted = rng.randint(0, s + 1)
    d, N = rng.randint(5, 7), rng.randint(6, 9)
    pattern = sim.sample_pattern(d, N, d - 1, np.random.default_rng(seed))
    inst = numeric.generate_instance(
        d, N, r, NoiseBudget.global_noise(planted), planted=True, seed=seed, pattern=pattern
    )
    obs = inst.observations()
    family = _small_hitting_sets(obs, pattern, r, s, 1e-6)
    assert _outcome(lambda: identify_noise_support(obs, pattern, r, s, 1e-6)) == _outcome(
        lambda: _fit_in_order(obs, pattern, r, s, 1e-6, family)
    )


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

    def test_numpy_values_round_trip(self):
        pattern = SamplingPattern.full(2, 2)
        values = {cell: np.float64(0.5 + k) for k, cell in enumerate(pattern.cells())}
        text = serialize_observations(pattern, values)
        assert text == "2 2\n0 0 0.5\n0 1 1.5\n1 0 2.5\n1 1 3.5\n"
        assert parse_observations(text) == (pattern, values)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float64(np.nan), float("inf")])
    def test_non_finite_value_not_serialized(self, value):
        values = {(0, 0): 1.0, (0, 1): value, (1, 0): 3.0, (1, 1): 4.0}
        with pytest.raises(ValueError, match=r"non-finite value .* for cell \(0, 1\)"):
            serialize_observations(SamplingPattern.full(2, 2), values)

    def test_missing_value_not_serialized(self):
        with pytest.raises(ValueError, match=r"missing value for observed cell \(1, 1\)"):
            serialize_observations(SamplingPattern.full(2, 2), {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0})

    def test_duplicate_rejected(self):
        with pytest.raises(PatternFormatError):
            parse_observations("2 2\n0 0 1.5\n0 0 2.5\n")

    @pytest.mark.parametrize(
        "text",
        ["2 2\n5 0 1.5\n", "2 2\n0 -1 1.5\n", "0 2\n", "2 -3\n0 0 1.5\n",
         "2 2\n0 0 nan\n", "2 2\n1 1 -inf\n", "2 2 2\n0 0 1.5\n", "2 x\n0 0 1.5\n",
         "2 2\n0 0 one\n"],
    )
    def test_bad_cell_header_or_value_rejected(self, text):
        with pytest.raises(PatternFormatError):
            parse_observations(text)
