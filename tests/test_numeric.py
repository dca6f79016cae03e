from itertools import chain, combinations

import numpy as np
import pytest

from robustmc import numeric, sim
from robustmc.robust import identify_noise_support
from robustmc.numeric import (
    batched_masked_rank_residuals,
    generate_instance,
    iter_nonvanishing_minors,
    rank_r_fit,
)
from robustmc.pattern import NoiseBudget, SamplingPattern


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate_instance(6, 10, 2, NoiseBudget.global_noise(3), seed=5)
        b = generate_instance(6, 10, 2, NoiseBudget.global_noise(3), seed=5)
        assert np.array_equal(a.X, b.X)
        assert a.noise == b.noise

    def test_seeds_differ(self):
        a = generate_instance(6, 10, 2, NoiseBudget.global_noise(3), seed=1)
        b = generate_instance(6, 10, 2, NoiseBudget.global_noise(3), seed=2)
        assert not np.array_equal(a.X, b.X)

    def test_zero_budget_means_no_noise(self):
        inst = generate_instance(5, 8, 2, NoiseBudget.global_noise(0), seed=3)
        assert inst.noise == {}
        assert inst.observations() == {
            cell: float(inst.X[cell]) for cell in inst.pattern.cells()
        }

    def test_planted_global_support_size_exact(self):
        for seed in range(5):
            inst = generate_instance(6, 9, 2, NoiseBudget.global_noise(4), planted=True, seed=seed)
            assert len(inst.noise_support()) == 4
            obs = inst.observations()
            differing = {c for c in inst.pattern.cells() if obs[c] != inst.X[c]}
            assert differing == inst.noise_support()

    def test_planted_per_column_support(self):
        inst = generate_instance(6, 7, 2, NoiseBudget.per_column(2), planted=True, seed=11)
        for j in range(7):
            assert sum(1 for (i, c) in inst.noise_support() if c == j) == 2

    def test_generated_rank_is_exact(self):
        inst = generate_instance(7, 12, 3, seed=4)
        s = np.linalg.svd(inst.X, compute_uv=False)
        assert s[2] / s[0] > 1e-9
        assert s[3] / s[0] < 1e-9

    def test_full_rank_at_dimension(self):
        inst = generate_instance(4, 9, 4, seed=8)
        s = np.linalg.svd(inst.X, compute_uv=False)
        assert s[3] / s[0] > 1e-9

    def test_rank_exceeding_dimensions_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(3, 5, 4)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError, match="rank must be positive"):
            generate_instance(4, 4, 0)

    @pytest.mark.parametrize(
        "pattern,budget,message",
        [
            (SamplingPattern.full(4, 5), None, "pattern dimensions disagree"),
            (SamplingPattern.from_cells(4, 4, [(0, 0), (1, 1)]), NoiseBudget.global_noise(3),
             "noise budget exceeds the number of observed cells"),
            (SamplingPattern.from_cells(4, 4, [(0, 0), (1, 0)]), NoiseBudget.per_column(1),
             "column 1 cannot host 1 noisy cells"),
        ],
    )
    def test_pattern_and_budget_checked_against_the_grid(self, pattern, budget, message):
        with pytest.raises(ValueError, match=message):
            generate_instance(4, 4, 1, budget, pattern=pattern, planted=True, seed=0)


class TestFit:
    def test_noiseless_planted_fits(self):
        hits = 0
        for seed in range(100):
            inst = generate_instance(8, 24, 2, seed=seed)
            fit = rank_r_fit(inst.observations(), inst.pattern, 2, tolerance=1e-8)
            hits += fit.residual <= 1e-8
        assert hits >= 99

    def test_higher_rank_data_does_not_fit(self):
        misses = 0
        for seed in range(100):
            inst = generate_instance(8, 24, 3, seed=1000 + seed)
            fit = rank_r_fit(inst.observations(), inst.pattern, 2, tolerance=1e-6)
            misses += fit.residual > 1e-3
        assert misses >= 99

    def test_full_rank_full_observation_exact(self):
        inst = generate_instance(4, 6, 4, seed=2)
        fit = rank_r_fit(inst.observations(), inst.pattern, 4, tolerance=1e-10)
        assert fit.residual <= 1e-10
        assert fit.admits

    def test_residual_nonincreasing_in_r(self):
        inst = generate_instance(7, 10, 4, seed=6)
        obs = inst.observations()
        res = [
            rank_r_fit(obs, inst.pattern, r, tolerance=1e-9).residual
            for r in (2, 3, 4)
        ]
        assert res[1] <= res[0] + 1e-9
        assert res[2] <= res[1] + 1e-9

    def test_permutation_invariance(self):
        inst = generate_instance(6, 9, 2, seed=9)
        obs = inst.observations()
        rng = np.random.default_rng(0)
        prow = rng.permutation(6)
        pcol = rng.permutation(9)
        perm_obs = {(int(prow[i]), int(pcol[j])): v for (i, j), v in obs.items()}
        perm_pattern = SamplingPattern.from_cells(6, 9, perm_obs)
        a = rank_r_fit(obs, inst.pattern, 2, tolerance=1e-9)
        b = rank_r_fit(perm_obs, perm_pattern, 2, tolerance=1e-9)
        assert abs(a.residual - b.residual) < 1e-6

    def test_zero_observations_zero_residual(self):
        p = SamplingPattern.from_cells(3, 3, [(0, 0)])
        fit = rank_r_fit({(0, 0): 0.0}, p, 1)
        assert fit.residual == 0.0

    def test_all_zero_observations_fit_without_a_sweep(self):
        p = SamplingPattern.full(4, 5)
        zeros = dict.fromkeys(p.cells(), 0.0)
        assert rank_r_fit(zeros, p, 2) == numeric.FitResult(0.0, 0, True)
        assert identify_noise_support(zeros, p, 2, 1) == frozenset()

    @pytest.mark.parametrize(
        "call",
        [
            lambda obs, p: rank_r_fit(obs, p, 0),
            lambda obs, p: next(iter_nonvanishing_minors(obs, p, 0, 1e-6, _all)),
        ],
        ids=["rank_r_fit", "iter_nonvanishing_minors"],
    )
    def test_rank_zero_rejected(self, call):
        p = SamplingPattern.full(3, 3)
        with pytest.raises(ValueError, match="rank must be positive"):
            call(dict.fromkeys(p.cells(), 1.0), p)

    # (seed, residual, iterations) on seeded partial patterns, rank 1-3 and 0-2
    # noisy cells, recorded while every ALS sweep still rebuilt its index arrays
    RECORDED = [
        (0, 7.257243847850609e-08, 4),
        (1, 0.0718462039097172, 25),
        (2, 0.041996798788874454, 14),
        (3, 5.124799919732401e-07, 13),
        (4, 0.06455669703644035, 8),
        (5, 0.08628765554039314, 40),
        (6, 3.361772347311933e-07, 8),
        (7, 0.008061352247679175, 12),
        (8, 0.07638269096341875, 15),
        (9, 6.275302454119468e-07, 13),
        (10, 0.024591975047289653, 12),
        (11, 0.01314822482175365, 33),
    ]

    @pytest.mark.parametrize("seed,residual,iterations", RECORDED)
    def test_fits_are_bit_identical_to_recorded(self, seed, residual, iterations):
        d, N, r = 6 + seed % 3, 9 + seed % 4, 1 + seed % 3
        pattern = sim.sample_pattern(d, N, d - 1 - seed % 2, np.random.default_rng(seed))
        inst = generate_instance(
            d, N, r, NoiseBudget.global_noise(seed % 3), planted=True, seed=seed, pattern=pattern
        )
        fit = rank_r_fit(inst.observations(), pattern, r, 1e-6)
        assert (fit.residual, fit.iterations) == (residual, iterations)

    # (seed, residual, iterations, admits) as above with column seed % N
    # emptied, and on odd seeds row seed % d too, so that ALS solves for an
    # unobserved line
    RECORDED_EMPTY_LINE = [
        (0, 1.183813712454313e-07, 4, True),
        (1, 0.10938974332645497, 47, False),
        (2, 0.05981177668784535, 13, False),
        (3, 2.6258119603177227e-07, 6, True),
        (4, 0.0653047020707221, 9, False),
        (5, 0.0655283995138074, 77, False),
        (6, 4.999088849740904e-07, 8, True),
        (7, 0.010749146797233145, 14, False),
    ]

    @pytest.mark.parametrize("seed,residual,iterations,admits", RECORDED_EMPTY_LINE)
    def test_fits_with_an_empty_line_are_bit_identical_to_recorded(
        self, seed, residual, iterations, admits
    ):
        d, N, r = 6 + seed % 3, 9 + seed % 4, 1 + seed % 3
        sampled = sim.sample_pattern(d, N, d - 1 - seed % 2, np.random.default_rng(seed))
        pattern = SamplingPattern.from_cells(d, N, [
            (i, j) for i, j in sampled.cells() if j != seed % N and (seed % 2 == 0 or i != seed % d)
        ])
        assert len(pattern.columns[seed % N]) == 0
        assert all(i != seed % d for i, _ in pattern.cells()) == (seed % 2 == 1)
        inst = generate_instance(
            d, N, r, NoiseBudget.global_noise(seed % 3), planted=True, seed=seed, pattern=pattern
        )
        fit = rank_r_fit(inst.observations(), pattern, r, 1e-6)
        assert (fit.residual, fit.iterations, fit.admits) == (residual, iterations, admits)


def _all(rows, cols):
    """A `needed` filter that keeps every column set."""
    return np.ones(len(cols), dtype=bool)


def _flagged(values, pattern, r, tolerance):
    """The flagged minors as a set, after checking that none is yielded twice."""
    observations = {c: float(values[c]) for c in pattern.cells()}
    minors = [
        (tuple(rows.tolist()), tuple(sorted(c)))
        for rows, cols in iter_nonvanishing_minors(observations, pattern, r, tolerance, _all)
        for c in cols.tolist()
    ]
    assert len(set(minors)) == len(minors)
    return set(minors)


def _noisy_partial(seed):
    """6x9, 85%-dense pattern, rank 1-3; noise from 1e-4 to O(1) on a few
    cells, and rank r+1 data at seed 7."""
    d, N, r = 6, 9, 1 + seed % 3
    rng = np.random.default_rng(seed)
    pattern = SamplingPattern.from_cells(
        d, N, [(i, j) for i in range(d) for j in range(N) if rng.random() < 0.85]
    )
    inst = generate_instance(d, N, r + (seed == 7), pattern=pattern, seed=seed)
    noisy = inst.X.copy()
    for cell in pattern.cells()[:: 11 + seed]:
        noisy[cell] += 10.0 ** -(seed % 5) * rng.standard_normal()
    return noisy, pattern, r


class TestNonvanishingMinors:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_perturbation_within_tolerance_flags_nothing(self, r):
        tol = 1e-6
        inst = generate_instance(6, 8, r, seed=30 + r)
        rng = np.random.default_rng(r)
        budget = tol * np.linalg.norm(inst.X)
        spread = rng.standard_normal(inst.X.shape)
        spike = np.zeros(inst.X.shape)
        spike[2, 3] = 1.0
        for E in (spread, spike):
            noisy = inst.X + budget * E / np.linalg.norm(E)
            assert _flagged(noisy, inst.pattern, r, tol) == set()

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_planted_cell_flags_the_minors_through_it(self, r):
        inst = generate_instance(6, 8, r, seed=40 + r)
        noisy = inst.X.copy()
        noisy[2, 3] += 1.0
        through = {
            (rows, cols)
            for rows in combinations(range(6), r + 1)
            for cols in combinations(range(8), r + 1)
            if 2 in rows and 3 in cols
        }
        assert _flagged(noisy, inst.pattern, r, 1e-6) == through

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_every_minor_checked(self, seed):
        # reference: the bound of every fully observed minor, no column peeling
        noisy, pattern, r = _noisy_partial(seed)
        d, N = noisy.shape
        tol = 1e-6
        threshold = 2 * tol * np.linalg.norm([noisy[c] for c in pattern.cells()])
        expected = set()
        observed = set(pattern.cells())
        for rows in combinations(range(d), r + 1):
            for cols in combinations(range(N), r + 1):
                if all((i, j) in observed for i in rows for j in cols):
                    S = noisy[np.ix_(rows, cols)]
                    if abs(np.linalg.det(S)) * (r / np.sum(S * S)) ** (r / 2) > threshold:
                        expected.add((rows, cols))
        assert _flagged(noisy, pattern, r, tol) == expected

    @pytest.mark.parametrize("seed", [0, 4, 7])
    def test_batch_sizes_do_not_change_the_minors(self, seed, monkeypatch):
        # several peel batches, several determinant batches per peeled column
        noisy, pattern, r = _noisy_partial(seed)
        expected = _flagged(noisy, pattern, r, 1e-6)
        monkeypatch.setattr(numeric, "_PEEL_BATCH", 2)
        monkeypatch.setattr(numeric, "_MINOR_BATCH", 3)
        assert _flagged(noisy, pattern, r, 1e-6) == expected

    def test_no_minors_at_full_rank(self):
        inst = generate_instance(3, 5, 3, seed=2)
        assert _flagged(inst.X, inst.pattern, 3, 1e-6) == set()


def test_peel_takes_the_column_whose_removal_shrinks_det_g_most():
    # one peel suffices at this threshold, so the rule alone picks the column
    checked = 0
    for seed in range(50):
        block = np.random.default_rng(seed).standard_normal((3, 9))
        if seed % 2:
            block[:, seed % 9] = 0.0
        nonzero = np.flatnonzero(block.any(axis=0))
        sigma3 = [np.linalg.svd(np.delete(block, j, axis=1), compute_uv=False)[-1] for j in nonzero]
        threshold = 1.0000001 * max(sigma3)
        if threshold >= np.linalg.svd(block, compute_uv=False)[-1]:
            continue
        G = block @ block.T
        dets = [np.linalg.det(G - np.outer(block[:, j], block[:, j])) for j in nonzero]
        peeled = numeric._peel_to_rank_r(block[None], threshold)[0]
        assert np.flatnonzero(peeled).tolist() == [nonzero[np.argmin(dets)]], seed
        checked += 1
    assert checked >= 45
    # a block with 2 nonzero columns and an all-zero block have sigma_3 = 0: no peel at 0
    sparse = np.zeros((2, 3, 9))
    sparse[0, :, [2, 5]] = np.random.default_rng(0).standard_normal((2, 3))
    assert not numeric._peel_to_rank_r(sparse, 0.0).any()
    # rank-1 blocks with 3 nonzero columns: sigma_3 is rounding noise above 0,
    # and so are V's rows on the zero columns, which must never be peeled
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rank1 = np.zeros((1, 3, 9))
        rank1[0][:, [1, 4, 6]] = np.outer(rng.standard_normal(3), rng.standard_normal(3))
        assert set(np.flatnonzero(numeric._peel_to_rank_r(rank1, 0.0)[0])) <= {1, 4, 6}


@pytest.mark.parametrize("n,r", [(0, 2), (1, 2), (5, 1), (7, 2), (10, 3), (11, 3)])
def test_probes_and_the_rest_split_the_r_subsets(n, r, monkeypatch):
    # the probes are disjoint, and with the rest give every r-subset once, in order
    monkeypatch.setattr(numeric, "_MINOR_BATCH", 4)
    probes = [tuple(p) for p in numeric._probes(n, r).tolist()]
    rest = [tuple(c) for part in numeric._non_probes(n, r) for c in part.tolist()]
    assert len(probes) == n // r
    assert len(set(chain.from_iterable(probes))) == r * len(probes)
    assert rest == sorted(rest)
    assert sorted(probes + rest) == list(combinations(range(n), r))


class TestBatchedScreen:
    def test_matches_direct_fit_on_clean_data(self):
        inst = generate_instance(6, 12, 2, seed=12)
        values = np.zeros((6, 12))
        mask = np.zeros((6, 12), dtype=bool)
        for cell, v in inst.observations().items():
            values[cell] = v
            mask[cell] = True
        res = batched_masked_rank_residuals(values, mask[None, :, :], 2, stop_below=1e-9)
        assert res.shape == (1,)
        assert res[0] <= 1e-6

    def test_detects_rank_excess(self):
        inst = generate_instance(6, 12, 3, seed=13)
        values = inst.X.copy()
        mask = np.ones((6, 12), dtype=bool)
        res = batched_masked_rank_residuals(values, mask[None, :, :], 2)
        assert res[0] > 1e-3

    def test_bad_mask_shape_rejected(self):
        with pytest.raises(ValueError):
            batched_masked_rank_residuals(np.zeros((3, 3)), np.ones((3, 3), dtype=bool), 1)
