"""Acceptance suite: every criterion runs at its stated tolerance and budget.

Each test prints a single `ACCEPTANCE <n>: PASS/FAIL` line (visible under
`pytest -s`); a FAIL line is always followed by the assertion detail.
"""

import math
import random
import time

from robustmc import certify, numeric, robust, sim
from robustmc.bounds import (
    BoundQuery,
    coupled_columnwise_bound,
    sample_bound,
    sample_condition,
    sweep,
)
from robustmc.certify import CountCondition, Verdict, min_slack
from robustmc.pattern import NoiseBudget, SamplingPattern, build_constraint_matrix
from robustmc.rank import estimate_rank_ceiling
from robustmc.robust import RobustOutcome, verify_finite

from oracles import min_slack_exhaustive


class _Criterion:
    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({self.label}, {elapsed:.1f}s)")
        return False


def test_criterion_1_checker_oracle_equivalence():
    with _Criterion(1, "min_slack equals exhaustive enumeration on 1000 candidate sets"):
        rng = random.Random(20240817)
        start = time.perf_counter()
        done = 0
        while done < 1000:
            d = rng.randint(4, 8)
            N = rng.randint(2, 6)
            r = rng.randint(1, 3)
            p_obs = rng.uniform(0.4, 0.95)
            cells = [(i, j) for i in range(d) for j in range(N) if rng.random() < p_obs]
            if not cells:
                continue
            cm = build_constraint_matrix(SamplingPattern.from_cells(d, N, cells), r)
            if len(cm) == 0:
                continue
            subset = rng.sample(range(len(cm)), rng.randint(1, min(12, len(cm))))
            for cond in (CountCondition.finite(r), CountCondition.unique(r)):
                assert min_slack(cm, subset, cond) == min_slack_exhaustive(cm, subset, cond)
            done += 1
        assert time.perf_counter() - start < 30.0


def test_criterion_2_noiseless_certificates():
    with _Criterion(2, "fully observed patterns certify Finite/Unique at the stated widths"):
        start = time.perf_counter()
        for d in range(2, 7):
            for r in range(1, min(4, d)):
                n_finite = r * (d - r)
                n_unique = (r + 1) * (d - r)
                for N in (n_finite, n_finite + 1, n_unique):
                    cm = build_constraint_matrix(SamplingPattern.full(d, N), r)
                    cert = certify.find_finite_certificate(cm, r)
                    assert cert.verdict == Verdict.FINITE, (d, r, N)
                    assert len(cert.finite_witness) == n_finite
                    assert certify.validate_witness(
                        cm, cert.finite_witness, CountCondition.finite(r)
                    )
                cm = build_constraint_matrix(SamplingPattern.full(d, n_unique), r)
                cert = certify.find_unique_certificate(cm, r)
                assert cert.verdict == Verdict.UNIQUE, (d, r, n_unique)
                assert len(cert.unique_witness) == d - r
                assert certify.validate_witness(
                    cm, cert.unique_witness, CountCondition.unique(r)
                )
        assert time.perf_counter() - start < 60.0


def test_criterion_3_noise_reduction_consistency():
    with _Criterion(3, "Global(0) verification equals the noiseless verdict on 200 patterns"):
        rng = random.Random(31337)
        start = time.perf_counter()
        for _ in range(200):
            d = rng.randint(2, 6)
            r = rng.randint(1, min(3, d - 1)) if d > 1 else 1
            N = rng.randint(1, 8)
            cells = []
            for j in range(N):
                l = rng.randint(r, d)
                cells.extend((i, j) for i in rng.sample(range(d), l))
            pattern = SamplingPattern.from_cells(d, N, cells)
            direct = certify.find_finite_certificate(build_constraint_matrix(pattern, r), r)
            robustly = verify_finite(pattern, r, NoiseBudget.global_noise(0))
            mapping = {
                Verdict.FINITE: RobustOutcome.FINITE,
                Verdict.REFUTED: RobustOutcome.REFUTED,
            }
            assert robustly.verdict == mapping[direct.verdict]
        assert time.perf_counter() - start < 60.0


def test_criterion_4_sweep_reproduction():
    with _Criterion(4, "sweep at d=600 N=60000 eps=0.01: 300 self-consistent ordered rows"):
        start = time.perf_counter()
        rows = sweep(600, 60000, 0.01, range(1, 101), [-1, 1, 2])
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert len(rows) == 300
        by_g = {g: {row.r: row for row in rows if row.g == g} for g in (-1, 1, 2)}
        for r in range(1, 101):
            assert by_g[2][r].portion >= by_g[1][r].portion >= by_g[-1][r].portion
        # self-consistency, recomputed from the printed inequalities directly
        for row in rows:
            if row.g == -1:
                threshold = max(12 * math.log(600 / 0.01) + 12, 2 * row.r)
                assert row.l_min > threshold
                assert row.l_min - 1 <= threshold
            else:
                query = BoundQuery(600, row.r, 0.01, budget=NoiseBudget.per_column(row.g))
                assert sample_condition(row.l_min, query)
                assert not sample_condition(row.l_min - 1, query)
        # hand-scanned spot values, natural log
        assert by_g[-1][10].l_min == 145
        assert by_g[-1][100].l_min == 201


def test_criterion_5_open_problem_asymptotics():
    with _Criterion(5, "coupled per-column bound stays within a bounded ratio across d"):
        results = [coupled_columnwise_bound(d, 0.01) for d in (100, 1000, 10000)]
        ratios = [res.ratio for res in results]
        # bounded across the grid: total variation within a factor 50, and the
        # ratio does not grow with d (the open-problem direction)
        assert max(ratios) / min(ratios) <= 50.0
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        for res in results:
            assert res.g == math.ceil(res.noiseless_l_min / res.r)
            query = BoundQuery(res.d, res.r, 0.01, budget=NoiseBudget.per_column(res.g))
            assert sample_condition(res.result.l_min, query)


def test_criterion_6_monte_carlo_vs_theory():
    with _Criterion(6, "empirical threshold under theory; pass rate monotone within CIs"):
        start = time.perf_counter()
        d, N, r, eps, trials = 12, 24, 2, 0.1, 200
        budget = NoiseBudget.global_noise(0)
        result = sim.empirical_threshold(d, N, r, budget, eps, trials, seed=606)
        theory = sample_bound(BoundQuery(d, r, eps, N)).l_min
        assert result.theory_l_min == theory
        assert result.threshold is not None
        assert result.threshold <= min(d, theory)
        # full sweep of l for the monotonicity check
        outcomes = []
        for l in range(r, d + 1):
            cfg = sim.TrialConfig(d, N, r, l, budget, trials, seed=606 * 1000 + l)
            outcomes.append(sim.estimate_pass_probability(cfg))
        for i in range(len(outcomes)):
            for j in range(i + 1, len(outcomes)):
                assert outcomes[j].ci_hi >= outcomes[i].ci_lo, (
                    f"significant decrease from l={r + i} to l={r + j}"
                )
        assert time.perf_counter() - start < 300.0


def test_criterion_7_noise_support_identification():
    with _Criterion(7, "planted 2-cell noise support recovered in >= 95% of 100 seeds"):
        start = time.perf_counter()
        hits = 0
        for seed in range(100):
            inst = numeric.generate_instance(
                8, 24, 2, NoiseBudget.global_noise(2), planted=True, seed=seed
            )
            try:
                support = robust.identify_noise_support(
                    inst.observations(), inst.pattern, 2, 2, fit_tolerance=1e-6
                )
            except robust.NoSupportFoundError:
                continue
            hits += support == inst.noise_support()
        assert hits >= 95, f"recovered {hits}/100"
        assert time.perf_counter() - start < 300.0


def test_criterion_8_rank_dichotomy():
    with _Criterion(8, "rank-3 instances separate at rank 2 and the ceiling covers rank 3"):
        start = time.perf_counter()
        hits = 0
        for seed in range(50):
            inst = numeric.generate_instance(6, 18, 3, seed=seed)
            obs = inst.observations()
            fit3 = numeric.rank_r_fit(obs, inst.pattern, 3, tolerance=1e-6)
            fit2 = numeric.rank_r_fit(obs, inst.pattern, 2, tolerance=1e-6)
            hits += fit3.residual <= 1e-6 and fit2.residual > 1e-3
        assert hits >= 48, f"separated {hits}/50"  # 95% of 50 rounds up to 48
        ceiling = estimate_rank_ceiling(
            SamplingPattern.full(6, 18), NoiseBudget.global_noise(0)
        )
        assert ceiling.r_star >= 3
        assert time.perf_counter() - start < 300.0
