"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts.  Criterion 2 pins the
validation curve of the small pool to k up to lattice point 38, where the
exact masses are still above the underflow floor; the exact value there is k,
since sum_i E[X_i | S = k] = E[S | S = k] = k, and the Poisson pool's Panjer
recursion and banded product reach it.
"""

import time

import numpy as np
import pytest

from allocgen.allocation import (
    PortfolioModel,
    allocate_independent,
    allocate_katz_closed_form,
    oracle_enumerate,
    oracle_size_biased_rows,
    allocate_compound_poisson_pool,
)
from allocgen.dependence import FrailtyBernoulliSpec, frailty_allocation
from allocgen.models import UNIT_CLAIM, CompoundKatzRisk, ExplicitRisk, KatzParams, explicit_risk
from allocgen.pmf import arithmetize, next_pow2
from allocgen.reproduce import (
    BERNOULLI_POOL_B,
    BERNOULLI_POOL_Q,
    HEAVY_TAIL_RISKS,
    bernoulli_pool_risks,
    small_pool_risks,
)
from allocgen.risk_measures import (
    RVaRLevels,
    euler_rvar_contributions,
    rvar,
    tvar,
    var_level,
)
from allocgen.scenario import (
    allocate_portfolio,
    build_portfolio,
    conditional_mean_distribution,
    count_cdf_crossings,
    load_scenario,
    sample_risks,
)
from allocgen.tails import pareto_cdf, pareto_lev
from reference import compound_poisson_pool_fs, materialised_weights

PARTNER = (0.1, 0.3, 0.2, 0.25, 0.15)


@pytest.fixture(scope="module")
def pool10k_risks():
    return sample_risks({"kind": "compound_poisson_negbin", "count": 10_000}, 1234321, 2**13)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


class TestCriterion1FullAllocationIdentity:
    """Every shipped scenario satisfies the full-allocation identity on valid points.

    The 10,000-risk pool runs under the performance criterion; the remaining
    shipped scenarios (independent, shock, gamma-mixture, frailty coupling) are
    each required here in under five seconds at kmax <= 2^13.
    """

    SCENARIOS = ("small_pool", "bernoulli_pool", "shock", "gamma_mixture", "frailty")

    def test_identity_on_shipped_scenarios(self, scenario_dir):
        worst = {}
        ok = True
        for name in self.SCENARIOS:
            cfg = load_scenario(scenario_dir / f"{name}.yaml")
            built = build_portfolio(cfg)
            assert built.kmax <= 2**13
            start = time.perf_counter()
            table = allocate_portfolio(
                built.portfolio, built.kmax,
                tolerance=cfg.tolerance, underflow_floor=cfg.underflow_floor,
            )
            dev = table.identity_deviation()
            elapsed = time.perf_counter() - start
            worst[name] = (dev, elapsed)
            ok = ok and dev <= 1e-10 and elapsed <= 5.0
        detail = "; ".join(f"{n}: dev={d:.2e} in {t:.2f}s" for n, (d, t) in worst.items())
        report(1, ok, detail)
        for name, (dev, elapsed) in worst.items():
            assert dev <= 1e-10, f"{name}: identity deviation {dev:.3e}"
            assert elapsed <= 5.0, f"{name}: runtime {elapsed:.2f}s"


class TestCriterion2SmallPoolReproduction:
    """Four-contract pool at kmax=2^6: curve pinned to k for k<=37 and at 38
    (exact masses 2.56e-14 and 9.43e-15, above the 1e-15 floor), and underflow
    flags at 43 and 63."""

    def test_small_pool_profile(self):
        start = time.perf_counter()
        table = allocate_compound_poisson_pool(small_pool_risks(), 64)
        elapsed = time.perf_counter() - start
        total = table.validation_curve
        k = np.arange(64.0)
        dev_low = float(np.max(np.abs(total[:38] - k[:38])))
        at38 = float(total[38])
        flags = (not table.valid_mask[43]) and (not table.valid_mask[63])
        ok = dev_low <= 1e-8 and abs(at38 - 38.0) <= 0.01 and flags and elapsed < 1.0
        report(
            2,
            ok,
            f"max|total-k| k<=37: {dev_low:.3e} (need <=1e-8); total at 38: {at38:.4f} "
            f"(need 38+/-0.01); flags at 43,63: {flags}; {elapsed:.2f}s",
        )
        assert flags, "k=43 and k=63 must be masked invalid"
        assert elapsed < 1.0
        assert dev_low <= 1e-8, (
            f"validation curve departs k by {dev_low:.3e} before k=38; the exact "
            "value is k wherever Pr(S = k) > 0"
        )
        assert abs(at38 - 38.0) <= 0.01, f"total at 38 is {at38:.4f}"


class TestCriterion3KatzClosedFormEquivalence:
    FAMILIES = (
        KatzParams.poisson(0.7),
        KatzParams.negative_binomial(3.0, 0.6),
        KatzParams.binomial(5, 0.3),
    )

    def test_closed_forms_match_transform(self):
        start = time.perf_counter()
        worst_alloc, worst_ident = 0.0, 0.0
        for params in self.FAMILIES:
            table = allocate_independent([CompoundKatzRisk(params, UNIT_CLAIM), explicit_risk(PARTNER)], 128)
            alloc, cum = allocate_katz_closed_form(params, table.fs)
            worst_alloc = max(
                worst_alloc, float(np.max(np.abs(alloc - table.expected_allocation[0])))
            )
            worst_alloc = max(
                worst_alloc,
                float(np.max(np.abs(cum - np.cumsum(table.rows(0))))),
            )
            FS = np.concatenate([[0.0], np.cumsum(table.fs.masses)[:-1]])
            resid = (params.a - 1.0) * cum - params.a * alloc + (params.a + params.b) * FS
            worst_ident = max(worst_ident, float(np.max(np.abs(resid))))
        elapsed = time.perf_counter() - start
        ok = worst_alloc <= 1e-11 and worst_ident <= 1e-10 and elapsed < 1.0
        report(
            3,
            ok,
            f"closed-vs-transform sup {worst_alloc:.2e} (<=1e-11); linear identity "
            f"sup {worst_ident:.2e} (<=1e-10); {elapsed:.2f}s",
        )
        assert worst_alloc <= 1e-11
        assert worst_ident <= 1e-10
        assert elapsed < 1.0


class TestCriterion4OracleTriangle:
    def test_three_way_agreement(self):
        rng = np.random.default_rng(424242)
        start = time.perf_counter()
        worst = 0.0
        for trial in range(25):
            n = int(rng.integers(2, 6))
            risks = []
            for _ in range(n):
                size = int(rng.integers(2, 9))
                w = rng.uniform(0.05, 1.0, size=size)
                risks.append(explicit_risk(w / w.sum()))
            kmax = 64
            table = allocate_independent(risks, kmax)
            enum = oracle_enumerate(PortfolioModel(risks=risks), kmax)
            worst = max(
                worst,
                float(np.max(np.abs(table.expected_allocation - enum.expected_allocation))),
            )
            sb = oracle_size_biased_rows(risks, kmax)
            worst = max(worst, float(np.max(np.abs(sb - table.expected_allocation))))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-10 and elapsed < 30.0
        report(4, ok, f"25 portfolios, sup norm across the triangle {worst:.2e}; {elapsed:.1f}s")
        assert worst <= 1e-10
        assert elapsed < 30.0


class TestCriterion5BernoulliPool:
    def test_pool_against_enumeration(self):
        start = time.perf_counter()
        risks = bernoulli_pool_risks()
        kmax = next_pow2(1 + sum(BERNOULLI_POOL_B))
        table = allocate_independent(risks, kmax)
        enum = oracle_enumerate(PortfolioModel(risks=risks), kmax)
        gap = float(np.max(np.abs(table.expected_allocation - enum.expected_allocation)))

        import itertools

        counts = np.zeros(sum(BERNOULLI_POOL_B) + 1, dtype=int)
        for combo in itertools.product((0, 1), repeat=len(BERNOULLI_POOL_B)):
            counts[int(np.dot(combo, BERNOULLI_POOL_B))] += 1
        singleton_ok = True
        for k in np.flatnonzero(counts == 1):
            for v, b in zip(enum.conditional_mean_at(k), BERNOULLI_POOL_B):
                singleton_ok &= bool(abs(v) <= 1e-12 or abs(v - b) <= 1e-12)
        elapsed = time.perf_counter() - start
        ok = gap <= 1e-10 and singleton_ok and elapsed < 1.0
        report(
            5,
            ok,
            f"transform vs 2^6 enumeration sup {gap:.2e} (<=1e-10); "
            f"singleton levels all-or-nothing: {singleton_ok}; {elapsed:.2f}s",
        )
        assert gap <= 1e-10
        assert singleton_ok
        assert elapsed < 1.0


class TestCriterion6Frailty:
    def test_six_risk_pool(self):
        start = time.perf_counter()
        risks = bernoulli_pool_risks()
        spec = FrailtyBernoulliSpec(alpha=0.5, epsilon=1e-10)
        assert spec.theta_star == 34
        kmax = next_pow2(1 + sum(BERNOULLI_POOL_B))
        recon = spec.theta_pmf() @ spec.conditional_claim_probs(BERNOULLI_POOL_Q)
        marg = float(np.max(np.abs(recon - np.asarray(BERNOULLI_POOL_Q))))
        tiny = frailty_allocation(FrailtyBernoulliSpec(alpha=1e-12), risks, kmax)
        indep = frailty_allocation(FrailtyBernoulliSpec(alpha=0.0), risks, kmax)
        gap = float(np.max(np.abs(tiny.expected_allocation - indep.expected_allocation)))
        elapsed6 = time.perf_counter() - start

        wide = risks + sample_risks({"kind": "bernoulli_extras", "count": 69}, 20260810, kmax)
        wide_kmax = next_pow2(1 + sum(r.b for r in wide))
        start75 = time.perf_counter()
        wide_table = frailty_allocation(FrailtyBernoulliSpec(alpha=0.5), wide, wide_kmax)
        elapsed75 = time.perf_counter() - start75
        ok = (
            spec.theta_star == 34
            and marg <= 1e-9
            and gap <= 1e-9
            and elapsed6 < 2.0
            and elapsed75 < 10.0
            and wide_table.valid_mask.any()
        )
        report(
            6,
            ok,
            f"theta*=34; marginal residual {marg:.2e} (<=1e-9); alpha->0 gap {gap:.2e} "
            f"(<=1e-9); n=6 in {elapsed6:.2f}s; n=75 at kmax={wide_kmax} in {elapsed75:.2f}s",
        )
        assert marg <= 1e-9
        assert gap <= 1e-9
        assert elapsed6 < 2.0
        assert elapsed75 < 10.0


class TestCriterion7Performance:
    def test_ten_thousand_risk_pool(self, pool10k_risks):
        kmax = 2**13
        risks = pool10k_risks
        start = time.perf_counter()
        table = allocate_compound_poisson_pool(risks, kmax)
        first = time.perf_counter() - start
        dev = table.identity_deviation()

        # determinism: a repeat run reproduces the table bit for bit; every
        # output is a function of these four arrays, W as its reader forms it
        start = time.perf_counter()
        table2 = allocate_compound_poisson_pool(risks, kmax)
        repeat = time.perf_counter() - start
        same = all(
            np.array_equal(a, b)
            for a, b in (
                (materialised_weights(table), materialised_weights(table2)),
                (table.fs.masses, table2.fs.masses),
                (table.column_sum, table2.column_sum),
                (table.valid_mask, table2.valid_mask),
            )
        )

        # the engine's f_S is the merged pool's Panjer recursion (its f(0)
        # underflows); check it against per-risk transforms, exp(sum lam_i (P_Bi - 1))
        fs = compound_poisson_pool_fs(risks, kmax)
        transform_gap = float(np.max(np.abs(table.fs.masses - fs)) / table.fs.masses.max())
        ok = first <= 60.0 and repeat <= 300.0 and same and dev <= 1e-10 and transform_gap <= 1e-12
        report(
            7,
            ok,
            f"10,000 risks at kmax=2^13: first run {first:.1f}s (<=60), "
            f"repeat run {repeat:.1f}s (<=300, bit-identical: {same}), identity dev {dev:.2e}, "
            f"f_S against per-risk transforms {transform_gap:.2e} of its peak (<=1e-12)",
        )
        assert first <= 60.0
        assert repeat <= 300.0
        assert same
        assert dev <= 1e-10
        assert transform_gap <= 1e-12


class TestCriterion8HeavyTail:
    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_heavy_tail_triplet_and_seeded_pool(self):
        start = time.perf_counter()
        xmax, kmax = 2**15, 2**17
        pmfs = []
        mean_err = 0.0
        for alpha, lam, ref in HEAVY_TAIL_RISKS:
            pmf, _ = arithmetize(pareto_cdf(alpha, lam), pareto_lev(alpha, lam), xmax)
            mean_err = max(mean_err, abs(pmf.mean() - ref))
            pmfs.append(pmf)
        table = allocate_independent([ExplicitRisk(p) for p in pmfs], kmax)
        dev = table.identity_deviation()
        dists = [conditional_mean_distribution(table, i) for i in range(3)]
        crossings = [
            count_cdf_crossings(dists[i], dists[j]) for i, j in ((0, 1), (0, 2), (1, 2))
        ]

        extra = sample_risks({"kind": "pareto_extras", "count": 97, "xmax": xmax}, 20260810, kmax)
        table100 = allocate_independent([ExplicitRisk(p) for p in pmfs] + extra, kmax)
        dev100 = table100.identity_deviation()
        elapsed = time.perf_counter() - start
        ok = (
            mean_err <= 5e-3
            and dev <= 1e-10
            and crossings == [1, 1, 1]
            and dev100 <= 1e-10
            and elapsed <= 120.0
        )
        report(
            8,
            ok,
            f"grid means within {mean_err:.2e} (<=5e-3); identity dev n=3 {dev:.2e}, "
            f"n=100 {dev100:.2e}; crossings {crossings} (want [1,1,1]); {elapsed:.1f}s",
        )
        assert mean_err <= 5e-3
        assert dev <= 1e-10
        assert crossings == [1, 1, 1]
        assert dev100 <= 1e-10
        assert elapsed <= 120.0


class TestCriterion9RVaRCoherence:
    """Full allocation of the two-level measure across every shipped scenario.

    The sampled-pool scenarios rebuild deterministically from their recorded
    seeds (the large pool reuses the performance fixture's draws).
    """

    LEVEL_PAIRS = ((0.90, 0.99), (0.95, 0.95), (0.90, 1.0), (0.95, 1.0))
    CHEAP = ("small_pool", "bernoulli_pool", "shock", "gamma_mixture", "frailty", "heavy_tail")

    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_full_allocation_and_degenerations(self, scenario_dir, pool10k_risks):
        worst = 0.0
        degOK = True
        tables = []
        for name in self.CHEAP:
            cfg = load_scenario(scenario_dir / f"{name}.yaml")
            built = build_portfolio(cfg)
            tables.append(
                allocate_portfolio(
                    built.portfolio, built.kmax,
                    tolerance=cfg.tolerance, underflow_floor=cfg.underflow_floor,
                )
            )
        tables.append(allocate_compound_poisson_pool(pool10k_risks, 2**13))
        for table in tables:
            for a1, a2 in self.LEVEL_PAIRS:
                levels = RVaRLevels(a1, a2)
                contribs = euler_rvar_contributions(table, levels)
                total = rvar(table.fs, levels)
                worst = max(worst, abs(float(contribs.sum()) - total))
            degOK &= rvar(table.fs, RVaRLevels(0.95, 0.95)) == var_level(table.fs, 0.95)
            degOK &= rvar(table.fs, RVaRLevels(0.90, 1.0)) == tvar(table.fs, 0.90)
        ok = worst <= 1e-9 and degOK
        report(
            9,
            ok,
            f"sup |sum of contributions - total| = {worst:.2e} (<=1e-9) across "
            f"{len(tables)} scenarios x {len(self.LEVEL_PAIRS)} level pairs; "
            f"exact degenerations: {degOK}",
        )
        assert worst <= 1e-9
        assert degOK
