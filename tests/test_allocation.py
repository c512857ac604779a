import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocgen import allocation, gf
from allocgen.allocation import (
    PortfolioModel,
    allocate_independent,
    allocate_katz_closed_form,
    allocate_negbin_convolution,
    cumulative_and_layers,
    mask_validity,
    oracle_enumerate,
    per_mass,
    oracle_size_biased,
    oracle_size_biased_rows,
    allocate_compound_poisson_pool,
    assemble_table,
    regroup,
    row_blocks,
)
from allocgen.errors import (
    AliasingRisk,
    AllocationError,
    ConfigError,
    EmptyDistribution,
    InvalidLayer,
    InvalidPMF,
    KatzDomain,
    OracleBudget,
    SeriesTruncation,
)
from allocgen.models import (
    ROW_BLOCK,
    UNIT_CLAIM,
    BernoulliRisk,
    CompoundKatzRisk,
    ExplicitRisk,
    KatzParams,
    PoissonNegbinPool,
    RiskChain,
    binomial_risk,
    canonical_row,
    compound_pmf_panjer,
    compound_poisson_risk,
    counting_recursion,
    explicit_risk,
    negative_binomial_risk,
    negbin_rows,
    poisson_risk,
)
from allocgen.pmf import arithmetize, pmf_from_values
from allocgen.risk_measures import RVaRLevels, euler_rvar_contributions, rvar
from allocgen.scenario import (
    allocate_portfolio,
    build_portfolio,
    compound_poisson_negbin_risk,
    load_scenario,
    parse_scenario,
    run_scenario,
    sample_risks,
)
from allocgen.tails import pareto_cdf, pareto_lev
from reference import factored_product, materialised_weights

PARTNER = (0.1, 0.3, 0.2, 0.25, 0.15)
EPS = np.finfo(float).eps


def small_explicit_portfolio(rng, n=None, max_support=8):
    n = n or rng.integers(2, 6)
    risks = []
    for _ in range(n):
        size = int(rng.integers(2, max_support + 1))
        w = rng.uniform(0.05, 1.0, size=size)
        risks.append(explicit_risk(w / w.sum()))
    return risks


class TestAllocateIndependent:
    def test_two_poisson_conditional_means_are_proportional(self):
        lam1, lam2 = 0.8, 1.7
        t = allocate_independent([poisson_risk(lam1), poisson_risk(lam2)], 64)
        k = np.arange(64.0)
        want = lam1 / (lam1 + lam2) * k
        got = per_mass(t.rows(0), t.fs.masses)
        assert np.allclose(got[t.valid_mask], want[t.valid_mask], atol=1e-9)

    def test_single_risk_conditional_mean_is_identity(self):
        t = allocate_independent([explicit_risk(PARTNER)], 16)
        k = np.arange(16.0)
        valid = t.valid_mask
        assert valid[:5].all()
        assert np.allclose(per_mass(t.rows(0), t.fs.masses)[valid], k[valid], atol=1e-10)

    def test_bernoulli_pool_matches_enumeration(self, bernoulli_pool):
        t = allocate_independent(bernoulli_pool, 64)
        o = oracle_enumerate(PortfolioModel(risks=bernoulli_pool), 64)
        assert np.max(np.abs(t.expected_allocation - o.expected_allocation)) <= 1e-10

    @pytest.mark.parametrize("m, q", [(4, 0.7), (3, 0.5), (6, 0.95)])
    def test_binomial_count_matches_enumeration(self, m, q):
        # q >= 1/2 gives a <= -1; at q = 1/2 the pgf (1 + z)^m / 2^m vanishes at z = -1
        risks = [binomial_risk(m, q), explicit_risk(PARTNER)]
        t = allocate_independent(risks, 16)
        o = oracle_enumerate(PortfolioModel(risks=risks), 16)
        assert np.max(np.abs(t.expected_allocation - o.expected_allocation)) <= 1e-12
        assert t.expected_allocation[0].sum() == pytest.approx(m * q, rel=1e-12)

    def test_pgf_vanishing_on_the_roots_matches_enumeration(self):
        # b=1, q=0.5 has pgf 0.5 + 0.5 z, which vanishes at z = -1
        risks = [BernoulliRisk(1, 0.5), BernoulliRisk(2, 0.3), BernoulliRisk(3, 0.7)]
        t = allocate_independent(risks, 8)
        o = oracle_enumerate(PortfolioModel(risks=risks), 8)
        assert np.max(np.abs(t.expected_allocation - o.expected_allocation)) <= 1e-12

    def test_many_pgfs_vanishing_on_the_roots_match_size_biased_oracle(self):
        # 0.25 (1 + z + z^2 + z^3) vanishes at z = -1, +i and -i, all roots of unity
        n, kmax = 40, 256
        risk = explicit_risk([0.25] * 4)
        t = allocate_independent([risk] * n, kmax)
        others = np.eye(1, kmax)[0]
        for _ in range(n - 1):
            others = np.convolve(others, risk.pmf_vector(kmax))[:kmax]
        want = oracle_size_biased(risk, pmf_from_values(others))
        assert np.max(np.abs(t.expected_allocation - want)) <= 1e-10

    def test_bernoulli_pgfs_are_their_mass_transforms(self):
        # 100 Bernoulli risks at 2^10: the pgfs are the transforms of the pmfs the spectra read,
        # which holds the identity to 2e-15 and keeps at least 225 points valid
        rng = np.random.default_rng(3)
        kmax, b, q = 1024, rng.integers(1, 12, size=100), rng.uniform(0.01, 0.3, size=100)
        risks = [BernoulliRisk(int(bi), float(qi)) for bi, qi in zip(b, q)]
        t = allocate_independent(risks, kmax)
        assert t.identity_deviation() <= 2e-15
        valid = t.valid_mask
        assert valid.sum() >= 225
        want, got = oracle_size_biased_rows(risks, kmax)[:, valid], t.expected_allocation[:, valid]
        scale = np.where(want > 0.0, want, t.fs.masses[valid])  # a zero entry against its column's f_S
        assert np.all(np.abs(got - want) <= 1e-8 * scale)

    def test_compound_risk_keeps_its_severity_step(self):
        risk = CompoundKatzRisk(KatzParams.negative_binomial(2.0, 0.5),
                                pmf_from_values([0.0, 0.5, 0.5], step_h=0.5))
        partner = compound_poisson_risk(0.4, pmf_from_values([0.0, 0.3, 0.7], step_h=0.5))
        t = allocate_independent([risk, partner], 256)
        assert t.fs.step_h == 0.5 and risk.mean() == pytest.approx(1.5)
        assert t.expected_allocation.sum(axis=1) == pytest.approx([1.5, partner.mean()], abs=1e-9)

    def test_mixed_lattice_steps_raise(self):
        half = compound_poisson_risk(0.3, pmf_from_values([0.0, 1.0], step_h=0.5))
        with pytest.raises(AllocationError, match="different lattice steps"):
            allocate_independent([half, poisson_risk(0.3)], 16)
        with pytest.raises(AllocationError, match="different lattice steps"):
            allocate_independent([half, explicit_risk([0.5, 0.5])], 16)
        with pytest.raises(AllocationError, match="different lattice steps"):
            allocate_compound_poisson_pool([half, compound_poisson_risk(0.3, [0.0, 1.0])], 16)

    def test_empty_portfolio(self):
        with pytest.raises(EmptyDistribution):
            allocate_independent([], 8)

    def test_aliasing_warning_when_support_exceeds_buffer(self):
        with pytest.warns(AliasingRisk):
            allocate_independent([BernoulliRisk(40, 0.5), BernoulliRisk(40, 0.5)], 64)

    def test_spectra_are_formed_in_place(self):
        # a row block's pmfs are weighted by k and transformed with no copy beside them:
        # 500 risks at 2^13 peak at 36.6 B per risk-point, 40.7 with the copies
        rng = np.random.default_rng(3)
        n, kmax = 500, 2**13
        risks = [BernoulliRisk(int(b), float(q)) for b, q in zip(rng.integers(1, 12, n), rng.uniform(0.01, 0.3, n))]
        _, peak = traced_peak(lambda: allocate_independent(risks, kmax))
        assert peak <= 38 * n * kmax

    def test_oracle_triangle_on_random_portfolios(self, rng):
        for _ in range(5):
            risks = small_explicit_portfolio(rng)
            kmax = 64
            t = allocate_independent(risks, kmax)
            o = oracle_enumerate(PortfolioModel(risks=risks), kmax)
            assert np.max(np.abs(t.expected_allocation - o.expected_allocation)) <= 1e-10
            sb = oracle_size_biased_rows(risks, kmax)
            assert np.max(np.abs(sb - t.expected_allocation)) <= 1e-10


def multi_block_pool(rng, n):
    """Poisson random sums whose severities range from 2 to about 3,000 points."""
    pool = []
    for i in range(n):
        if i % 3 == 0:
            w = rng.uniform(0.05, 1.0, size=int(rng.integers(2, 12)))
            sev = w / w.sum()
        else:
            masses, lengths = negbin_rows([float(rng.integers(1, 7))], [float(rng.uniform(0.2, 0.9))], 4096)
            sev = masses[0, : lengths[0]]
        pool.append(CompoundKatzRisk(KatzParams.poisson(float(rng.uniform(0.05, 0.5))),
                                     pmf_from_values(sev)))
    return pool


def band_width(table):
    """The band width J that a Poisson-pool table records in its first truncation note."""
    return int(re.search(r"band J=(\d+)", table.truncation.notes[0])[1])


class TestTableInvariants:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_identities_on_random_portfolios(self, seed):
        rng = np.random.default_rng(seed)
        risks = small_explicit_portfolio(rng)
        t = allocate_independent(risks, 64)
        k = np.arange(64.0)
        # every payment unit at S=k is attributed to someone
        assert t.identity_deviation() <= 1e-10
        # per-risk totals recover the means
        for i, r in enumerate(risks):
            assert t.expected_allocation[i].sum() == pytest.approx(r.mean(), abs=1e-9)
        # the conditional means are the rows over f_S, NaN where that mass is exactly 0
        mu = t.expected_allocation
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(t.fs.masses != 0.0, mu / t.fs.masses, np.nan)
        assert np.array_equal(per_mass(mu, t.fs.masses), cond, equal_nan=True)
        assert np.allclose(t.validation_curve, cond.sum(axis=0), rtol=1e-12, equal_nan=True)
        for kk in (0, 5, 63):
            assert np.array_equal(t.conditional_mean_at(kk), cond[:, kk], equal_nan=True)
        # conditional means live on [0, min(k, own support)]
        for i, r in enumerate(risks):
            vals = cond[i][t.valid_mask]
            bound = np.minimum(k[t.valid_mask], r.support_top())
            assert np.all(vals >= -1e-8)
            assert np.all(vals <= bound + 1e-8)

    def test_mask_validity_retolerance(self, small_pool):
        t = allocate_compound_poisson_pool(small_pool, 64)
        loose = mask_validity(t, 1e-2)
        strict = mask_validity(t, 1e-12)
        assert loose.valid_mask.sum() >= t.valid_mask.sum() >= strict.valid_mask.sum()
        assert loose.tolerance_used == 1e-2
        # a higher floor masks the deep tail; the arrays are shared, not copied
        floored = mask_validity(t, underflow_floor=1e-13)
        assert floored.underflow_floor == 1e-13 and floored.tolerance_used == t.tolerance_used
        assert np.array_equal(floored.valid_mask, t.valid_mask & (t.fs.masses > 1e-13))
        assert floored.valid_mask.sum() < t.valid_mask.sum()
        assert floored.weights is t.weights and floored.column_sum is t.column_sum
        # the defaults give back the engine's own mask
        assert np.array_equal(mask_validity(floored).valid_mask, t.valid_mask)

    def test_mass_below_roundoff_raises(self):
        mu = np.zeros((1, 4))
        with pytest.raises(InvalidPMF, match="not round-off"):
            assemble_table(np.array([0.5, 0.5, 2e-9, -2e-9]), mu, [0.0])
        # round-off within 1e-9 is kept as it is
        t = assemble_table(np.array([0.5, 0.5, 1e-10, -1e-10]), mu, [0.0])
        assert t.fs.masses[3] == -1e-10 and not t.valid_mask[3]

    def test_identity_deviation_reads_the_stored_column_sum(self, small_pool):
        dense = allocate_independent(small_pool, 64)
        assert np.array_equal(dense.column_sum, dense.expected_allocation.sum(axis=0))
        # a pool's column sum is the one convolution (1^T W) * f_S, not a sum of its rows
        t = allocate_compound_poisson_pool(small_pool, 64)
        rows_sum = t.expected_allocation.sum(axis=0)
        assert np.all(np.abs(t.column_sum - rows_sum) <= 4 * EPS * rows_sum)
        for table in (dense, t):
            target = np.arange(64.0) * table.fs.masses
            rel = np.abs(table.column_sum - target) / (1.0 + np.abs(target))
            assert table.identity_deviation() == rel[table.valid_mask].max()

    def test_degenerate_total_has_single_valid_point(self):
        t = allocate_independent([explicit_risk([0, 0, 1.0])], 8)
        assert t.valid_mask.sum() == 1
        assert t.valid_mask[2]


class TestKatzClosedForm:
    def test_poisson_row(self):
        lam = 0.7
        risks = [poisson_risk(lam), explicit_risk(PARTNER)]
        t = allocate_independent(risks, 64)
        alloc, cum = allocate_katz_closed_form(KatzParams.poisson(lam), t.fs)
        want = np.concatenate([[0.0], lam * t.fs.masses[:-1]])
        assert np.max(np.abs(alloc - want)) <= 1e-12
        assert np.max(np.abs(cum - np.cumsum(alloc))) <= 1e-12

    def test_zero_at_origin(self):
        fs = pmf_from_values([0.3, 0.4, 0.2, 0.1])
        for params in (KatzParams.poisson(0.5), KatzParams.negative_binomial(2, 0.6)):
            alloc, cum = allocate_katz_closed_form(params, fs)
            assert alloc[0] == 0.0 and cum[0] == 0.0

    @pytest.mark.parametrize(
        "params",
        [
            KatzParams.poisson(0.7),
            KatzParams.negative_binomial(2.0, 0.6),
            KatzParams.binomial(5, 0.3),
        ],
    )
    def test_matches_transform_path(self, params):
        risks = [CompoundKatzRisk(params, UNIT_CLAIM), explicit_risk(PARTNER)]
        t = allocate_independent(risks, 128)
        alloc, cum = allocate_katz_closed_form(params, t.fs)
        assert np.max(np.abs(alloc - t.expected_allocation[0])) <= 1e-11
        # linear relation tying allocation, cumulative allocation and the cdf
        a, b = params.a, params.b
        FS = np.concatenate([[0.0], np.cumsum(t.fs.masses)[:-1]])
        resid = (a - 1.0) * cum - a * alloc + (a + b) * FS
        assert np.max(np.abs(resid)) <= 1e-10

    def test_poisson_counts_take_the_pool_engine(self):
        # a Poisson count is a Poisson random sum of unit claims, so the portfolio is factored
        lams = (0.7, 1.3)
        risks = [poisson_risk(lam) for lam in lams] + [compound_poisson_risk(0.4, [0.0, 0.5, 0.5])]
        table = allocate_portfolio(PortfolioModel(risks=risks), 32)
        assert table.seq is not None
        oracle = oracle_enumerate(PortfolioModel(risks=risks), 32)
        valid = table.valid_mask
        assert valid.sum() > 10
        gap = np.abs(table.expected_allocation - oracle.expected_allocation)[:, valid]
        assert gap.max() <= 1e-10
        for i, lam in enumerate(lams):
            alloc, _ = allocate_katz_closed_form(KatzParams.poisson(lam), table.fs)
            assert np.max(np.abs(alloc - table.rows(i))) <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @example(11565011)  # total mean 0.36: f_S is above the floor, and valid, at k = 0..19 only
    @settings(max_examples=20, deadline=None)
    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_negative_binomial_counts_take_the_pool_engine(self, seed):
        # an NB count is a Poisson number of log-series claims, so beside Poisson random sums
        # the portfolio is factored, and it agrees with both transform-free oracles
        rng = np.random.default_rng(seed)
        risks = [negative_binomial_risk(float(rng.uniform(0.3, 6.0)), float(rng.uniform(0.2, 0.95)))
                 for _ in range(rng.integers(1, 3))]
        risks += [compound_poisson_risk(float(rng.uniform(0.1, 1.0)), [0.0, *rng.dirichlet(np.ones(3))])]
        portfolio, kmax = PortfolioModel(risks=risks), 64
        table = allocate_portfolio(portfolio, kmax)
        assert table.seq is not None
        valid = table.valid_mask
        assert np.array_equal(valid, table.fs.masses > table.underflow_floor)
        for want in (oracle_enumerate(portfolio, kmax).expected_allocation, oracle_size_biased_rows(risks, kmax)):
            assert np.max(np.abs(table.expected_allocation - want)[:, valid]) <= 1e-10

    def test_negative_binomial_count_row_is_its_closed_form(self):
        count = negative_binomial_risk(2.5, 0.45)
        table = allocate_compound_poisson_pool([count, compound_poisson_risk(0.4, [0.0, 0.5, 0.5])], 128)
        alloc, _ = allocate_katz_closed_form(count.frequency, table.fs)
        row = table.rows(0)
        assert np.max(np.abs(alloc - row)) <= 1e-12 * row.max()

    @pytest.mark.parametrize("partner", [BernoulliRisk(3, 0.2), binomial_risk(4, 0.3)], ids=["bernoulli", "binomial"])
    def test_negative_binomial_count_beside_other_margins_stays_factored(self, partner):
        # the other margin takes its own dense row, and the table stays one product over f_pool
        risks = [negative_binomial_risk(2.0, 0.5), partner]
        table = allocate_portfolio(PortfolioModel(risks=risks), 64)
        assert table.seq is not None
        valid = table.valid_mask
        assert valid.sum() > 20
        assert np.max(np.abs(table.expected_allocation - oracle_size_biased_rows(risks, 64))[:, valid]) <= 1e-10

    def test_negative_binomial_counts_are_read_one_block_at_a_time(self):
        # each count's log-series row (all kmax points at q < 0.2) is formed as its block is
        # read: the run holds a few blocks of rows, not the 1000 rows (about eight blocks)
        kmax, n = 2**12, 1000
        rng = np.random.default_rng(3)
        risks = [negative_binomial_risk(float(r), float(q))
                 for r, q in zip(rng.uniform(0.01, 0.05, n), rng.uniform(0.05, 0.2, n))]
        t, peak = traced_peak(lambda: allocate_compound_poisson_pool(risks, kmax))
        assert t.valid_mask.sum() > 500
        assert peak < 4 * ROW_BLOCK * kmax * 8

    def test_binomial_text_parameterization(self):
        # the b used for binomial counts is (m+1) q/(1-q); the transform path arbitrates
        params = KatzParams.binomial(4, 0.2)
        assert params.b == pytest.approx(5 * 0.2 / 0.8)


class TestNegbinSeries:
    def test_single_risk_reduces_to_weighted_pmf(self):
        r, q = 2.5, 0.4
        f = negative_binomial_risk(r, q).pmf_vector(32)
        for k in (1, 2, 5, 9):
            got = allocate_negbin_convolution([(r, q)], k)
            assert got == pytest.approx(k * f[k], rel=1e-12)

    def test_two_risks_match_transform_path(self):
        rs, qs = (2.0, 3.0), (0.5, 0.65)
        risks = [negative_binomial_risk(r, q) for r, q in zip(rs, qs)]
        t = allocate_independent(risks, 128)
        for k in (1, 3, 7, 15):
            got = allocate_negbin_convolution(list(zip(rs, qs)), k)
            assert got == pytest.approx(t.expected_allocation[0][k], abs=1e-10)

    def test_equal_q_matches_closed_form(self):
        rs, qs = (2.0, 3.0), (0.5, 0.5)
        risks = [negative_binomial_risk(r, q) for r, q in zip(rs, qs)]
        t = allocate_independent(risks, 128)
        alloc, _ = allocate_katz_closed_form(KatzParams.negative_binomial(rs[0], qs[0]), t.fs)
        for k in (1, 4, 10):
            got = allocate_negbin_convolution(list(zip(rs, qs)), k)
            assert got == pytest.approx(alloc[k], abs=1e-10)

    def test_zero_point(self):
        assert allocate_negbin_convolution([(2.0, 0.5)], 0) == 0.0

    def test_accepts_katz_risks(self):
        got = allocate_negbin_convolution([negative_binomial_risk(2.0, 0.5).frequency], 3)
        f = negative_binomial_risk(2.0, 0.5).pmf_vector(8)
        assert got == pytest.approx(3 * f[3], rel=1e-12)

    def test_budget(self):
        with pytest.raises(SeriesTruncation):
            allocate_negbin_convolution([(2.0, 0.5)], 10**6, ell_max=10)


@pytest.mark.parametrize(
    "count",
    [
        KatzParams.poisson(0.9),
        KatzParams.negative_binomial(2.0, 0.55),
        KatzParams.binomial(3, 0.3),
        KatzParams.binomial(4, 0.7),
        KatzParams.binomial(3, 0.5),
        KatzParams.binomial(6, 0.95),
    ],
    ids=["poisson", "negative_binomial", "binomial", "binomial_q0.7", "binomial_q0.5", "binomial_q0.95"],
)
def test_random_sum_risk_matches_size_biased_oracle(count):
    risk = CompoundKatzRisk(count, pmf_from_values([0.0, 0.6, 0.4]))
    partner = explicit_risk(PARTNER)
    t = allocate_independent([risk, partner], 128)
    for row, (own, other) in enumerate([(risk, partner), (partner, risk)]):
        want = oracle_size_biased(own, pmf_from_values(other.pmf_vector(128)))
        assert np.max(np.abs(t.expected_allocation[row] - want)) <= 1e-12


def test_underflowing_random_sum_next_to_a_count():
    # Poisson(800) over [0, 0.5, 0.5] has f(0) = exp(-800); an unscaled Panjer
    # start gives all-zero masses, a zero allocation row and no valid point
    risk = compound_poisson_risk(800.0, [0.0, 0.5, 0.5])
    partner = negative_binomial_risk(2.0, 0.5)
    table = allocate_independent([risk, partner], 4096)
    valid = table.valid_mask
    assert valid.sum() > 300
    want = oracle_size_biased(risk, pmf_from_values(partner.pmf_vector(4096)))
    np.testing.assert_allclose(table.expected_allocation[0][valid], want[valid], rtol=1e-10, atol=0.0)
    assert table.expected_allocation[0].sum() == pytest.approx(1200.0, rel=1e-12)


class TestAlgorithmOne:
    def test_single_risk_conditional_mean_is_identity(self):
        risk = compound_poisson_risk(0.4, [0.0, 0.5, 0.5])
        t = allocate_compound_poisson_pool([risk], 64)
        k = np.arange(64.0)
        assert np.allclose(per_mass(t.rows(0), t.fs.masses)[t.valid_mask], k[t.valid_mask], atol=1e-8)

    def test_matches_generic_independent_path(self, small_pool):
        t1 = allocate_compound_poisson_pool(small_pool, 64)
        t2 = allocate_independent(small_pool, 64)
        assert np.max(np.abs(t1.expected_allocation - t2.expected_allocation)) <= 1e-12

    def test_repeat_runs_agree_exactly(self, small_pool):
        a = allocate_compound_poisson_pool(small_pool, 64)
        b = allocate_compound_poisson_pool(small_pool, 64)
        assert np.array_equal(a.expected_allocation, b.expected_allocation)
        assert np.array_equal(a.fs.masses, b.fs.masses)

    def test_pool_spanning_several_blocks(self):
        kmax = 2**16
        pool = multi_block_pool(np.random.default_rng(20260810), 70)
        t = allocate_compound_poisson_pool(pool, kmax)
        assert len(row_blocks(kmax, max(len(pool), band_width(t)))) >= 3  # column blocks
        valid = t.valid_mask
        top = int(np.flatnonzero(valid)[-1]) + 1
        assert valid.sum() >= 200 and top <= 4096
        # f_S against the counting recursion for the aggregate random sum
        lam = np.array([r.frequency.b for r in pool])
        mix = np.zeros(4096)
        for r in pool:
            mix[: len(r.severity.masses)] += r.frequency.b * r.severity.masses
        panjer = compound_pmf_panjer(KatzParams.poisson(lam.sum()), mix / lam.sum(), 4096)
        assert np.max(np.abs(t.fs.masses[:4096] - panjer)) <= 1e-14
        # every risk's row against lam_i sum_j j f_Bi(j) f_S(k - j) on the valid rows
        fs = t.fs.masses[:top]
        for i, r in enumerate(pool):
            fb = r.severity.masses
            ref = np.convolve(r.frequency.b * np.arange(len(fb)) * fb, fs)[:top]
            row = t.rows(i)
            got = row[:top]
            np.testing.assert_allclose(
                got[valid[:top]], ref[valid[:top]], rtol=1e-11, atol=1e-15 * np.abs(ref).max()
            )
            assert row.sum() == pytest.approx(r.mean(), rel=1e-12)
        # the column read, W T[:, k] / f_S(k), agrees with the dense rows over f_S(k)
        got, want = t.conditional_mean_at(top - 1), t.expected_allocation[:, top - 1] / fs[top - 1]
        assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want))

    def test_streamed_pool_matches_its_risk_list(self):
        # the sampled pool's severities come from the NB block recursion in
        # each pass; the same risks as a list are copied from their arrays
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 1100}, 20260810, 2**12)
        a = allocate_compound_poisson_pool(pool, 2**12)
        b = allocate_compound_poisson_pool(list(pool), 2**12)
        assert band_width(a) == band_width(b) < 1438
        assert np.array_equal(materialised_weights(a), materialised_weights(b))
        above = b.fs.masses > b.underflow_floor
        for got, want in ((a.fs.masses, b.fs.masses), (a.column_sum, b.column_sum)):
            assert np.all(np.abs(got[above] - want[above]) <= 1e-14 * want[above])
        assert np.all(np.abs(a.risk_means - b.risk_means) <= 1e-14 * b.risk_means)
        assert b.risk_means == pytest.approx([r.mean() for r in pool], rel=1e-14)

    def test_mixed_pool_matches_its_risk_list(self):
        # explicit risks ahead of a sampled pool: the chain streams the pool, the
        # list holds every severity; both give the same table on the valid points
        kmax = 2**11
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 300}, 20260810, kmax)
        explicit = [compound_poisson_risk(0.5, [0.0, 1.0]), compound_poisson_risk(0.3, [0.0, 0.2, 0.0, 0.8])]
        chain = RiskChain(explicit, pool)
        a, b = allocate_compound_poisson_pool(chain, kmax), allocate_compound_poisson_pool(list(chain), kmax)
        assert a.n_risks == b.n_risks == 302
        assert band_width(a) == band_width(b)
        valid = b.valid_mask
        assert np.array_equal(a.valid_mask, valid) and valid.sum() > 200
        levels = RVaRLevels(0.9, 0.99)
        for got, want in (
            (a.fs.masses[valid], b.fs.masses[valid]),
            (a.rows(slice(None))[:, valid], b.rows(slice(None))[:, valid]),
            (euler_rvar_contributions(a, levels), euler_rvar_contributions(b, levels)),
        ):
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    def test_small_pool_against_transform_free_references(self, small_pool):
        t = allocate_compound_poisson_pool(small_pool, 64)
        # the longest severity has 5 masses, so the band is all of it
        assert band_width(t) == 5
        top = 41
        # f_S against the counting recursion for the merged random sum
        lam = np.array([r.frequency.b for r in small_pool])
        mix = np.zeros(64)
        for r in small_pool:
            mix[: len(r.severity.masses)] += r.frequency.b * r.severity.masses
        panjer = compound_pmf_panjer(KatzParams.poisson(lam.sum()), mix / lam.sum(), 64)
        np.testing.assert_allclose(t.fs.masses[:top], panjer[:top], rtol=1e-10, atol=0.0)
        # each row against lam_i sum_j j f_Bi(j) f_S(k - j) on the Panjer masses
        for i, r in enumerate(small_pool):
            fb = r.severity.masses
            ref = np.convolve(r.frequency.b * np.arange(len(fb)) * fb, panjer)[:top]
            row = t.rows(i)
            np.testing.assert_allclose(row[1:top], ref[1:], rtol=1e-10, atol=0.0)
            assert abs(row[0]) <= 1e-15
        assert t.valid_mask[:top].all()
        # the exact masses from k = 41 on are below the 1e-15 floor
        assert panjer[top] < t.underflow_floor
        assert not t.valid_mask[top:].any()
        assert np.all(t.fs.masses[top:] <= t.underflow_floor)

    @pytest.mark.parametrize(
        "pool, kmax, band",
        [
            # f_S(0) = e^-40 sits far below eps times the peak of f_S
            ([compound_poisson_risk(40.0, [0.0, 1.0])], 128, 2),
            # a 300-risk pool drawn like the shipped large pool: the plain
            # transform left the lattice points below 10 and above 335 masked;
            # no power of two below its longest row as cut certifies
            (
                sample_risks({"kind": "compound_poisson_negbin", "count": 300}, 20260810, 2**11),
                2**11,
                179,
            ),
            # severities that decay as slowly as the right tail of f_S need a
            # wide band: its far end is the single-claim path j = k
            (
                sample_risks(
                    {"kind": "compound_poisson_negbin", "count": 40, "q_range": [0.15, 0.2]},
                    20260810,
                    2**11,
                ),
                2**11,
                565,
            ),
        ],
        ids=["unit", "pool300", "slow_decay"],
    )
    def test_all_points_above_floor_match_convolution(self, pool, kmax, band):
        # every point above the floor is valid and matches the direct convolution
        t = allocate_compound_poisson_pool(pool, kmax)
        assert band_width(t) == band
        above = t.fs.masses > t.underflow_floor
        assert np.array_equal(t.valid_mask, above)
        # against the uncut sum lam_i sum_j j f_Bi(j) f_S(k - j) on the table's own f_S
        for i, r in enumerate(pool):
            fb = r.severity.masses
            ref = np.convolve(r.frequency.b * np.arange(len(fb)) * fb, t.fs.masses)[:kmax]
            np.testing.assert_allclose(t.rows(i)[above], ref[above], rtol=1e-14, atol=0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_sampled_pools_match_the_uncut_convolution_above_the_floor(self, seed):
        # small random NB pools, about half of them with rows that pass 1 cuts and some read whole:
        # the band and the cuts together move no point above the floor by more than about eps
        rng = np.random.default_rng(seed)
        n, kmax = int(rng.integers(1, 40)), 2 ** int(rng.integers(6, 12))
        pool = PoissonNegbinPool(rng.uniform(0.01, 3.0, n), rng.uniform(0.5, 8.0, n), rng.uniform(0.2, 0.9, n), kmax)
        t = allocate_compound_poisson_pool(pool, kmax)
        above = t.fs.masses > t.underflow_floor
        for row, r in zip(t.rows(slice(None)), pool):
            fb = r.severity.masses
            ref = np.convolve(r.frequency.b * np.arange(len(fb)) * fb, t.fs.masses)[:kmax]
            np.testing.assert_allclose(row[above], ref[above], rtol=1e-14, atol=0.0)

    def test_band_width_returns_the_widest_band_and_the_points_no_band_certifies(self):
        # f_S halves at each point, so what the cuts may leave out at k >= 8, tau(J) f_S(0), is
        # above eps f_S(k) from k = 15 on at every J; the band terms fail every J below the widest.
        # The widest J comes back with exactly the points 15..48 (f_S(48) = 2^-49 is the last
        # above the floor); with no cut, it certifies every point
        fs = 0.5 ** np.arange(1, 65)
        cuts, ratios = [2, 4, 8, 16, 20], np.array([1e-3, 1e-6, 1e-9, 1e-12, 0.0])
        band, uncertified = allocation._band_width(fs, cuts, ratios, np.array([4e-20, 2e-20, 1e-20, 1e-20, 1e-20]), 8)
        assert band == 20
        assert np.array_equal(np.flatnonzero(uncertified), np.arange(15, 49))
        band, uncertified = allocation._band_width(fs, cuts, ratios, np.zeros(5), 8)
        assert band == 20 and not uncertified.any()
        # the claims the cuts drop, at rate 1e-20, join each tau: with no band tail and bounds that
        # certify alone, the rate term fails the same points 15..48 at every J
        band, uncertified = allocation._band_width(fs, cuts, np.zeros(5), np.full(5, 1e-40), 8)
        assert band == 2 and not uncertified.any()
        band, uncertified = allocation._band_width(fs, cuts, np.zeros(5), np.full(5, 1e-40) + 1e-20, 8)
        assert band == 20
        assert np.array_equal(np.flatnonzero(uncertified), np.arange(15, 49))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_certified_band_leaves_out_at_most_eps_of_every_row(self, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(int(rng.integers(1, 6))):
            sev = rng.uniform(0.3, 0.99) ** np.arange(int(rng.integers(2, 200)))
            sev[0] *= rng.uniform()
            pool.append(compound_poisson_risk(float(rng.uniform(0.01, 5.0)), sev / sev.sum()))
        kmax = 256
        t = allocate_compound_poisson_pool(pool, kmax)
        band = band_width(t)
        above = t.fs.masses > t.underflow_floor
        for r in pool:
            fb = r.severity.masses
            w = r.frequency.b * np.arange(len(fb)) * fb
            full = np.convolve(w, t.fs.masses)[:kmax]
            left_out = np.convolve(np.where(np.arange(len(w)) >= band, w, 0.0), t.fs.masses)[:kmax]
            assert np.all(left_out[above] <= np.finfo(float).eps * full[above])

    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_rejects_non_poisson_counts(self):
        # with no Poisson number of claims in the portfolio, the table is the independent engine's
        bad = CompoundKatzRisk(KatzParams.negative_binomial(2, 0.5), pmf_from_values([0, 1.0]))
        t, want = allocate_compound_poisson_pool([bad], 16), allocate_independent([bad], 16)
        assert t.seq is None and np.array_equal(t.weights, want.weights)
        assert np.array_equal(t.fs.masses, want.fs.masses)

    def test_total_allocation_recovers_mean(self):
        risk = CompoundKatzRisk(
            KatzParams.poisson(0.161152),
            pmf_from_values(
                negative_binomial_risk(2, 0.489756).pmf_vector(512)
            ),
        )
        t = allocate_compound_poisson_pool([risk], 2048)
        assert t.expected_allocation[0].sum() == pytest.approx(0.335788, abs=1e-5)

    def test_lost_mass_is_cut_mass_not_round_off(self):
        # no severity of this pool reaches 2^11: each total is 1 up to its summation round-off
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 300}, 20260810, 2**11)
        assert allocate_compound_poisson_pool(pool, 2**11).truncation.lost_mass == 0.0
        # a 40-point severity on a 32-point lattice loses its last 8 masses
        risks = [compound_poisson_risk(0.5, np.full(40, 0.025)), compound_poisson_risk(0.3, [0.0, 0.5, 0.5])]
        with pytest.warns(AliasingRisk, match="severity truncated mass totals"):
            t = allocate_compound_poisson_pool(risks, 32)
        assert t.truncation.aliasing_risk
        assert t.truncation.lost_mass == pytest.approx(0.2, abs=1e-15)

    def test_a_count_cut_at_the_buffer_loses_no_mass(self):
        # NB(2, 0.05) has c(j) = 2 (0.95)^j, far from 0 at j = 63; its unit claims all fit on the
        # buffer, and its c past it reaches no f_S(k), so no mass is lost, while its spread still
        # reaches the top and the headroom check flags it
        risks = [negative_binomial_risk(2.0, 0.05), compound_poisson_risk(0.3, [0.0, 0.5, 0.5])]
        assert canonical_row(risks[0], 64)[-1] > 0.05
        with pytest.warns(AliasingRisk, match="reaches the buffer top"):
            t = allocate_compound_poisson_pool(risks, 64)
        assert t.truncation.aliasing_risk and t.truncation.lost_mass == 0.0
        assert not any("truncated mass" in note for note in t.truncation.notes)
        # each mean is its closed form: the count's is its c on the buffer plus its geometric rest,
        # (a + b) a^63 / (1 - a), 38 in all, not the 36.5 its c alone sums to on 64 points
        assert t.risk_means[0] == pytest.approx(38.0, rel=1e-14)
        assert t.risk_means[1] == pytest.approx(0.45, rel=1e-14)
        assert any("sum mean 38.4 " in note for note in t.truncation.notes)

    def test_pool_reads_each_row_block_once_before_any_query(self, monkeypatch):
        # pass 1 hands assembly its column sum, so building the table reads every row block exactly
        # once, each row cut; the queries read the blocks again, over the band only
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 300}, 20260810, 2**11)
        reads, reader = [], allocation.poisson_pool

        def counting(risks, kmax):
            log_f0, step_h, read, others = reader(risks, kmax)

            def counted(rows, columns=None, whole=False):
                reads.append((rows.start, rows.stop, columns))
                return read(rows, columns, whole)

            return log_f0, step_h, counted, others

        monkeypatch.setattr(allocation, "poisson_pool", counting)
        t = allocate_compound_poisson_pool(pool, 2**11)
        assert reads == [(lo, min(lo + ROW_BLOCK, 300), None) for lo in range(0, 300, ROW_BLOCK)]
        assert "read whole" not in t.truncation.notes[0]
        reads.clear()
        t.band(1500, np.ones(4))
        assert reads == [(lo, min(lo + ROW_BLOCK, 300), band_width(t)) for lo in range(0, 300, ROW_BLOCK)]
        # pass 1's column sum is the one the blocks of W give, summed in order of rows
        assert np.array_equal(t.column_sum, allocation._toeplitz_rows(materialised_weights(t).sum(axis=0), t.seq))

    def test_claims_a_cut_drops_move_f_s_by_at_most_their_rate(self):
        # C without the claims of sizes 40..59, at a total rate of about 1e-10, gives f_S short by at
        # most that rate times the largest f_S(m), m <= k - 40; the points where that bound is above
        # eps times f_S(k) are the ones flagged, for a rate of 1e-20 only those deep in the tail
        kept = np.zeros(40)
        kept[1:] = 3.0 * np.arange(1, 40) * 0.8 ** np.arange(1, 40)
        dropped = np.zeros(60)
        dropped[40:] = np.arange(40, 60) * 5e-11
        rate, log_f0 = float((dropped / np.maximum(np.arange(60), 1)).sum()), -(kept[1:] / np.arange(1, 40)).sum()
        cut = counting_recursion(log_f0 - rate, kept[1:], 512)
        whole = counting_recursion(log_f0 - rate, (np.pad(kept, (0, 20)) + dropped)[1:], 512)
        peak = np.maximum.accumulate(cut)
        bound = np.concatenate([np.zeros(40), rate * peak[:-40]])
        assert np.all(np.abs(whole - cut) <= bound * (1.0 + 1e-6) + 1e-14 * cut)
        assert (whole - cut)[40:].max() > 0.0
        # a band of width 1 with no tail and no bound leaves the rate term alone, against f_S(k) itself
        above = cut > allocation.DEFAULT_UNDERFLOW_FLOOR
        _, flagged = allocation._band_width(cut, [1], np.zeros(1), np.array([rate]), 40)
        assert np.array_equal(flagged, above & (bound > EPS * cut))
        _, flagged = allocation._band_width(cut, [1], np.zeros(1), np.array([1e-20]), 40)
        assert np.array_equal(flagged, above & (bound * (1e-20 / rate) > EPS * cut))
        assert not flagged[:40].any() and 0 < flagged.sum() < 512 - 40 and flagged[above][-1]

    def test_negative_round_off_in_f_s_does_not_read_the_rows_whole(self, monkeypatch):
        # the Bernoulli margin's f_rest comes from an inverse transform, with round-off below 0 at
        # the exact zeros of f_S (k = 1, 4, 7, ...); no row is cut, so pass 1 runs once, and its
        # table is the one read whole
        risks = [compound_poisson_risk(1.0, [0.5, 0.0, 0.0, 0.5]), BernoulliRisk(2, 0.5)]
        t = allocate_compound_poisson_pool(risks, 64)
        assert "rows read whole" not in t.truncation.notes[0]
        reader = allocation.poisson_pool

        def whole_only(risks, kmax):
            log_f0, step_h, read, others = reader(risks, kmax)
            return log_f0, step_h, lambda rows, columns=None, whole=False: read(rows, columns, True), others

        monkeypatch.setattr(allocation, "poisson_pool", whole_only)
        whole = allocate_compound_poisson_pool(risks, 64)
        assert np.array_equal(t.fs.masses, whole.fs.masses)
        assert np.array_equal(t.rows(slice(None)), whole.rows(slice(None)))
        assert np.array_equal(t.valid_mask, whole.valid_mask)

    def test_sampled_pool_in_a_chain_is_its_listed_risks_exactly(self):
        # a sampled row is cut where its listed risk's row is, with the same bound, so the chain and the
        # list sum the same C and column sum in the same order: f_S, 1^T W and every row are equal
        kmax = 2**11
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 300}, 20260810, kmax)
        explicit = [compound_poisson_risk(0.5, [0.0, 1.0])]
        listed = [compound_poisson_negbin_risk(lam, r, q, pool.severity_length)
                  for lam, r, q in zip(pool.lam.tolist(), pool.r.tolist(), pool.q.tolist())]
        a = allocate_compound_poisson_pool(RiskChain(explicit, pool), kmax)
        b = allocate_compound_poisson_pool(explicit + listed, kmax)
        assert a.truncation.notes == b.truncation.notes
        assert np.array_equal(a.fs.masses, b.fs.masses)
        assert np.array_equal(a.column_sum, b.column_sum)
        assert np.array_equal(a.rows(slice(None)), b.rows(slice(None)))
        assert np.array_equal(a.valid_mask, b.valid_mask)

    def test_sampled_pool_matches_the_size_biased_oracle(self):
        # the oracle convolves every severity whole; the table cuts each row where the rest is below
        # eps^2 of it, and agrees within the pool tolerance on every valid point
        kmax = 512
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 12, "lam_exp_mean": 0.3}, 20260810, kmax)
        t = allocate_compound_poisson_pool(pool, kmax)
        assert band_width(t) <= int(re.search(r"of (\d+)", t.truncation.notes[0])[1]) < 256
        want = oracle_size_biased_rows(list(pool), kmax)
        valid = t.valid_mask
        assert valid.sum() > 150
        got = t.expected_allocation
        np.testing.assert_allclose(got[:, valid], want[:, valid], rtol=1e-11, atol=1e-15 * np.abs(want).max())

    def test_a_cut_that_cannot_be_certified_reads_the_rows_whole(self):
        # one risk of NB(1000, 0.5) claims, mean 1000 and sd 45: f_S is lumps at 0, 1000, 2000, ...
        # with troughs far below their peaks, so the bound on the cut row's rest cannot be certified
        # against f_S at the second lump; pass 1 runs again with the row whole, which gives the
        # table of the uncut row
        kmax = 4096
        pool = PoissonNegbinPool([0.5], [1000.0], [0.5], kmax)
        t = allocate_compound_poisson_pool(pool, kmax)
        assert "(rows read whole: their cuts left " in t.truncation.notes[0]
        risk = pool[0]
        length = len(risk.severity.masses)
        assert f"band J={length} of {length}" in t.truncation.notes[0]
        c = canonical_row(risk, length)
        fs = counting_recursion(risk.frequency.log_pgf(0.0), c[1:], kmax)
        assert np.array_equal(t.fs.masses, fs)
        assert np.array_equal(t.rows(0), np.convolve(c, fs)[:kmax])


class TestLayers:
    def test_telescoping(self, small_pool):
        t = allocate_compound_poisson_pool(small_pool, 64)
        retained, layer, excess = cumulative_and_layers(t, 2, 5, 0)
        assert retained + layer + excess == pytest.approx(t.risk_means[0], abs=1e-10)

    def test_poisson_retained_is_scaled_cdf(self):
        lam = 0.7
        t = allocate_independent([poisson_risk(lam), explicit_risk(PARTNER)], 64)
        l1, l2 = 3, 7
        retained, _, _ = cumulative_and_layers(t, l1, l2, 0)
        FS = np.cumsum(t.fs.masses)
        assert retained == pytest.approx(lam * FS[l1 - 1], abs=1e-12)

    def test_excess_vanishes_when_top_layer_covers_the_grid(self):
        # a truncated margin keeps its deficit in the truncation report, so the
        # in-table mean is fully swept up once l2 reaches the grid top
        full = poisson_risk(3.0).pmf_vector(256)
        trunc = pmf_from_values(full[:12])
        with pytest.warns(AliasingRisk):
            t = allocate_independent([ExplicitRisk(trunc), explicit_risk(PARTNER)], 32)
        *_, excess = cumulative_and_layers(t, 2, 31, 0)
        assert abs(excess) <= 1e-10
        assert t.truncation.lost_mass == pytest.approx(1.0 - trunc.total_mass, abs=1e-12)

    def test_bad_bounds(self):
        t = allocate_independent([explicit_risk(PARTNER)], 16)
        with pytest.raises(InvalidLayer):
            cumulative_and_layers(t, 5, 5, 0)


class TestOracles:
    def test_two_iid_bernoulli(self):
        risks = [explicit_risk([0.5, 0.5]), explicit_risk([0.5, 0.5])]
        o = oracle_enumerate(PortfolioModel(risks=risks), 8)
        assert o.expected_allocation[0][1] == pytest.approx(0.25)

    def test_two_poisson_proportionality(self):
        f = poisson_risk(1.0).pmf_vector(21)
        risks = [
            ExplicitRisk(pmf_from_values(f)),
            ExplicitRisk(pmf_from_values(f)),
        ]
        o = oracle_enumerate(PortfolioModel(risks=risks), 64)
        k = np.arange(64.0)
        want = 0.5 * k * o.fs.masses
        assert np.max(np.abs(o.expected_allocation[0] - want)) <= 1e-12

    def test_budget_guard(self):
        risks = [explicit_risk(np.full(100, 0.01)) for _ in range(5)]
        with pytest.raises(OracleBudget):
            oracle_enumerate(PortfolioModel(risks=risks), 512, budget=10_000)

    def test_size_biased_degenerate(self):
        risk = explicit_risk([0, 0, 1.0])  # always pays 2
        others = pmf_from_values([0.25, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0])
        sb = oracle_size_biased(risk, others)
        want = np.zeros(8)
        want[2:5] = 2.0 * np.array([0.25, 0.5, 0.25])
        assert np.allclose(sb, want, atol=1e-15)

    def test_size_biased_poisson_row(self):
        lam = 0.7
        fX = poisson_risk(lam).pmf_vector(64)
        partner = np.pad(PARTNER, (0, 59))
        sb = oracle_size_biased(
            ExplicitRisk(pmf_from_values(fX)),
            pmf_from_values(partner),
        )
        t = allocate_independent([poisson_risk(lam), explicit_risk(PARTNER)], 64)
        assert np.max(np.abs(sb - t.expected_allocation[0])) <= 1e-11

    def test_size_biased_matches_pipeline_on_compound_pool(self, small_pool):
        t = allocate_compound_poisson_pool(small_pool, 64)
        others = np.zeros(64)
        others[0] = 1.0
        for r in small_pool[1:]:
            others = np.convolve(others, r.pmf_vector(64))[:64]
        sb = oracle_size_biased(small_pool[0], pmf_from_values(others))
        assert np.max(np.abs(sb - t.expected_allocation[0])) <= 1e-11

    def test_zero_mean_risk(self):
        sb = oracle_size_biased(explicit_risk([1.0]), pmf_from_values([0.5, 0.5]))
        assert np.all(sb == 0.0)


def factored_table(name, scenario_dir):
    """A Poisson-pool table: a shipped pool scenario's, a 300-risk sampled pool's, or that pool's after two other margins."""
    if name.startswith("pool300"):
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 300}, 20260810, 2**11)
        if name == "pool300_mixed":
            pool = RiskChain([BernoulliRisk(3, 0.2), binomial_risk(4, 0.3)], pool)
        return allocate_compound_poisson_pool(pool, 2**11)
    built = build_portfolio(load_scenario(scenario_dir / f"{name}.yaml"))
    return allocate_portfolio(built.portfolio, built.kmax)


def traced_peak(call):
    """``call()`` and the most memory tracemalloc saw allocated during it, above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestFactoredTable:
    """Every query of a factored table against the dense product W T, formed by blocks of columns.

    The product is taken in long double (extended precision on x86-64): in
    doubles, its running sums over the band are themselves up to 7 eps of the
    row's scale off on the 300-risk pool.  Each answer is held to 4 eps of its
    row's scale: the largest entry of the row, times the total weight for a
    band, or the row's total for the layer split, whose prefix sums are
    compared with the same prefix sums of the product rounded to doubles.
    """

    @pytest.mark.parametrize("name", ("small_pool", "shock", "gamma_mixture", "pool300", "pool300_mixed"))
    def test_queries_match_the_dense_product(self, name, scenario_dir):
        t = factored_table(name, scenario_dir)
        assert t.seq is not None and t.weights.shape[1] < t.kmax
        mu = factored_product(t)
        scale = np.abs(mu).max(axis=1)
        n = t.n_risks

        def close(got, want, tol):
            return np.all(np.abs(got - want) <= 4 * EPS * tol)

        assert close(t.expected_allocation, mu, scale[:, None])
        some = [0, n // 2, n - 1]
        assert close(t.rows(some), mu[some], scale[some, None])
        assert close(t.rows(n - 1), mu[n - 1], scale[n - 1])
        assert close(t.column_sum, mu.sum(axis=0), mu.sum(axis=0).max())

        valid = np.flatnonzero(t.valid_mask)
        for k in (valid[0], valid[len(valid) // 2], valid[-1]):
            assert close(t.conditional_mean_at(k), mu[:, k] / t.fs.masses[k], scale / t.fs.masses[k])
        i1 = valid[len(valid) // 4]
        w = np.random.default_rng(5).uniform(0.0, 1.0, size=min(40, t.kmax - i1))
        assert close(t.band(i1, w), mu[:, i1 : i1 + len(w)] @ w, scale * w.sum())

        # the same prefix sums, in doubles, of the product rounded once
        cum = np.cumsum(mu.astype(float), axis=1)
        l1, l2 = valid[len(valid) // 3], valid[2 * len(valid) // 3]
        for risk in some:
            retained, layer, excess = cumulative_and_layers(t, l1, l2, risk)
            want = (cum[risk, l1], cum[risk, l2] - cum[risk, l1], t.risk_means[risk] - cum[risk, l2])
            tol = max(cum[risk, -1], t.risk_means[risk])
            assert close(np.array([retained, layer, excess]), np.array(want), tol)

    @pytest.mark.parametrize("name", ("small_pool", "pool300"))
    def test_regroup_keeps_the_table_factored(self, name, scenario_dir):
        t = factored_table(name, scenario_dir)
        mu = factored_product(t)
        dense = assemble_table(t.fs.masses, mu.astype(float), t.risk_means)
        assert dense.seq is None
        # two risks: the first half of the pool and the rest, with one piece shared
        n = t.n_risks
        loading = np.zeros((2, n))
        loading[0, : n // 2] = 1.0
        loading[1, n // 2 :] = 1.0
        loading[:, 0] = 0.5
        means = loading @ t.risk_means
        a, b = regroup(t, loading, means), regroup(dense, loading, means)
        assert a.seq is not None and a.weights.shape == (2, t.weights.shape[1])
        # both within 4 eps of each row's scale of the regrouped product in extended precision
        want = loading @ mu
        scale = want.max(axis=1, keepdims=True)
        for table in (a, b):
            assert np.all(np.abs(table.expected_allocation - want) <= 4 * EPS * scale)
            assert np.all(np.abs(table.column_sum - want.sum(axis=0)) <= 4 * EPS * want.sum(axis=0).max())
        assert np.array_equal(a.valid_mask, b.valid_mask)

    def test_lattice_step_carries_into_the_weights(self):
        # on a half-unit lattice every read is in payment units, as the transform route's are
        pool = [
            compound_poisson_risk(0.7, pmf_from_values([0.0, 0.5, 0.5], step_h=0.5)),
            compound_poisson_risk(0.4, pmf_from_values([0.0, 0.3, 0.7], step_h=0.5)),
        ]
        t, dense = allocate_compound_poisson_pool(pool, 64), allocate_independent(pool, 64)
        assert t.seq is not None and t.fs.step_h == 0.5
        assert np.max(np.abs(t.expected_allocation - dense.expected_allocation)) <= 1e-15
        assert t.rows(1).sum() == pytest.approx(pool[1].mean(), rel=1e-14)
        assert t.identity_deviation() <= 1e-15
        w = np.linspace(0.5, 1.0, 6)
        assert np.max(np.abs(t.band(3, w) - dense.band(3, w))) <= 1e-15

    def test_band_matches_the_unblocked_row_sums(self, scenario_dir):
        # 300 rows: two full row blocks and a short one
        t = factored_table("pool300", scenario_dir)
        assert t.n_risks % ROW_BLOCK != 0
        width = t.weights.shape[1]
        padded = np.pad(t.fs.masses, (width - 1, 0))
        rng = np.random.default_rng(7)
        for i1 in (0, t.kmax // 2, t.kmax - 5):
            for size in (1, 5, 40):
                w = rng.uniform(0.0, 1.0, size=min(size, t.kmax - i1))
                tw = np.correlate(padded[i1 : i1 + width - 1 + len(w)], w)[::-1]
                assert np.array_equal(t.band(i1, w), (materialised_weights(t) * tw).sum(axis=1))

    @staticmethod
    def doubled_pools():
        """A sampled pool of 2000 risks at kmax 2^11 after its first 1000 (both with band J = 256)."""
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 2000}, 20260810, 2**11)
        return [pool[:1000], pool]

    def test_euler_split_holds_no_copy_of_the_weights(self):
        # a query streams W a row block at a time: doubling the pool adds as much again to W,
        # and next to nothing to the query's peak
        levels = RVaRLevels(0.9, 0.99)
        peaks, sizes = [], []
        for pool in self.doubled_pools():
            t = allocate_compound_poisson_pool(pool, 2**11)
            split, peak = traced_peak(lambda: euler_rvar_contributions(t, levels))
            assert split.sum() == pytest.approx(rvar(t.fs, levels), rel=1e-12)
            peaks.append(peak)
            sizes.append(t.n_risks * t.weights.shape[1] * 8)
        assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4

    def test_pool_table_keeps_no_copy_of_the_weights(self):
        # the table holds the pool's reader and the rates, not W
        pool = self.doubled_pools()[1]
        tracemalloc.start()
        try:
            t = allocate_compound_poisson_pool(pool, 2**11)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < t.n_risks * t.weights.shape[1] * 8 / 4

    def test_pool_run_peak_does_not_grow_with_the_weights(self):
        # pass 1 holds one block of claims at a time and nothing forms W, so doubling the pool
        # leaves the run's peak about where it was
        peaks, sizes = [], []
        for pool in self.doubled_pools():
            t, peak = traced_peak(lambda: allocate_compound_poisson_pool(pool, 2**11))
            peaks.append(peak)
            sizes.append(t.n_risks * t.weights.shape[1] * 8)
        assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4

    @pytest.mark.parametrize("name", ("small_pool", "shock", "gamma_mixture", "pool300", "pool300_mixed"))
    def test_queries_match_a_materialised_table_bit_for_bit(self, name, scenario_dir):
        # the same table with W read whole into an array answers every query with the same bits
        t = factored_table(name, scenario_dir)
        w = materialised_weights(t)
        held = dataclasses.replace(t, weights=w)
        n = t.n_risks
        some = [0, n // 2, n - 1]
        assert np.array_equal(t.rows(some), held.rows(some))
        assert np.array_equal(t.expected_allocation, held.expected_allocation)
        valid = np.flatnonzero(t.valid_mask)
        rng = np.random.default_rng(3)
        requests = [(k, rng.uniform(0.0, 1.0, size=min(size, t.kmax - k)))
                    for k, size in ((valid[0], 1), (valid[len(valid) // 2], 40), (valid[-1], 7))]
        for got, want, (i1, v) in zip(t.bands(requests), held.bands(requests), requests, strict=True):
            assert np.array_equal(got, want) and np.array_equal(got, t.band(i1, v))
        for k in (valid[0], valid[-1]):
            assert np.array_equal(t.conditional_mean_at(k), held.conditional_mean_at(k), equal_nan=True)
        again = assemble_table(t.fs.masses, w, t.risk_means, seq=t.seq, dense_rows=t.dense_rows)
        assert np.array_equal(t.column_sum, again.column_sum)


class TestPoolBesideOtherMargins:
    """A Poisson pool beside margins that are not Poisson numbers of claims stays one product over f_pool."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_matches_both_oracles(self, seed):
        # one or two Poisson random sums, Poisson counts or NB counts beside one to three other
        # margins, in random order; at most two margins are unbounded, so enumeration stays small
        rng = np.random.default_rng(seed)
        pool = (
            lambda: compound_poisson_risk(float(rng.uniform(0.5, 1.5)), [0.0, *rng.dirichlet(np.ones(3))]),
            lambda: poisson_risk(float(rng.uniform(0.5, 1.5))),
            lambda: negative_binomial_risk(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.3, 0.8))),
        )
        others = (
            lambda: BernoulliRisk(int(rng.integers(1, 6)), float(rng.uniform(0.05, 0.95))),
            lambda: binomial_risk(int(rng.integers(1, 5)), float(rng.uniform(0.1, 0.9))),
            lambda: explicit_risk(rng.dirichlet(np.ones(int(rng.integers(2, 5))))),
            lambda: CompoundKatzRisk(KatzParams.negative_binomial(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.6, 0.9))),
                                     pmf_from_values([0.0, *rng.dirichlet(np.ones(2))])),
        )
        n_pool = int(rng.integers(1, 3))
        kinds = rng.integers(0, 3, rng.integers(1, 4))
        if n_pool == 1 and rng.random() < 0.5:
            kinds[0] = 3  # the NB random sum
        margins = [pool[k]() for k in rng.integers(0, 3, n_pool)] + [others[k]() for k in kinds]
        risks = [margins[i] for i in rng.permutation(len(margins))]
        portfolio, kmax = PortfolioModel(risks=risks), 64
        table = allocate_portfolio(portfolio, kmax)
        assert table.seq is not None
        valid = table.valid_mask
        assert valid.sum() > 10
        for want in (oracle_enumerate(portfolio, kmax).expected_allocation, oracle_size_biased_rows(risks, kmax)):
            assert np.max(np.abs(table.expected_allocation - want)[:, valid]) <= 1e-10

    def test_bernoulli_beside_a_pool_is_its_exact_reference(self):
        # f_S = 0.8 f_pool(k) + 0.2 f_pool(k - 3), and the Bernoulli row is 0.6 f_pool(k - 3)
        kmax = 2**13
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 1000}, 20260810, kmax)
        t = allocate_compound_poisson_pool(RiskChain([BernoulliRisk(3, 0.2)], pool), kmax)
        f = allocate_compound_poisson_pool(pool, kmax).fs.masses
        shifted = np.pad(f, (3, 0))[:kmax]
        fs, mu = 0.8 * f + 0.2 * shifted, 0.6 * shifted
        valid = t.valid_mask
        assert valid.sum() >= 572 and t.identity_deviation() <= 1e-14
        assert np.max(np.abs(t.fs.masses - fs)[valid] / fs[valid]) <= 1e-14
        row = t.rows(0)
        assert np.all(row[:3] == 0.0)
        assert np.max(np.abs(row - mu)[valid & (mu > 0)] / mu[valid & (mu > 0)]) <= 1e-14
        assert t.truncation.notes[0].endswith("; beside 1 other margin over 4 points")

    def test_mixed_chain_writes_the_csvs_of_its_list(self, tmp_path):
        # a Bernoulli risk, a compound Poisson risk and a binomial count ahead of a sampled pool,
        # against the same risks as explicit entries
        explicit = [{"type": "bernoulli", "b": 3, "q": 0.2},
                    {"type": "compound_poisson", "lam": 0.5, "severity": [0.0, 1.0]},
                    {"type": "binomial", "m": 4, "q": 0.4}]
        sampled = {"kind": "compound_poisson_negbin", "count": 300}
        pool = sample_risks(sampled, 11, 2**11)
        listed = explicit + [{"type": "compound_poisson_negbin", "lam": lam, "r": r, "q": q}
                             for lam, r, q in zip(pool.lam.tolist(), pool.r.tolist(), pool.q.tolist())]
        outputs = {"risk_columns": [1, 2, 3, 4, 303], "pmf_of_conditional_means": [1, 3, 303]}
        outs = []
        for name, model in (("chain", {"risks": explicit, "sampled": sampled}), ("listed", {"risks": listed})):
            raw = {"kmax": 2**11, "seed": 11, "model": model, "outputs": outputs}
            result = run_scenario(parse_scenario(raw, name=name), tmp_path / name)
            assert result.table.seq is not None
            outs.append(tmp_path / name)
        for path in sorted(p.name for p in outs[0].glob("*.csv")):
            a, b = ([line for line in (d / path).read_text().splitlines() if not line.startswith("#")] for d in outs)
            assert a == b, path

    def test_a_row_block_of_other_margins_alone(self):
        # 130 Bernoulli risks ahead of a sampled pool: the first row block holds no claims at all
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 50}, 3, 512)
        risks = RiskChain([BernoulliRisk(1 + i % 3, 0.01) for i in range(130)], pool)
        t, dense = allocate_compound_poisson_pool(risks, 512), allocate_independent(list(risks), 512)
        valid = t.valid_mask & dense.valid_mask
        assert t.seq is not None and valid.sum() > 100
        assert np.max(np.abs(t.expected_allocation - dense.expected_allocation)[:, valid]) <= 1e-10

    def test_long_other_margin_beside_a_sampled_pool_matches_the_oracle(self):
        # an NB random sum is an other margin over every lattice point: its row is dense over
        # f_pool, while the pool's rows stay J wide over f_S
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 40}, 5, 512)
        nb_sum = CompoundKatzRisk(KatzParams.negative_binomial(2.0, 0.5), pmf_from_values([0.0, 0.5, 0.5]))
        risks = RiskChain([nb_sum], pool)
        t = allocate_compound_poisson_pool(risks, 512)
        assert t.dense_rows[0].tolist() == [0] and t.weights.shape[1] < 512
        valid = t.valid_mask
        assert valid.sum() > 100
        want = oracle_size_biased_rows(list(risks), 512)
        assert np.max(np.abs(t.expected_allocation - want)[:, valid]) <= 1e-10
        assert np.max(np.abs(t.rows([0, 40]) - want[[0, 40]])[:, valid]) <= 1e-10

    @pytest.mark.parametrize("margin", ["nb_sum", "pareto"])
    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_every_point_above_the_floor_is_valid_beside_a_small_pool(self, margin):
        # the other margin's pmf and row are convolved directly, so f_S has no negative entry and
        # no point above the floor misses the identity
        kmax = 2**13
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 1000}, 20260810, kmax)
        other = (CompoundKatzRisk(KatzParams.negative_binomial(2.0, 0.5), pmf_from_values([0.0, 0.5, 0.5]))
                 if margin == "nb_sum"
                 else ExplicitRisk(arithmetize(pareto_cdf(1.6, 6.0), pareto_lev(1.6, 6.0), 4096)[0]))
        t = allocate_compound_poisson_pool(RiskChain([other], pool), kmax)
        assert t.fs.masses.min() >= 0.0
        assert np.array_equal(t.valid_mask, t.fs.masses > t.underflow_floor)
        assert t.valid_mask.sum() > 900

    def test_three_other_margins_match_both_oracles(self):
        # a Bernoulli risk, a binomial count and an NB random sum beside a compound Poisson risk:
        # f_rest and each row nu_r come from prefix and suffix products of the three pmfs
        risks = [BernoulliRisk(2, 0.4), binomial_risk(3, 0.3),
                 CompoundKatzRisk(KatzParams.negative_binomial(2.0, 0.5), pmf_from_values([0.0, 0.5, 0.5])),
                 compound_poisson_risk(1.0, [0.0, 0.5, 0.5])]
        portfolio, kmax = PortfolioModel(risks=risks), 256
        t = allocate_compound_poisson_pool(risks, kmax)
        assert t.dense_rows[0].tolist() == [0, 1, 2]
        assert np.array_equal(t.valid_mask, t.fs.masses > t.underflow_floor)
        for want in (oracle_enumerate(portfolio, kmax).expected_allocation, oracle_size_biased_rows(risks, kmax)):
            assert np.max(np.abs(t.expected_allocation - want)) <= 1e-12

    def test_other_margins_on_a_half_unit_lattice(self):
        # payments in units of h = 0.5: the other margins' dense rows are in payment units, as the
        # pool's rows and the independent engine's are
        half = [pmf_from_values(m, step_h=0.5) for m in ([0.0, 0.5, 0.5], [0.3, 0.3, 0.4], [0.0, 1.0])]
        risks = [compound_poisson_risk(0.8, half[0]), ExplicitRisk(half[1]),
                 CompoundKatzRisk(KatzParams.binomial(2, 0.3), half[2])]
        t, dense = allocate_compound_poisson_pool(risks, 64), allocate_independent(risks, 64)
        assert t.dense_rows[0].tolist() == [1, 2]
        valid = t.valid_mask & dense.valid_mask
        assert valid.sum() >= 20
        assert np.max(np.abs(t.expected_allocation - dense.expected_allocation)[:, valid]) <= 1e-12
        assert t.risk_means == pytest.approx(dense.risk_means, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_an_other_margin_with_no_mass_on_the_buffer_stops_cleanly(self):
        # its pmf is zero on all 16 points, so f_S is too: a clean EmptyDistribution, no convolution error
        with pytest.raises(EmptyDistribution, match="no positive mass"):
            allocate_compound_poisson_pool([poisson_risk(0.5), explicit_risk([0.0] * 20 + [1.0])], 16)

    def test_headroom_check_counts_the_other_margins_spread(self):
        # beside a Poisson(0.5) count, a margin of mean 0.62 whose sd of 6.2 puts mean + 10 sd
        # past the buffer top, though its mean alone is far from it
        wide = explicit_risk(np.concatenate([[0.99], np.zeros(61), [0.01]]))
        pool = [poisson_risk(0.5)]
        with pytest.warns(AliasingRisk, match="10 sd 62.1 reaches the buffer top 64"):
            t = allocate_compound_poisson_pool(pool + [wide], 64)
        assert t.truncation.aliasing_risk
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not allocate_compound_poisson_pool(pool, 64).truncation.aliasing_risk

    def test_others_truncation_reaches_the_report(self):
        # a Pareto margin's lost mass and aliasing flag join the pool's report, under the label it has alone
        kmax = 2**13
        pareto = ExplicitRisk(arithmetize(pareto_cdf(1.6, 6.0), pareto_lev(1.6, 6.0), 4096)[0])
        with pytest.warns(AliasingRisk):
            own = allocate_independent([pareto], kmax).truncation
        pool = sample_risks({"kind": "compound_poisson_negbin", "count": 100}, 20260810, kmax)
        with pytest.warns(AliasingRisk):
            t = allocate_compound_poisson_pool(RiskChain(pool, [pareto]), kmax)
        assert own.aliasing_risk and t.truncation.aliasing_risk
        assert t.truncation.lost_mass == own.lost_mass == pytest.approx(2.914e-05, rel=1e-3)
        assert t.truncation.notes[1:] == own.notes == ("per-risk truncated mass totals 2.914e-05",)
        assert t.risk_means[-1] == pareto.mean()

    def test_a_severity_and_an_other_margin_both_losing_mass_are_reported_apart(self):
        # a 40-point severity and a 40-point explicit pmf on a 32-point lattice each lose 0.2: one
        # entry per label, and the total lost mass is their sum
        risks = [compound_poisson_risk(0.5, np.full(40, 0.025)), explicit_risk(np.full(40, 0.025))]
        with pytest.warns(AliasingRisk):
            t = allocate_compound_poisson_pool(risks, 32).truncation
        assert t.aliasing_risk and t.lost_mass == pytest.approx(0.4, abs=1e-15)
        notes = [note for note in t.notes if "truncated mass totals" in note]
        assert notes == ["severity truncated mass totals 2.000e-01", "per-risk truncated mass totals 2.000e-01"]
