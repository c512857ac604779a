import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from allocgen import models
from allocgen.allocation import PortfolioModel, allocate_compound_poisson_pool, allocate_independent
from allocgen.errors import AllocationError, InvalidMarginal, KatzDomain
from allocgen.models import (
    _DOT_CHUNK,
    ROW_BLOCK,
    UNIT_CLAIM,
    BernoulliRisk,
    CompoundKatzRisk,
    KatzParams,
    PoissonNegbinPool,
    RiskChain,
    _chunked_convolve,
    bernoulli_margins,
    binomial_risk,
    compound_pmf_binomial,
    compound_pmf_panjer,
    compound_poisson_risk,
    explicit_risk,
    negative_binomial_risk,
    negbin_rows,
    poisson_pool,
    poisson_risk,
)
from allocgen.pmf import pmf_from_values
from allocgen.scenario import allocate_portfolio
from reference import compound_pmf_panjer_loop, materialised_weights, negbin_pmf_per_risk, poisson_pmf_direct


class TestKatzFamilies:
    def test_poisson_pmf_matches_scipy(self):
        f = poisson_risk(0.7).pmf_vector(32)
        assert np.allclose(f, stats.poisson.pmf(np.arange(32), 0.7), atol=1e-14)

    def test_poisson_pmf_matches_series(self):
        f = poisson_risk(1.3).pmf_vector(24)
        assert np.allclose(f, poisson_pmf_direct(1.3, 24), atol=1e-14)

    def test_negative_binomial_matches_scipy(self):
        f = negative_binomial_risk(3.0, 0.6).pmf_vector(48)
        assert np.allclose(f, stats.nbinom.pmf(np.arange(48), 3.0, 0.6), atol=1e-14)

    def test_binomial_matches_scipy_and_truncates(self):
        f = binomial_risk(5, 0.3).pmf_vector(16)
        assert np.allclose(f[:6], stats.binom.pmf(np.arange(6), 5, 0.3), atol=1e-14)
        assert np.all(f[6:] == 0.0)

    @pytest.mark.parametrize("m, q, n", [(4, 0.6, 2048), (20, 0.9, 4096), (2000, 0.7, 4096)],
                             ids=["q_0.6", "q_0.9", "scaled_q_0.7"])
    def test_binomial_with_q_above_half_stops_at_its_support_top(self, m, q, n):
        # for q > 1/2, |a| > 1 amplifies the counting recursion's round-off; repeated squaring
        # sums products of non-negative masses, so nothing overflows past the top
        # (0.3^2000 underflows, so the last case's low masses are exact zeros)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            f = binomial_risk(m, q).pmf_vector(n)
        assert np.all(f[m + 1 :] == 0.0)
        want = stats.binom.pmf(np.arange(m + 1), m, q)
        big = want > 1e-300
        np.testing.assert_allclose(f[: m + 1][big], want[big], rtol=1e-9, atol=0.0)

    def test_means(self):
        assert KatzParams.poisson(0.7).mean == pytest.approx(0.7)
        assert KatzParams.negative_binomial(3, 0.6).mean == pytest.approx(3 * 0.4 / 0.6)
        assert KatzParams.binomial(5, 0.3).mean == pytest.approx(1.5)

    @st.composite
    @staticmethod
    def family_members(draw):
        kind = draw(st.sampled_from(["poisson", "negbin", "binomial"]))
        if kind == "poisson":
            return KatzParams.poisson(draw(st.floats(0.01, 5.0)))
        if kind == "negbin":
            return KatzParams.negative_binomial(
                draw(st.floats(0.2, 6.0)), draw(st.floats(0.1, 0.9))
            )
        return KatzParams.binomial(draw(st.integers(1, 12)), draw(st.floats(0.05, 0.45)))

    @given(family_members())
    @settings(max_examples=50)
    def test_recursion_property(self, params):
        a, b = params.a, params.b
        f = CompoundKatzRisk(params, UNIT_CLAIM).pmf_vector(20)
        top = params.support_top()
        for k in range(1, 20):
            if top is not None and k > top:
                assert f[k] == 0.0
                continue
            assert f[k] == pytest.approx((a + b / k) * f[k - 1], rel=1e-12, abs=1e-300)

    def test_non_realizable_negative_a_rejected(self):
        with pytest.raises(KatzDomain):
            KatzParams(-0.625, 2.0)

    def test_domain_errors(self):
        with pytest.raises(KatzDomain):
            KatzParams(1.0, 0.5)
        with pytest.raises(KatzDomain):
            KatzParams.binomial(4, 1.0)
        with pytest.raises(KatzDomain):
            KatzParams.negative_binomial(0.0, 0.5)

    @pytest.mark.parametrize(
        "params",
        [
            (KatzParams.poisson(0.9), stats.poisson(0.9)),
            (KatzParams.negative_binomial(2.5, 0.55), stats.nbinom(2.5, 0.55)),
            (KatzParams.binomial(6, 0.25), stats.binom(6, 0.25)),
            (KatzParams.binomial(4, 0.7), stats.binom(4, 0.7)),
            (KatzParams.binomial(3, 0.5), stats.binom(3, 0.5)),
            (KatzParams.binomial(6, 0.95), stats.binom(6, 0.95)),
        ],
    )
    def test_pgf_consistent_with_pmf(self, params):
        # a dense engine's pgf on the roots is the transform of pmf_vector, so the masses carry it;
        # binomial counts at q >= 1/2 take repeated squaring
        katz, dist = params
        f = CompoundKatzRisk(katz, UNIT_CLAIM).pmf_vector(64)
        assert np.max(np.abs(f - dist.pmf(np.arange(64)))) <= 1e-12

    def test_mean_matches_pmf_dot_product(self):
        params = KatzParams.negative_binomial(4.0, 0.5)
        f = CompoundKatzRisk(params, UNIT_CLAIM).pmf_vector(256)
        assert params.mean == pytest.approx(float(np.dot(np.arange(256.0), f)), abs=1e-9)


def full_negbin_recursion(r, q, n):
    """The recursion without a stop: it runs on into the subnormal range."""
    f = np.empty(n)
    f[0] = q**r
    if n > 1:
        k = np.arange(1, n, dtype=float)
        f[1:] = f[0] * np.cumprod((1.0 - q) * (r + k - 1.0) / k)
    return f


def negbin_row(r, q, n):
    """The one row of ``negbin_rows`` for NB(r, q), zero-padded to n points."""
    masses, _ = negbin_rows([r], [q], n)
    return np.pad(masses[0], (0, n - masses.shape[1]))


class TestNegbinPmf:
    def test_matches_scipy(self):
        assert np.allclose(negbin_row(2.5, 0.45, 64), stats.nbinom.pmf(np.arange(64), 2.5, 0.45))

    @pytest.mark.parametrize(
        "r, q, n",
        [(1, 0.45, 4096), (6, 0.4, 4096), (3, 0.5, 8192), (0.3, 0.9, 4096), (2.5, 0.45, 64),
         (50, 0.01, 4096), (2, 0.3, 2), (1, 0.5, 1)],
    )
    def test_stops_at_smallest_normal(self, r, q, n):
        # masses at or above the smallest normal float equal the full
        # recursion bit for bit; the subnormal tail becomes exact zeros
        tiny = np.finfo(float).tiny
        full = full_negbin_recursion(r, q, n)
        got = negbin_row(r, q, n)
        kept = full >= tiny
        assert np.array_equal(got[kept], full[kept])
        assert np.all(got[~kept] == 0.0)


GRID_R = (0.3, 1.0, 2.5, 6.0, 40.0)
GRID_Q = (0.05, 0.45, 0.95)


class TestNegbinRows:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 511, 512, 513, 4096])
    def test_grid_in_one_block_matches_per_risk_recursion(self, n):
        # rows of very different lengths share a block: q = 0.95 rows stop in
        # the first chunk, r = 40, q = 0.05 rows run past 4096
        pairs = [(r, q) for r in GRID_R for q in GRID_Q]
        masses, lengths = negbin_rows([r for r, _ in pairs], [q for _, q in pairs], n)
        for (r, q), row, top in zip(pairs, masses, lengths):
            want = negbin_pmf_per_risk(r, q, n)
            assert top >= 1 and row[top - 1] > 0.0
            assert np.array_equal(row[:top], want[:top]), (r, q)
            assert not row[top:].any() and not want[top:].any(), (r, q)
            assert np.array_equal(negbin_row(r, q, n), want), (r, q)

    def test_underflowing_first_mass(self):
        # q^r = 1e-400 is below the float range; the masses around the mean 3600 are not
        f = negbin_row(400.0, 0.1, 8192)
        assert f.sum() == pytest.approx(1.0, abs=1e-12)
        want = stats.nbinom.pmf(np.arange(8192), 400.0, 0.1)
        kept = want > 1e-280
        np.testing.assert_allclose(f[kept], want[kept], rtol=1e-10, atol=0.0)
        assert np.all(f[want < 1e-310] == 0.0)

    def test_first_mass_beyond_the_scaled_range(self):
        with pytest.raises(KatzDomain, match="q\\^r"):
            negbin_row(2000.0, 0.01, 16)

    @pytest.mark.parametrize("r, q", [(0.0, 0.5), (2.0, 0.0), (2.0, 1.0)])
    def test_domain(self, r, q):
        with pytest.raises(KatzDomain):
            negbin_rows([1.0, r], [0.5, q], 8)

    def test_block_that_stops_early_holds_no_wider_buffer(self):
        # the block is joined from the chunks it ran, not cut from a buffer over all n columns
        masses, lengths = negbin_rows([2.0, 3.0], [0.4, 0.5], 4096)
        assert lengths.max() <= masses.shape[1] < 4096
        assert masses.base is None


def canonical_sequence(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical sequence g of a pmf f, by k f(k) = sum_{1<=j<=k} g(j) f(k - j), and a bound on its error.

    g(k) = [k f(k) - sum_{1<=j<k} g(j) f(k - j)] / f(0).  The bound assumes
    each mass of f carries a relative error of at most u = n (n + 5) eps, as
    the counting recursion's non-negative sums give on n points (each step
    adds at most its window's n roundings and a few more for its
    coefficient).  Those errors enter step m's residual as at most
    rho(m) = u (m f(m) + sum_{j<m} |g(j)| f(m - j)), and the recursion carries
    residuals into g through the coefficients h of 1/P_f, so, to first order,
    |error of g(k)| <= sum_m |h(k - m)| rho(m).
    """
    n = len(f)
    u = n * (n + 5) * np.finfo(float).eps
    g, h, rho = np.zeros(n), np.zeros(n), np.zeros(n)
    h[0] = 1.0 / f[0]
    for k in range(1, n):
        g[k] = (k * f[k] - g[1:k] @ f[k - 1 : 0 : -1]) / f[0]
        h[k] = -(h[:k] @ f[k:0:-1]) / f[0]
        rho[k] = u * (k * f[k] + np.abs(g[1:k]) @ f[k - 1 : 0 : -1])
    return g, np.convolve(np.abs(h), rho)[:n]


class TestCanonicalRow:
    @given(
        st.one_of(
            st.builds(compound_poisson_risk, st.floats(0.001, 4.0),
                      st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0.01)
                      .map(lambda w: np.divide(w, math.fsum(w)))),
            st.builds(poisson_risk, st.floats(0.001, 5.0)),
            st.builds(negative_binomial_risk, st.floats(0.05, 5.0), st.floats(0.001, 0.999)),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_row_is_the_canonical_sequence_of_the_margins_pmf(self, risk):
        # Poisson random sums (severity mass at 0 allowed), Poisson counts and NB counts: c is the
        # canonical sequence of the margin's own pmf_vector, within that recursion's error bound,
        # which stays below 3e-6 of the row's largest entry over these draws; the smallest normal
        # float is added for subnormal masses, whose errors are absolute, not relative
        n = 32
        row = models.canonical_row(risk, n)
        c = np.pad(row, (0, n - len(row)))
        g, bound = canonical_sequence(risk.pmf_vector(n))
        assert c[0] == 0.0 and bound.max() <= 1e-5 * c.max()
        assert np.all(np.abs(c - g) <= bound + np.finfo(float).tiny)

    @pytest.mark.parametrize(
        "r, q, n",
        [(2.0, 0.5, 4096), (1.0, 2.0 / 3.0, 1024), (0.3, 0.9, 64), (5.0, 0.02, 2**16), (3.0, 1e-5, 4096),
         (1.5, 0.999999, 64), (2.0, 0.5, 1)],
    )
    def test_negative_binomial_count_row(self, r, q, n):
        # (a + b) a^(j-1) = r a^j on n points: the powers stop where a^(j-1) is exactly 0, and the
        # row is the full-length series' bit for bit; over enough points it sums to the count's mean
        count = negative_binomial_risk(r, q)
        a, b = count.frequency.a, count.frequency.b
        row = models.canonical_row(count, n)
        assert np.array_equal(row, np.append(0.0, (a + b) * a ** np.arange(n - 1, dtype=float)))
        if n > 1000 and q >= 0.5:
            assert row.sum() == pytest.approx(count.mean(), rel=1e-12)

    @pytest.mark.parametrize(
        "risk",
        [CompoundKatzRisk(KatzParams.negative_binomial(2.0, 0.5), pmf_from_values([0.0, 0.5, 0.5])),
         binomial_risk(4, 0.3), BernoulliRisk(3, 0.2), explicit_risk([0.5, 0.5])],
        ids=["negative_binomial_random_sum", "binomial_count", "bernoulli", "explicit"],
    )
    def test_other_risks_have_no_row(self, risk):
        assert models.canonical_row(risk, 64) is None

    def test_negative_binomial_rows_are_formed_once_per_pass(self, monkeypatch):
        # the reader's set-up forms no row, and pass 1 hands assembly its column sum, so each NB
        # count's row is formed once, in pass 1, until a query reads it
        formed, rule = [], models.canonical_row

        def counted(risk, n):
            row = rule(risk, n)
            if row is not None and risk.frequency.a > 0.0 and n > 1:
                formed.append(risk)
            return row

        monkeypatch.setattr(models, "canonical_row", counted)
        counts = [negative_binomial_risk(2.0, 0.5), negative_binomial_risk(1.0, 0.6)]
        risks = [*counts, compound_poisson_risk(0.4, [0.0, 0.5, 0.5])]
        table = allocate_portfolio(PortfolioModel(risks=risks), 256)
        assert table.seq is not None and table.valid_mask.sum() > 40
        assert formed == counts


class TestPanjerUnderflow:
    # g(0) = exp(-800) underflows; the recursion starts from its mantissa
    RISK = compound_poisson_risk(800.0, [0.0, 0.5, 0.5])

    def test_masses_sum_to_one(self):
        g = self.RISK.pmf_vector(4096)
        assert g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_transform_route_on_its_valid_band(self):
        g = self.RISK.pmf_vector(4096)
        table = allocate_compound_poisson_pool([self.RISK], 4096)
        valid = table.valid_mask
        assert valid.sum() > 300
        np.testing.assert_allclose(g[valid], table.fs.masses[valid], rtol=1e-10, atol=0.0)

    def test_binomial_count(self):
        # (1/2)^1200 underflows too; the terminating count still cuts the support
        sev = np.array([0.0, 0.5, 0.5])
        g = compound_pmf_panjer(KatzParams.binomial(1200, 0.5), sev, 4096)
        assert np.all(g[2401:] == 0.0)
        assert g.sum() == pytest.approx(1.0, abs=1e-10)


class TestPanjerAgainstLoop:
    """The reversed-coefficient recursion against the loop that formed a + b j / k at every step."""

    @pytest.mark.parametrize(
        "count, severity, kmax",
        [
            (KatzParams.poisson(2.5), [0.1, 0.3, 0.4, 0.2], 256),
            (KatzParams.negative_binomial(3.0, 0.4), [0.2, 0.5, 0.3], 256),
            (KatzParams.binomial(12, 0.3), [0.0, 0.6, 0.4], 64),
            # g(0) = exp(-800), (1/2)^1200 and 0.3^900 underflow: the scaled start
            (KatzParams.poisson(800.0), [0.0, 0.5, 0.5], 4096),
            (KatzParams.binomial(1200, 0.5), [0.0, 0.5, 0.5], 4096),
            (KatzParams.negative_binomial(900.0, 0.3), [0.0, 0.7, 0.3], 8192),
        ],
        ids=["poisson", "negbin", "binomial", "poisson_underflow", "binomial_underflow", "negbin_underflow"],
    )
    def test_matches_the_loop(self, count, severity, kmax):
        severity = np.asarray(severity)
        got = compound_pmf_panjer(count, severity, kmax)
        want = compound_pmf_panjer_loop(count, severity, kmax)
        above = want > 1e-15
        assert above.sum() > 20
        np.testing.assert_allclose(got[above], want[above], rtol=1e-12, atol=0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
        # the support cut of a terminating count leaves the same exact zeros
        assert np.array_equal(got == 0.0, want == 0.0)


class TestKatzUnderflow:
    # f(0) underflows to zero in every case (exp(-800), 0.1^400, 0.5^2000, ...);
    # at 8192 points the scaled product carries over 16 chunks
    CASES = [
        (poisson_risk(800), 2048, stats.poisson(800)),
        (negative_binomial_risk(400, 0.1), 8192, stats.nbinom(400, 0.1)),
        (binomial_risk(2000, 0.5), 4096, stats.binom(2000, 0.5)),
        (poisson_risk(1000), 8192, stats.poisson(1000)),
        (poisson_risk(3000), 8192, stats.poisson(3000)),
        (negative_binomial_risk(900, 0.3), 8192, stats.nbinom(900, 0.3)),
        (binomial_risk(5000, 0.2), 8192, stats.binom(5000, 0.2)),
    ]
    IDS = ["poisson", "negative_binomial", "binomial", "poisson_1000", "poisson_3000",
           "negative_binomial_900", "binomial_5000"]

    @pytest.mark.parametrize("risk, n, dist", CASES, ids=IDS)
    def test_matches_scipy_without_warnings(self, risk, n, dist):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = risk.pmf_vector(n)
        want = dist.pmf(np.arange(n))
        big = want > 1e-300
        np.testing.assert_allclose(f[big], want[big], rtol=1e-10, atol=0.0)
        assert np.all(np.abs(f[~big]) <= 1e-299)
        assert f.sum() == pytest.approx(1.0, abs=1e-12)

    def test_table_has_valid_points_around_the_mean(self):
        table = allocate_independent([poisson_risk(800), poisson_risk(1)], 2048)
        valid = np.flatnonzero(table.valid_mask)
        assert valid.size > 100 and valid[0] < 801 < valid[-1]
        assert table.identity_deviation() <= 1e-10


class TestCompoundRisk:
    def test_degenerate_severity_reduces_to_count(self):
        sev = pmf_from_values([0.0, 1.0])
        risk = CompoundKatzRisk(KatzParams.poisson(0.6), sev)
        assert np.allclose(risk.pmf_vector(32), stats.poisson.pmf(np.arange(32), 0.6), atol=1e-14)

    def test_panjer_with_severity_mass_at_zero(self):
        # adding severity mass at zero must not change the positive part's law
        sev = pmf_from_values([0.5, 0.25, 0.25])
        freq = KatzParams.poisson(0.8)
        g = compound_pmf_panjer(freq, sev.masses, 64)
        # thinning: zero-severity claims drop out; effective rate is lam*(1-f(0))
        sev2 = pmf_from_values([0.0, 0.5, 0.5])
        g2 = compound_pmf_panjer(KatzParams.poisson(0.4), sev2.masses, 64)
        assert np.max(np.abs(g - g2)) <= 1e-14

    def test_mean(self):
        risk = CompoundKatzRisk(KatzParams.poisson(0.08), pmf_from_values([0, 0.1, 0.2, 0.4, 0.3]))
        assert risk.mean() == pytest.approx(0.08 * 2.9)

    @pytest.mark.parametrize("m, q", [(3, 0.3), (4, 0.7), (20, 0.7), (40, 0.9), (100, 0.99)])
    def test_binomial_count_matches_direct_convolution(self, m, q):
        # m-fold convolution of (1 - q) delta_0 + q f_B; the counting recursion
        # loses digits here once q > 1/2
        sev = np.array([0.0, 0.6, 0.4])
        want = np.ones(1)
        for _ in range(m):
            want = np.convolve(want, (1.0 - q) * np.eye(1, 3)[0] + q * sev)
        got = CompoundKatzRisk(KatzParams.binomial(m, q), pmf_from_values(sev)).pmf_vector(512)
        assert np.all(got[len(want):] == 0.0)
        kept = want > 1e-300
        np.testing.assert_allclose(got[: len(want)][kept], want[kept], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("length", [5, 3, 20_000])
    def test_binomial_long_severity_matches_repeated_convolution(self, length):
        # a factor longer than _DOT_CHUNK is convolved in pieces, at any BLAS thread count alike
        rng = np.random.default_rng(length)
        sev = rng.uniform(size=length)
        sev /= sev.sum()
        count, kmax = KatzParams.binomial(2, 0.7), 32_768
        h = 0.7 * sev
        h[0] += 0.3
        want = np.convolve(h, h)[:kmax]
        got = compound_pmf_binomial(count, sev, kmax)
        assert np.all(got[len(want):] == 0.0)
        assert np.max(np.abs(got[: len(want)] - want)) <= 1e-15

    def test_chunked_convolution_matches_one_convolution(self):
        rng = np.random.default_rng(5)
        u, v = rng.uniform(size=_DOT_CHUNK), rng.uniform(size=3 * _DOT_CHUNK)
        assert np.array_equal(_chunked_convolve(u, v, 2 * _DOT_CHUNK), np.convolve(u, v)[: 2 * _DOT_CHUNK])
        long = rng.uniform(size=3 * _DOT_CHUNK + 5)
        for n in (10, 2 * _DOT_CHUNK + 1, 10 * _DOT_CHUNK):
            want = np.convolve(long, v)[:n]
            got = _chunked_convolve(long, v, n)
            assert len(got) == len(want) and np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_binomial_count_support_bound(self):
        risk = CompoundKatzRisk(KatzParams.binomial(3, 0.2), pmf_from_values([0.0, 0.5, 0.5]))
        assert risk.support_top() == 6
        f = risk.pmf_vector(32)
        assert np.all(f[7:] == 0.0)
        assert f.sum() == pytest.approx(1.0, abs=1e-12)


def mixed_pool():
    """Two stored Poisson random sums, then a sampled pool of 300, of many lengths, over three row blocks."""
    rng = np.random.default_rng(8)
    pool = PoissonNegbinPool(rng.exponential(0.1, 300), rng.choice([1, 3, 6], 300), rng.uniform(0.3, 0.6, 300), 4096)
    explicit = [compound_poisson_risk(0.5, [0.0, 1.0]), compound_poisson_risk(0.3, [0.0, 0.2, 0.0, 0.8])]
    return explicit, pool


def pool_blocks(read, n, columns=None):
    """``(rows, c, lengths, kept, tails)`` for each block of ROW_BLOCK rows, as the engine reads a pool."""
    for lo in range(0, n, ROW_BLOCK):
        rows = slice(lo, min(lo + ROW_BLOCK, n))
        yield rows, *read(rows, columns)


def chain_of_shape(shape):
    """Poisson random sums chained in the order of ``shape``.

    An integer part is that many stored risks, "e" is three of them, "n" three NB counts and "p" a
    sampled pool of 200.
    """
    rng = np.random.default_rng(len(shape))
    parts = []
    for part in shape:
        if part == "p":
            parts.append(PoissonNegbinPool(rng.exponential(0.1, 200), rng.choice([1, 3, 6], 200),
                                           rng.uniform(0.3, 0.6, 200), 4096))
            continue
        if part == "n":
            parts.append([negative_binomial_risk(float(r), float(q))
                          for r, q in zip(rng.uniform(0.5, 3.0, 3), rng.uniform(0.3, 0.9, 3))])
            continue
        sizes = rng.integers(2, 30, 3 if part == "e" else part)
        parts.append([compound_poisson_risk(float(rng.exponential(0.1)), [0.0, *rng.dirichlet(np.ones(m))])
                      for m in sizes])
    return RiskChain(*parts)


class TestPoolReader:
    def test_chain_iterates_as_its_list(self):
        explicit, pool = mixed_pool()
        chain = RiskChain(explicit, [], pool)
        got, want = list(chain), [*explicit, *pool]
        assert len(chain) == len(want) == 302 and len(chain.parts) == 2
        assert all(
            a.frequency == b.frequency and np.array_equal(a.severity.masses, b.severity.masses)
            for a, b in zip(got, want, strict=True)
        )

    def test_chain_reads_the_blocks_of_its_list(self):
        # the chain's blocks straddle its parts; row for row they are the list's, up to zero
        # padding (over fewer columns than the severities, a sampled pool gives the lengths
        # within them and a stored severity its own, as a lone pool and list do)
        explicit, pool = mixed_pool()
        chain = RiskChain(explicit, pool)
        log_f0, step_h, read, _ = poisson_pool(chain, 4096)
        log_list, step_list, read_list, _ = poisson_pool(list(chain), 4096)
        assert log_f0 == log_list and step_h == step_list == 1.0
        for columns in (None, 64):
            for (rows, masses, lengths, kept, tails), (rows_list, masses_list, lengths_list, kept_list,
                                                       tails_list) in zip(
                pool_blocks(read, len(chain), columns), pool_blocks(read_list, len(chain), columns), strict=True
            ):
                assert rows == rows_list and rows.stop - rows.start == min(ROW_BLOCK, 302 - rows.start)
                # a sampled row and its listed risk sum the same masses in different orders
                assert columns or np.array_equal(lengths, lengths_list) and np.array_equal(
                    tails, tails_list) and np.all(np.abs(kept - kept_list) <= lengths * np.finfo(float).eps)
                width = max(masses.shape[1], masses_list.shape[1])
                pad = [np.pad(m, ((0, 0), (0, width - m.shape[1]))) for m in (masses, masses_list)]
                assert np.array_equal(*pad)
        # a slice across a part boundary and a block boundary reads the rows the blocks hold
        blocks = [m for _, m, _, _, _ in pool_blocks(read, len(chain), 64)]
        whole = np.concatenate([np.pad(m, ((0, 0), (0, 64 - m.shape[1]))) for m in blocks])
        masses, *_ = read(slice(1, 140), 64)
        assert np.array_equal(np.pad(masses, ((0, 0), (0, 64 - masses.shape[1]))), whole[1:140])

    @pytest.mark.parametrize(
        "shape",
        [(1, "p"), (127, "p"), (128, "p"), (129, "p"), (300, "p"), ("p", "p"), ("e", "p", "e", "p"), ("n", "p", "e")],
        ids=["1_stored", "127_stored", "128_stored", "129_stored", "300_stored", "two_pools", "stored_pool_twice",
             "counts_pool_stored"],
    )
    def test_every_chain_shape_reads_and_allocates_as_its_list(self, shape):
        # each block asks every part it overlaps for exactly its rows there, so the
        # blocks are the list's whatever the parts' lengths, and so are the weights
        chain = chain_of_shape(shape)
        _, _, read, _ = poisson_pool(chain, 4096)
        _, _, read_list, _ = poisson_pool(list(chain), 4096)
        for columns in (None, 64):
            for (rows, masses, lengths, kept, tails), (rows_list, masses_list, lengths_list, kept_list,
                                                       tails_list) in zip(
                pool_blocks(read, len(chain), columns), pool_blocks(read_list, len(chain), columns), strict=True
            ):
                assert rows == rows_list and len(masses) == len(lengths) == len(kept) == rows.stop - rows.start
                # a sampled row and its listed risk sum the same masses in different orders
                assert columns or np.array_equal(lengths, lengths_list) and np.array_equal(
                    tails, tails_list) and np.all(np.abs(kept - kept_list) <= lengths * np.finfo(float).eps)
                width = max(masses.shape[1], masses_list.shape[1])
                pad = [np.pad(m, ((0, 0), (0, width - m.shape[1]))) for m in (masses, masses_list)]
                assert np.array_equal(*pad)
        a, b = allocate_compound_poisson_pool(chain, 2**11), allocate_compound_poisson_pool(list(chain), 2**11)
        assert np.array_equal(materialised_weights(a), materialised_weights(b))
        assert np.array_equal(a.valid_mask, b.valid_mask)

    @given(st.floats(0.01, 5.0), st.floats(0.05, 20.0), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_a_cut_row_leaves_out_at_most_its_tail(self, lam, r, q):
        # the reader stops a sampled row at its length L; the same recursion's whole row sums to at
        # most the reported tail past L, and that tail is at most eps^2 of what the row keeps
        pool = PoissonNegbinPool([lam], [r], [q], 4096)
        c, lengths, _, tails = poisson_pool(pool, 4096)[2](slice(0, 1))
        masses, _ = negbin_rows([r], [q], 4096)
        full = masses[0] * (lam * np.arange(masses.shape[1], dtype=float))
        at = int(lengths[0])
        assert np.array_equal(c[0, :at], full[:at]) and not c[0, at:].any()
        assert full[at:].sum() <= tails[0] <= np.finfo(float).eps ** 2 * c[0].sum() * (1.0 + 1e-12)

    def test_every_read_is_a_fresh_array(self):
        # no read hands out a buffer that a later read overwrites
        first, _ = negbin_rows([2.0, 3.0], [0.4, 0.5], 600)
        second, _ = negbin_rows([2.0, 3.0], [0.4, 0.5], 600)
        assert not np.shares_memory(first, second)
        _, _, read, _ = poisson_pool(chain_of_shape(("p",)), 4096)
        (_, block1, *_), (_, block2, *_) = pool_blocks(read, 200)
        assert not np.shares_memory(block1, block2)

    def test_iteration_builds_risks_from_small_row_groups(self):
        # the first risk of a sampled pool costs a buffer of a few rows, not of a row block
        pool = PoissonNegbinPool(np.full(300, 0.1), np.full(300, 2), np.full(300, 0.02), 4096)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            it = iter(pool)
            first = next(it)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < ROW_BLOCK * pool.severity_length * 8 / 2  # one block's masses alone would be twice that
        assert np.array_equal(first.severity.masses, pool[0].severity.masses)

    def test_iteration_frees_each_risk_once_taken(self):
        it = iter(PoissonNegbinPool([0.1, 0.2, 0.3], [2, 3, 4], [0.4, 0.45, 0.5], 64))
        first = next(it)
        ref = weakref.ref(first)
        next(it)
        del first
        assert ref() is None

    def test_reader_refuses_what_is_not_a_poisson_pool(self):
        # a margin with no pool row comes back by index, with a zero row and kept mass 1 in every
        # block and no log f(0) in the sum; a portfolio with none that has a row, as None
        explicit, pool = mixed_pool()
        bernoulli = BernoulliRisk(3, 0.2)
        chain = RiskChain(explicit, [bernoulli], pool)
        log_f0, _, read, others = poisson_pool(chain, 4096)
        at = len(explicit)
        assert others == {at: bernoulli} and log_f0 == poisson_pool(RiskChain(explicit, pool), 4096)[0]
        for columns in (None, 64):
            _, masses, lengths, kept, tails = next(pool_blocks(read, len(chain), columns))
            assert lengths[at] == tails[at] == 0 and kept[at] == 1.0 and not masses[at].any() and masses[at - 1].any()
        assert poisson_pool([bernoulli, explicit_risk([0.5, 0.5]), binomial_risk(4, 0.3)], 64) is None
        half = compound_poisson_risk(0.5, pmf_from_values([0.0, 1.0], step_h=0.5))
        with pytest.raises(AllocationError, match="different lattice steps"):
            poisson_pool(RiskChain([half], pool), 4096)

    def test_reader_refuses_negative_binomial_random_sums(self):
        # an NB count has a pool row; an NB count over another severity does not
        nb_sum = CompoundKatzRisk(KatzParams.negative_binomial(2.0, 0.5), pmf_from_values([0.0, 0.5, 0.5]))
        assert poisson_pool([negative_binomial_risk(2.0, 0.5)], 64) is not None
        assert poisson_pool([negative_binomial_risk(2.0, 0.5), nb_sum], 64)[3] == {1: nb_sum}


class TestBernoulliRisk:
    def test_pmf_and_pgf(self):
        r = BernoulliRisk(3, 0.25)
        f = r.pmf_vector(8)
        assert f[0] == 0.75 and f[3] == 0.25

    def test_validation(self):
        with pytest.raises(KatzDomain):
            BernoulliRisk(0, 0.5)
        with pytest.raises(KatzDomain):
            BernoulliRisk(2, 1.0)

    def test_margins_of_any_iterable(self):
        # int payments and float claim probabilities, in order, from a chain as from a list
        chain = RiskChain([BernoulliRisk(3, 0.25)], [BernoulliRisk(1, 0.5), BernoulliRisk(7, 0.125)])
        b, q = bernoulli_margins(chain)
        assert b.dtype == int and b.tolist() == [3, 1, 7]
        assert q.dtype == float and q.tolist() == [0.25, 0.5, 0.125]
        for risks in ([], [BernoulliRisk(3, 0.25), poisson_risk(0.5)]):
            with pytest.raises(InvalidMarginal, match="Bernoulli"):
                bernoulli_margins(risks)


def test_risks_hash_and_compare():
    # a pmf compares and hashes by identity, so every risk is hashable and == never raises
    count, compound = poisson_risk(0.5), compound_poisson_risk(0.5, [0.0, 0.5, 0.5])
    explicit = explicit_risk([0.5, 0.5])
    assert len({count, compound, explicit, BernoulliRisk(3, 0.25)}) == 4
    assert count == poisson_risk(0.5)  # both sum the one shared UNIT_CLAIM
    assert compound != compound_poisson_risk(0.5, [0.0, 0.5, 0.5])
    assert compound == compound and explicit != explicit_risk([0.5, 0.5])


class TestConvenienceConstructors:
    @pytest.mark.parametrize(
        "risk, kmax, dist",
        [(poisson_risk(0.7), 64, stats.poisson(0.7)), (poisson_risk(800), 2048, stats.poisson(800)),
         (negative_binomial_risk(3.0, 0.6), 64, stats.nbinom(3.0, 0.6)),
         (binomial_risk(5, 0.3), 64, stats.binom(5, 0.3))],
        ids=["poisson", "poisson_800", "negative_binomial", "binomial"],
    )
    def test_a_count_is_its_own_closed_form(self, risk, kmax, dist):
        # a random sum of unit claims: bit for bit the count's own mean and bound; its masses
        # are the random sum's (Poisson(800)'s f(0) underflows into the scaled recursion)
        params = risk.frequency
        f, want = risk.pmf_vector(kmax), dist.pmf(np.arange(kmax))
        big = want > 1e-300
        np.testing.assert_allclose(f[big], want[big], rtol=1e-9, atol=0.0)
        assert np.all(np.abs(f[~big]) <= 1e-300)
        assert risk.mean() == params.mean
        assert risk.support_top() == params.support_top()

    def test_poisson_risk(self):
        assert poisson_risk(0.7).mean() == pytest.approx(0.7)

    def test_binomial_risk(self):
        assert binomial_risk(5, 0.3).support_top() == 5
