from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocgen import allocation
from allocgen.allocation import PortfolioModel, allocate_independent, oracle_enumerate
from allocgen.dependence import (
    SHOCK_LEAVES,
    SHOCK_NODES,
    FrailtyBernoulliSpec,
    GammaMixtureSpec,
    HierarchicalShockSpec,
    frailty_allocation,
    gamma_mixture_allocation,
    gamma_mixture_allocation_convolution,
    gamma_mixture_fs_direct,
    shock_allocation_table,
)
from allocgen.errors import (
    InvalidFrailty,
    InvalidMarginal,
    InvalidMixture,
    UnknownNode,
)
from allocgen.models import (
    BernoulliRisk,
    KatzParams,
    RiskChain,
    compound_pmf_panjer,
    negative_binomial_risk,
    poisson_risk,
)
from allocgen.pmf import next_pow2
from allocgen.reproduce import BERNOULLI_POOL_B, BERNOULLI_POOL_Q, SHOCK_CASE_LAMBDAS, bernoulli_pool_risks
from allocgen.scenario import allocate_portfolio, build_portfolio, load_scenario, parse_scenario
from reference import direct_convolution
from test_allocation import traced_peak


class TestShockTree:
    def test_validation(self):
        with pytest.raises(UnknownNode):
            HierarchicalShockSpec({"3": 0.1})
        with pytest.raises(UnknownNode):
            HierarchicalShockSpec({"111": -0.5})
        spec = HierarchicalShockSpec(SHOCK_CASE_LAMBDAS)
        with pytest.raises(UnknownNode):
            spec.path("11")

    def test_zero_at_origin_and_first_step(self):
        table = shock_allocation_table(HierarchicalShockSpec(SHOCK_CASE_LAMBDAS), 128)
        mu = table.rows(SHOCK_LEAVES.index("111"))
        assert mu[0] == pytest.approx(0.0, abs=1e-15)
        assert mu[1] == pytest.approx(SHOCK_CASE_LAMBDAS["111"] * table.fs.masses[0], abs=1e-12)

    @pytest.mark.parametrize(
        "tolerance, min_valid", [(1e-8, 49), (1e-12, 47)], ids=["tol1e-8", "tol1e-12"]
    )
    def test_shipped_scenario_against_panjer_and_shifted_sums(self, scenario_dir, tolerance, min_valid):
        # the pool's rows are exact up to round-off whatever the mask asks
        # for, so a stricter mask keeps every point that meets it
        cfg = load_scenario(scenario_dir / "shock.yaml")
        built = build_portfolio(cfg)
        spec, kmax = built.portfolio.dependence, built.kmax
        table = allocate_portfolio(
            built.portfolio, kmax, tolerance=tolerance, underflow_floor=cfg.underflow_floor
        )
        # S is one Poisson random sum: the shocks merged, node n adding a mass at 8 / 2^depth
        rate = sum(spec.lambda_by_node.values())
        severity = np.zeros(9)
        for node, lam in spec.lambda_by_node.items():
            severity[8 if node == "0" else 2 ** (3 - len(node))] += lam / rate
        fs = compound_pmf_panjer(KatzParams.poisson(rate), severity, kmax)
        valid = table.valid_mask
        assert valid.sum() >= min_valid
        assert np.max(np.abs(table.fs.masses - fs)[valid] / fs[valid]) <= 1e-10
        # a leaf's row is lam_n f_S(k - w_n) summed down its path
        inner = valid.copy()
        inner[0] = False
        for i, leaf in enumerate(SHOCK_LEAVES):
            direct = np.zeros(kmax)
            for lam, w in spec.path(leaf):
                direct[w:] += lam * fs[:-w]
            mu = table.rows(i)
            assert abs(mu[0]) <= 1e-15
            assert np.max(np.abs(mu - direct)[inner] / direct[inner]) <= 1e-10

    def test_piecewise_shifted_sums(self):
        spec = HierarchicalShockSpec(SHOCK_CASE_LAMBDAS)
        table = shock_allocation_table(spec, 128)
        fs = table.fs.masses
        for i, leaf in enumerate(SHOCK_LEAVES):
            direct = np.zeros(128)
            for rate, w in spec.path(leaf):
                direct[w:] += rate * fs[:-w]
            assert np.max(np.abs(direct - table.rows(i))) <= 1e-12

    @given(st.fixed_dictionaries({node: st.just(0.0) | st.floats(0.0, 0.1) for node in SHOCK_NODES}))
    @settings(max_examples=60, deadline=None)
    def test_matches_shifted_sums_on_random_trees(self, rates):
        # each leaf's row is sum over its path of rate * f_S(m - w), the bound of reproduce's check
        spec = HierarchicalShockSpec(rates)
        table = shock_allocation_table(spec, 256)
        fs = table.fs.masses
        for i, leaf in enumerate(SHOCK_LEAVES):
            direct = np.zeros(256)
            for rate, w in spec.path(leaf):
                direct[w:] += rate * fs[:-w]
            assert np.max(np.abs(direct - table.rows(i))) <= 1e-12

    def test_leaf_only_reduces_to_independent(self):
        leaves_only = {leaf: 0.02 + 0.01 * i for i, leaf in enumerate(SHOCK_LEAVES)}
        table = shock_allocation_table(HierarchicalShockSpec(leaves_only), 128)
        indep = allocate_independent(
            [poisson_risk(leaves_only[leaf]) for leaf in SHOCK_LEAVES], 128
        )
        gap = np.max(np.abs(table.expected_allocation - indep.expected_allocation))
        assert gap <= 1e-11

    def test_full_allocation_identity(self):
        table = shock_allocation_table(HierarchicalShockSpec(SHOCK_CASE_LAMBDAS), 128)
        assert table.identity_deviation() <= 1e-9

    def test_missing_nodes_default_to_zero(self):
        spec = HierarchicalShockSpec({"111": 0.5})
        assert spec.lambda_by_node["222"] == 0.0


class TestGammaMixture:
    SPEC = GammaMixtureSpec(gamma0=1.0, r1=2.0, r2=2.0, lambda1=1.0, lambda2=1.0)

    def test_validation(self):
        with pytest.raises(InvalidMixture):
            GammaMixtureSpec(gamma0=2.5, r1=2.0, r2=2.0, lambda1=1.0, lambda2=1.0)
        with pytest.raises(InvalidMixture):
            GammaMixtureSpec(gamma0=0.5, r1=2.0, r2=2.0, lambda1=0.0, lambda2=1.0)

    def test_zero_at_origin(self):
        table = gamma_mixture_allocation(self.SPEC, 256)
        assert abs(table.rows(0)[0]) <= 1e-15

    def test_transform_matches_convolution(self):
        table = gamma_mixture_allocation(self.SPEC, 1024)
        for i in range(2):
            conv = gamma_mixture_allocation_convolution(self.SPEC, table.fs.masses, i)
            assert np.max(np.abs(conv - table.rows(i))) <= 1e-11

    @given(
        st.floats(0.5, 4.0),
        st.floats(0.5, 4.0),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        st.floats(0.2, 3.0),
        st.floats(0.2, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_convolution_and_direct_fs_on_random_pairs(self, r1, r2, share, lambda1, lambda2):
        # gamma0 runs over [0, min(r1, r2)], both ends included
        spec = GammaMixtureSpec(share * min(r1, r2), r1, r2, lambda1, lambda2)
        table = gamma_mixture_allocation(spec, 1024)
        for i in range(2):
            conv = gamma_mixture_allocation_convolution(spec, table.fs.masses, i)
            assert np.max(np.abs(conv - table.rows(i))) <= 1e-11
        assert np.max(np.abs(gamma_mixture_fs_direct(spec, 1024) - table.fs.masses)) <= 1e-11

    def test_total_allocation_is_rate(self):
        table = gamma_mixture_allocation(self.SPEC, 1024)
        assert table.rows(0).sum() == pytest.approx(1.0, abs=1e-9)

    def test_pmf_matches_three_factor_convolution(self):
        table = gamma_mixture_allocation(self.SPEC, 1024)
        direct = gamma_mixture_fs_direct(self.SPEC, 1024)
        assert np.max(np.abs(direct - table.fs.masses)) <= 1e-11

    def test_no_shared_component_is_independent(self):
        spec0 = GammaMixtureSpec(gamma0=0.0, r1=2.0, r2=3.0, lambda1=1.0, lambda2=0.5)
        table = gamma_mixture_allocation(spec0, 512)
        indep = allocate_independent(
            [
                negative_binomial_risk(2.0, 1.0 / 1.5),
                negative_binomial_risk(3.0, 1.0 / (1.0 + 0.5 / 3.0)),
            ],
            512,
        )
        gap = np.max(np.abs(table.expected_allocation - indep.expected_allocation))
        assert gap <= 1e-11

    def test_full_allocation_identity(self):
        assert gamma_mixture_allocation(self.SPEC, 512).identity_deviation() <= 1e-9

    def test_shipped_spec_is_valid_wherever_exact_fs_is_above_the_floor(self, scenario_dir):
        config = load_scenario(scenario_dir / "gamma_mixture.yaml")
        built = build_portfolio(config)
        table = allocate_portfolio(
            built.portfolio, built.kmax,
            tolerance=config.tolerance, underflow_floor=config.underflow_floor,
        )
        exact = gamma_mixture_fs_direct(built.portfolio.dependence, built.kmax)
        assert np.array_equal(table.valid_mask, exact > config.underflow_floor)


class TestFrailty:
    RISKS = bernoulli_pool_risks()

    def test_validation(self):
        with pytest.raises(InvalidFrailty):
            FrailtyBernoulliSpec(alpha=1.0)
        spec = FrailtyBernoulliSpec(alpha=0.5)
        with pytest.raises(InvalidMarginal):
            frailty_allocation(spec, [BernoulliRisk(1, 0.5), poisson_risk(0.5)], 64)
        with pytest.raises(InvalidMarginal):
            oracle_enumerate(PortfolioModel([poisson_risk(0.5)], spec), 64)

    def test_truncation_level_reference_value(self):
        spec = FrailtyBernoulliSpec(alpha=0.5, epsilon=1e-10)
        assert spec.theta_star == 34

    def test_degenerate_mixing_is_single_level(self):
        spec = FrailtyBernoulliSpec(alpha=0.0)
        assert spec.theta_star == 1
        assert np.allclose(spec.claim_calibrations(BERNOULLI_POOL_Q), BERNOULLI_POOL_Q)

    def test_degenerate_mixing_matches_independent_product(self):
        table = frailty_allocation(FrailtyBernoulliSpec(alpha=0.0), self.RISKS, 64)
        want = np.ones(1)
        for r in self.RISKS:
            want = direct_convolution(want, r.pmf_vector(64))[:64]
        assert np.max(np.abs(table.fs.masses - want)) <= 1e-12
        indep = allocate_independent(self.RISKS, 64)
        assert np.max(np.abs(table.expected_allocation - indep.expected_allocation)) <= 1e-11

    def test_vanishing_mixing_converges_to_independent(self):
        tiny = frailty_allocation(FrailtyBernoulliSpec(alpha=1e-12), self.RISKS, 64)
        indep = frailty_allocation(FrailtyBernoulliSpec(alpha=0.0), self.RISKS, 64)
        assert np.max(np.abs(tiny.expected_allocation - indep.expected_allocation)) <= 1e-9

    def test_marginal_reconstruction(self):
        spec = FrailtyBernoulliSpec(alpha=0.5)
        recon = spec.theta_pmf() @ spec.conditional_claim_probs(BERNOULLI_POOL_Q)
        assert np.max(np.abs(recon - np.asarray(BERNOULLI_POOL_Q))) <= 1e-9

    def test_matches_enumeration(self):
        spec = FrailtyBernoulliSpec(alpha=0.5)
        table = frailty_allocation(spec, self.RISKS, 64)
        oracle = oracle_enumerate(PortfolioModel(self.RISKS, spec), 64)
        assert np.max(np.abs(table.expected_allocation - oracle.expected_allocation)) <= 1e-10

    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            min_size=1,
            max_size=5,
        ),
        st.floats(0.0, 0.9, exclude_max=True),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_on_random_pools(self, risks, alpha):
        risks = [BernoulliRisk(b, q) for b, q in risks]
        spec = FrailtyBernoulliSpec(alpha=alpha)
        kmax = next_pow2(1 + sum(r.b for r in risks))
        table = frailty_allocation(spec, risks, kmax)
        oracle = oracle_enumerate(PortfolioModel(risks, spec), kmax)
        assert np.max(np.abs(table.expected_allocation - oracle.expected_allocation)) <= 1e-10

    def test_matches_enumeration_where_claim_probabilities_underflow(self):
        # r_1 is about 2e-6, so r_1 ** theta is exactly 0 over most of the 665 mixing levels
        risks = [BernoulliRisk(1, 1e-6), BernoulliRisk(3, 0.2), BernoulliRisk(10, 0.3)]
        spec = FrailtyBernoulliSpec(alpha=0.5, epsilon=1e-200)
        assert spec.theta_star == 665
        assert (spec.conditional_claim_probs([r.q for r in risks])[:, 0] == 0.0).any()
        table = frailty_allocation(spec, risks, 16)
        oracle = oracle_enumerate(PortfolioModel(risks, spec), 16)
        assert np.max(np.abs(table.expected_allocation - oracle.expected_allocation)) <= 1e-13

    def test_kmax_below_exact_support_rejected(self):
        with pytest.raises(InvalidMarginal):
            frailty_allocation(FrailtyBernoulliSpec(alpha=0.5), self.RISKS, 32)

    def test_full_allocation_identity(self):
        table = frailty_allocation(FrailtyBernoulliSpec(alpha=0.5), self.RISKS, 64)
        assert table.identity_deviation() <= 1e-9

    def test_pool_of_100_risks_holds_the_identity(self):
        # z^b is the transform of a unit mass at b, so each level's pgfs and spectra are mass transforms
        rng = np.random.default_rng(20260810)
        b, q = rng.integers(1, 12, size=100), rng.uniform(0.01, 0.3, size=100)
        risks = [BernoulliRisk(int(bi), float(qi)) for bi, qi in zip(b, q)]
        table = frailty_allocation(FrailtyBernoulliSpec(alpha=0.5), risks, 1024)
        assert table.identity_deviation() <= 2e-15
        assert table.valid_mask.sum() >= 320

    def test_residual_mass_reported(self):
        spec = FrailtyBernoulliSpec(alpha=0.5)
        assert spec.residual_mass == pytest.approx(0.5**34)
        table = frailty_allocation(spec, self.RISKS, 64)
        assert table.fs.masses.sum() == pytest.approx(1.0 - spec.residual_mass, abs=1e-12)

    def test_pool_read_from_a_chain_equals_its_list(self):
        # 3 explicit risks and 5 sampled extras: the engine reads the RiskChain as it reads a list
        risks = [{"type": "bernoulli", "b": r.b, "q": r.q} for r in self.RISKS[:3]]
        model = {"dependence": "frailty_bernoulli", "alpha": 0.5, "risks": risks,
                 "sampled": {"kind": "bernoulli_extras", "count": 5}}
        chained = build_portfolio(parse_scenario({"kmax": 64, "seed": 20260810, "model": model}))
        assert isinstance(chained.portfolio.risks, RiskChain)
        listed = [*chained.portfolio.risks]
        model = {"dependence": "frailty_bernoulli", "alpha": 0.5,
                 "risks": [{"type": "bernoulli", "b": r.b, "q": r.q} for r in listed]}
        flat = build_portfolio(parse_scenario({"kmax": 64, "model": model}))
        assert [(r.b, r.q) for r in flat.portfolio.risks] == [(r.b, r.q) for r in listed]
        assert chained.kmax == flat.kmax == 64
        got = allocate_portfolio(chained.portfolio, 64)
        want = allocate_portfolio(flat.portfolio, 64)
        assert np.array_equal(got.fs.masses, want.fs.masses)
        assert np.array_equal(got.expected_allocation, want.expected_allocation)
        assert np.array_equal(got.column_sum, want.column_sum)
        assert np.array_equal(got.valid_mask, want.valid_mask)
        oracle = oracle_enumerate(chained.portfolio, 64)
        assert np.max(np.abs(got.expected_allocation - oracle.expected_allocation)) <= 1e-10

    def test_traced_peak_within_the_memory_estimate(self):
        # the running sum and one level's pgfs and products: 48 bytes per risk and point,
        # whatever the number of levels beyond one (theta* = 4 here)
        rng = np.random.default_rng(3)
        n, kmax = 1000, 2**13
        risks = [BernoulliRisk(int(b), q) for b, q in zip(rng.integers(1, 8, n), rng.uniform(0.01, 0.3, n))]
        spec = FrailtyBernoulliSpec(alpha=0.5, epsilon=0.1)
        assert spec.theta_star == 4
        _, peak = traced_peak(lambda: frailty_allocation(spec, risks, kmax))
        assert peak < 56 * n * kmax

    @pytest.mark.parametrize("levels, n", [("one", 1000), ("several", 500)])
    def test_host_just_above_the_traced_peak_is_admitted(self, monkeypatch, levels, n):
        # the dense estimate (32 bytes per risk and point for one level, 48 for several) is the
        # traced peak once the portfolio dwarfs a row block, so a host 5% above that peak runs it
        rng = np.random.default_rng(3)
        kmax = 2**13
        b, q = tuple(rng.integers(1, 8, n)), tuple(rng.uniform(0.01, 0.3, n))
        risks = [BernoulliRisk(int(bi), qi) for bi, qi in zip(b, q)]
        if levels == "one":
            run = allocate_independent
        else:
            run = partial(frailty_allocation, FrailtyBernoulliSpec(alpha=0.5, epsilon=0.1))
        _, peak = traced_peak(lambda: run(risks, kmax))
        monkeypatch.setattr(allocation, "host_memory_bytes", lambda: int(1.05 * peak))
        assert run(risks, kmax).n_risks == n
