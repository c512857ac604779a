import numpy as np
import pytest

from allocgen import gf
from allocgen.allocation import PortfolioModel, allocate_independent, oracle_enumerate
from allocgen.dependence import (
    SHOCK_LEAVES,
    FrailtyBernoulliSpec,
    GammaMixtureSpec,
    HierarchicalShockSpec,
    frailty_allocation,
    frailty_bernoulli_pgfs,
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
    compound_pmf_panjer,
    negative_binomial_risk,
    poisson_risk,
)
from allocgen.reproduce import BERNOULLI_POOL_B, BERNOULLI_POOL_Q, SHOCK_CASE_LAMBDAS
from allocgen.scenario import allocate_portfolio, build_portfolio, load_scenario


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
        mu = table.expected_allocation[SHOCK_LEAVES.index("111")]
        assert mu[0] == pytest.approx(0.0, abs=1e-15)
        assert mu[1] == pytest.approx(SHOCK_CASE_LAMBDAS["111"] * table.fs_raw[0], abs=1e-12)

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
        assert np.max(np.abs(table.fs_raw - fs)[valid] / fs[valid]) <= 1e-10
        # a leaf's row is lam_n f_S(k - w_n) summed down its path
        inner = valid.copy()
        inner[0] = False
        for i, leaf in enumerate(SHOCK_LEAVES):
            direct = np.zeros(kmax)
            for lam, w in spec.path(leaf):
                direct[w:] += lam * fs[:-w]
            mu = table.expected_allocation[i]
            assert abs(mu[0]) <= 1e-15
            assert np.max(np.abs(mu - direct)[inner] / direct[inner]) <= 1e-10

    def test_piecewise_shifted_sums(self):
        spec = HierarchicalShockSpec(SHOCK_CASE_LAMBDAS)
        table = shock_allocation_table(spec, 128)
        fs = table.fs_raw
        for i, leaf in enumerate(SHOCK_LEAVES):
            direct = np.zeros(128)
            for rate, w in spec.path(leaf):
                direct[w:] += rate * fs[:-w]
            assert np.max(np.abs(direct - table.expected_allocation[i])) <= 1e-12

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
        assert abs(table.expected_allocation[0][0]) <= 1e-15

    def test_transform_matches_convolution(self):
        table = gamma_mixture_allocation(self.SPEC, 1024)
        for i in range(2):
            conv = gamma_mixture_allocation_convolution(self.SPEC, table.fs_raw, i)
            assert np.max(np.abs(conv - table.expected_allocation[i])) <= 1e-11

    def test_total_allocation_is_rate(self):
        table = gamma_mixture_allocation(self.SPEC, 1024)
        assert table.expected_allocation[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_pmf_matches_three_factor_convolution(self):
        table = gamma_mixture_allocation(self.SPEC, 1024)
        direct = gamma_mixture_fs_direct(self.SPEC, 1024)
        assert np.max(np.abs(direct - table.fs_raw)) <= 1e-11

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


class TestFrailty:
    def test_validation(self):
        with pytest.raises(InvalidFrailty):
            FrailtyBernoulliSpec((1, 2), (0.5, 0.5), alpha=1.0)
        with pytest.raises(InvalidMarginal):
            FrailtyBernoulliSpec((1, 2), (0.5, 1.5), alpha=0.5)
        with pytest.raises(InvalidMarginal):
            FrailtyBernoulliSpec((0, 2), (0.5, 0.5), alpha=0.5)

    def test_truncation_level_reference_value(self):
        spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.5, epsilon=1e-10)
        assert spec.theta_star == 34

    def test_degenerate_mixing_is_single_level(self):
        spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.0)
        assert spec.theta_star == 1
        assert np.allclose(spec.claim_calibrations(), BERNOULLI_POOL_Q)

    def test_degenerate_mixing_matches_independent_product(self):
        spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.0)
        fs_hat, alloc_hats = frailty_bernoulli_pgfs(spec, 64)
        risks = [BernoulliRisk(b, q) for b, q in zip(BERNOULLI_POOL_B, BERNOULLI_POOL_Q)]
        z = gf.roots_of_unity(64)
        want = np.ones(64, dtype=complex)
        for r in risks:
            want *= r.pgf_on_roots(z)
        assert np.max(np.abs(fs_hat - want)) <= 1e-12
        indep = allocate_independent(risks, 64)
        table = frailty_allocation(spec, 64)
        assert np.max(np.abs(table.expected_allocation - indep.expected_allocation)) <= 1e-11

    def test_vanishing_mixing_converges_to_independent(self):
        tiny = frailty_allocation(
            FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=1e-12), 64
        )
        indep = frailty_allocation(
            FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.0), 64
        )
        assert np.max(np.abs(tiny.expected_allocation - indep.expected_allocation)) <= 1e-9

    def test_marginal_reconstruction(self):
        spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.5)
        recon = spec.theta_pmf() @ spec.conditional_claim_probs()
        assert np.max(np.abs(recon - np.asarray(BERNOULLI_POOL_Q))) <= 1e-9

    def test_matches_enumeration(self):
        spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.5)
        table = frailty_allocation(spec, 64)
        oracle = oracle_enumerate(PortfolioModel(dependence=spec), 64)
        assert np.max(np.abs(table.expected_allocation - oracle.expected_allocation)) <= 1e-10

    def test_kmax_below_exact_support_rejected(self):
        spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.5)
        with pytest.raises(InvalidMarginal):
            frailty_bernoulli_pgfs(spec, 32)

    def test_full_allocation_identity(self):
        spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.5)
        assert frailty_allocation(spec, 64).identity_deviation() <= 1e-9

    def test_residual_mass_reported(self):
        spec = FrailtyBernoulliSpec(BERNOULLI_POOL_B, BERNOULLI_POOL_Q, alpha=0.5)
        assert spec.residual_mass == pytest.approx(0.5**34)
        table = frailty_allocation(spec, 64)
        assert table.fs_raw.sum() == pytest.approx(1.0 - spec.residual_mass, abs=1e-12)
