import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocgen.allocation import (
    PoolWeights,
    allocate_compound_poisson_pool,
    allocate_independent,
    assemble_table,
    mask_validity,
)
from allocgen.errors import BoundaryUnderflow, TruncatedQuantile
from allocgen.models import explicit_risk, poisson_risk
from allocgen.pmf import degenerate_pmf, pmf_from_values
from allocgen.scenario import allocate_portfolio, build_portfolio, load_scenario
from allocgen.risk_measures import (
    RVaRLevels,
    euler_rvar_contributions,
    rvar,
    tvar,
    var_level,
)
from reference import euler_rvar_cumulative

THREE_POINT = pmf_from_values([0.5, 0.3, 0.2])
STRADDLED = pmf_from_values([0.1, 0.4, 0.5])


def brute_var(fs, kappa):
    acc = 0.0
    for k, m in enumerate(fs.masses):
        acc += m
        if acc >= kappa:
            return k * fs.step_h
    raise AssertionError("level unreachable")


def normalized(weights):
    return pmf_from_values(np.asarray(weights) / np.sum(weights))


def quantile_integral(fs, a1, a2):
    """RVaR as the mean of the quantile over (a1, a2], summed atom by atom.

    Atom k holds the levels (F(k-1), F(k)]; its weight is the exact width of
    their overlap with (a1, a2], so nearby levels cost no digits.
    """
    cdf = fs.cdf()
    lo = np.maximum(np.concatenate([[0.0], cdf[:-1]]), a1)
    width = np.maximum(np.minimum(cdf, a2) - lo, 0.0)
    return float(np.dot(fs.step_h * np.arange(len(fs)), width)) / (a2 - a1)


mass_vectors = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12).map(normalized)


class TestVaR:
    def test_degenerate(self):
        assert var_level(degenerate_pmf(5, 8), 0.5) == 5

    def test_plateau_convention(self):
        assert var_level(pmf_from_values([0.25, 0.25, 0.5]), 0.5) == 1

    def test_out_of_range_levels(self):
        with pytest.raises(TruncatedQuantile):
            var_level(THREE_POINT, 0.0)
        with pytest.raises(TruncatedQuantile):
            var_level(THREE_POINT, 1.0)

    def test_truncated_mass_unreachable(self):
        sub = pmf_from_values([0.5, 0.25])  # quarter of the mass is off-grid
        with pytest.raises(TruncatedQuantile) as info:
            var_level(sub, 0.9)
        # a plain float, not numpy's np.float64(...) repr
        assert str(info.value) == "level 0.9 above reachable mass 0.75 on the stored grid"

    @given(mass_vectors, st.floats(0.01, 0.99))
    @settings(max_examples=50)
    def test_matches_linear_scan(self, fs, kappa):
        assert var_level(fs, kappa) == brute_var(fs, kappa)


class TestTVaR:
    def test_degenerate(self):
        for kappa in (0.1, 0.5, 0.9):
            assert tvar(degenerate_pmf(3, 8), kappa) == pytest.approx(3.0)

    def test_small_level_gives_mean(self):
        assert tvar(THREE_POINT, 1e-12) == pytest.approx(THREE_POINT.mean(), abs=1e-9)

    def test_hand_example(self):
        # v=1, tail mass 0.2 at the point 2 -> (0.4 + 1*(0.8-0.8)) / 0.2 = 2.0
        assert tvar(THREE_POINT, 0.8) == pytest.approx(2.0)

    @given(mass_vectors, st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_dominates_var(self, fs, kappa):
        assert tvar(fs, kappa) >= var_level(fs, kappa) - 1e-12

    def test_translation(self):
        shifted = pmf_from_values(np.concatenate([[0.0] * 3, THREE_POINT.masses]))
        for kappa in (0.3, 0.6, 0.9):
            assert var_level(shifted, kappa) == var_level(THREE_POINT, kappa) + 3
            assert tvar(shifted, kappa) == pytest.approx(tvar(THREE_POINT, kappa) + 3.0)


class TestRVaR:
    def test_levels_validation(self):
        with pytest.raises(TruncatedQuantile):
            RVaRLevels(0.9, 0.5)

    def test_equal_levels_degenerate_to_quantile(self):
        assert rvar(THREE_POINT, RVaRLevels(0.6, 0.6)) == var_level(THREE_POINT, 0.6)

    def test_upper_level_one_degenerates_to_tail_expectation(self):
        assert rvar(THREE_POINT, RVaRLevels(0.8, 1.0)) == tvar(THREE_POINT, 0.8)

    def test_tvar_difference_identity(self):
        a1, a2 = 0.6, 0.9
        want = ((1 - a1) * tvar(THREE_POINT, a1) - (1 - a2) * tvar(THREE_POINT, a2)) / (a2 - a1)
        assert rvar(THREE_POINT, RVaRLevels(a1, a2)) == pytest.approx(want, abs=1e-12)

    @given(mass_vectors, st.floats(0.05, 0.9), st.floats(0.05, 0.9))
    @example(normalized([0.125, 1.0, 1.0, 1.0, 1.0]), 0.05, np.nextafter(0.05, 1.0))
    # levels one ulp either side of an atom boundary (F = 0.1 and F = 0.5)
    @example(STRADDLED, 0.1, np.nextafter(0.1, 1.0))
    @example(STRADDLED, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0))
    @settings(max_examples=50)
    def test_identity_on_random_pmfs(self, fs, a, b):
        a1, a2 = min(a, b), max(a, b)
        if a1 == a2:
            return
        want = quantile_integral(fs, a1, a2)
        assert rvar(fs, RVaRLevels(a1, a2)) == pytest.approx(want, abs=1e-10)

    def test_levels_one_ulp_apart_inside_one_atom(self):
        # F(0) < 0.05 < F(1): both levels cut the atom at 1
        fs = normalized([0.125, 1.0, 1.0, 1.0, 1.0])
        assert rvar(fs, RVaRLevels(0.05, np.nextafter(0.05, 1.0))) == 1.0

    def test_monotone_in_lower_level(self):
        values = [rvar(THREE_POINT, RVaRLevels(a1, 0.95)) for a1 in (0.1, 0.3, 0.5, 0.7)]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))


class TestEulerContributions:
    LEVELS = [RVaRLevels(0.90, 0.99), RVaRLevels(0.95, 0.95), RVaRLevels(0.90, 1.0)]

    def test_full_allocation_on_small_pool(self, small_pool):
        table = allocate_compound_poisson_pool(small_pool, 64)
        for levels in self.LEVELS:
            contribs = euler_rvar_contributions(table, levels)
            assert contribs.sum() == pytest.approx(rvar(table.fs, levels), abs=1e-9)

    def test_two_iid_risks_split_evenly(self):
        risks = [explicit_risk([0.2, 0.5, 0.3]), explicit_risk([0.2, 0.5, 0.3])]
        table = allocate_independent(risks, 16)
        for levels in self.LEVELS:
            contribs = euler_rvar_contributions(table, levels)
            assert contribs[0] == pytest.approx(contribs[1], abs=1e-10)

    def test_poisson_pool_contributions_are_proportional(self):
        lams = (0.5, 1.0, 2.0)
        table = allocate_independent([poisson_risk(l) for l in lams], 64)
        for levels in self.LEVELS:
            contribs = euler_rvar_contributions(table, levels)
            ratios = contribs / contribs[0]
            want = np.asarray(lams) / lams[0]
            assert np.allclose(ratios, want, atol=1e-8)

    def test_equal_levels_return_conditional_means(self, small_pool):
        table = allocate_compound_poisson_pool(small_pool, 64)
        v = var_level(table.fs, 0.95)
        contribs = euler_rvar_contributions(table, RVaRLevels(0.95, 0.95))
        assert np.allclose(contribs, table.expected_allocation[:, v] / table.fs.masses[v])

    def test_levels_inside_one_atom_return_conditional_means(self, small_pool):
        table = allocate_compound_poisson_pool(small_pool, 64)
        levels = RVaRLevels(0.95, np.nextafter(0.95, 1.0))
        v = var_level(table.fs, 0.95)
        contribs = euler_rvar_contributions(table, levels)
        assert np.array_equal(contribs, table.conditional_mean_at(v))
        assert rvar(table.fs, levels) == v
        assert contribs.sum() == pytest.approx(v, abs=1e-9)

    def test_every_level_from_one_pass_is_its_own_split(self, small_pool, monkeypatch):
        # a sequence of levels reads the pool's weights once, and each split is the one its
        # level gets alone, the conditional mean at an atom included
        table = allocate_compound_poisson_pool(small_pool, 64)
        levels = [*self.LEVELS, RVaRLevels(0.95, np.nextafter(0.95, 1.0))]
        alone = [euler_rvar_contributions(table, level) for level in levels]
        read, reads = PoolWeights.__getitem__, []
        monkeypatch.setattr(PoolWeights, "__getitem__", lambda weights, rows: reads.append(rows) or read(weights, rows))
        together = euler_rvar_contributions(table, levels)
        assert len(reads) == 1 and table.n_risks <= 128
        for got, want in zip(together, alone, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(together[-1], table.conditional_mean_at(var_level(table.fs, 0.95)))
        assert euler_rvar_contributions(table, []) == []

    def test_levels_straddling_an_atom_boundary(self):
        # F(0) = 0.1 exactly: the band (0.1, 0.1 + 1 ulp] lies wholly on atom 1
        table = allocate_independent([explicit_risk(STRADDLED.masses), explicit_risk([1.0])], 8)
        levels = RVaRLevels(0.1, np.nextafter(0.1, 1.0))
        assert rvar(table.fs, levels) == 1.0
        assert np.allclose(euler_rvar_contributions(table, levels), [1.0, 0.0], rtol=0, atol=1e-12)

    def test_masked_boundary_atom_raises(self, small_pool):
        # VaR at 1 - 1e-13 is lattice point 36, whose exact mass 6.98e-14 lies
        # below this floor, so its atom is masked
        table = mask_validity(allocate_compound_poisson_pool(small_pool, 64), underflow_floor=1e-13)
        with pytest.raises(BoundaryUnderflow):
            euler_rvar_contributions(table, RVaRLevels(1.0 - 1e-13, 1.0 - 1e-13))

    def test_masked_upper_boundary_atom_raises(self, small_pool):
        # the lower atom (VaR at 0.9) is valid; the upper one is lattice point 36, masked as above
        table = mask_validity(allocate_compound_poisson_pool(small_pool, 64), underflow_floor=1e-13)
        with pytest.raises(BoundaryUnderflow, match="upper quantile atom at lattice point 36"):
            euler_rvar_contributions(table, RVaRLevels(0.9, 1.0 - 1e-13))

    @pytest.mark.parametrize("name", ["small_pool", "bernoulli_pool", "shock", "gamma_mixture", "frailty"])
    def test_matches_cumulative_difference_on_shipped_scenarios(self, scenario_dir, name):
        config = load_scenario(scenario_dir / f"{name}.yaml")
        built = build_portfolio(config)
        table = allocate_portfolio(
            built.portfolio, built.kmax,
            tolerance=config.tolerance, underflow_floor=config.underflow_floor,
        )
        assert len(config.outputs["rvar_levels"]) == 3
        for levels in config.outputs["rvar_levels"]:
            got = euler_rvar_contributions(table, levels)
            want = euler_rvar_cumulative(table, levels.alpha1, levels.alpha2)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(got).max())

    def test_tail_band_through_the_top_of_the_buffer(self):
        # S = X1 + X2 takes every value 0..3 of the 4-point buffer; F_S(0) = 0.1 < 0.3 < F_S(1)
        table = allocate_independent([explicit_risk([0.5, 0.5]), explicit_risk([0.2, 0.5, 0.3])], 4)
        assert table.fs.masses[-1] > 0.1 and table.valid_mask.all()
        levels = RVaRLevels(0.3, 1.0)
        got = euler_rvar_contributions(table, levels)
        want = euler_rvar_cumulative(table, 0.3, 1.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(got).max())
        assert got.sum() == pytest.approx(tvar(table.fs, 0.3), abs=1e-12)


class TestNegativeRoundoffInFS:
    # an inverse transform can leave f_S slightly negative in its tail: here a
    # dip of -2^-40 at 4, so the cdf reaches 1 at 3 and falls below it at 4 and 5
    FS = np.array([0.5, 0.25, 0.125, 0.125, -(2.0**-40), 2.0**-41, 2.0**-41, 0.0])

    def table(self):
        k = np.arange(len(self.FS), dtype=float)
        return assemble_table(self.FS, [(slice(None), np.outer([0.25, 0.75], k * self.FS), None)], [0.25, 0.75])

    def test_split_adds_up_to_the_total_through_the_dip(self):
        table = self.table()
        assert table.fs.masses[4] == -(2.0**-40)  # kept, not clamped
        for levels in (RVaRLevels(0.8, 1.0), RVaRLevels(0.8, 1.0 - 2.0**-42)):
            total = rvar(table.fs, levels)
            got = euler_rvar_contributions(table, levels).sum()
            assert got == pytest.approx(total, rel=1e-15, abs=0.0)

    def test_quantile_is_the_first_crossing(self):
        # 1 - 2^-42 is reached at 3, lost at 4 and 5 and reached again at 6
        assert var_level(self.table().fs, 1.0 - 2.0**-42) == 3
