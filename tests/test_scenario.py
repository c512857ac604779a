import time
import tracemalloc

import numpy as np
import pytest

from allocgen import allocation
from allocgen.allocation import (
    PortfolioModel,
    allocate_compound_poisson_pool,
    allocate_independent,
    mask_validity,
    oracle_enumerate,
    per_mass,
)
from allocgen.dependence import (
    FrailtyBernoulliSpec,
    frailty_allocation,
    gamma_mixture_allocation,
    shock_allocation_table,
)
from allocgen.errors import ConfigError, EmptyDistribution, KatzDomain
from allocgen.models import BernoulliRisk, PoissonNegbinPool, RiskChain, explicit_risk
from allocgen.pmf import pmf_from_values
from allocgen.reproduce import BERNOULLI_POOL_B, BERNOULLI_POOL_Q
from allocgen.scenario import (
    ConditionalMeanDistribution,
    allocate_portfolio,
    build_portfolio,
    compound_poisson_negbin_risk,
    conditional_mean_distribution,
    count_cdf_crossings,
    load_scenario,
    parse_scenario,
    run_scenario,
    sample_risks,
    write_allocations_csv,
)
from reference import materialised_weights, negbin_pmf_per_risk


def minimal_raw(**overrides):
    raw = {
        "kmax": 16,
        "model": {
            "dependence": "independent",
            "risks": [{"type": "poisson", "lam": 0.5}],
        },
    }
    raw.update(overrides)
    return raw


class TestParsing:
    def test_minimal(self):
        cfg = parse_scenario(minimal_raw())
        assert cfg.kmax == 16 and cfg.dependence == "independent"

    def test_binomial_with_success_probability_above_half(self):
        raw = minimal_raw()
        raw["model"]["risks"] = [{"type": "binomial", "m": 4, "q": 0.7}, {"type": "poisson", "lam": 0.5}]
        built = build_portfolio(parse_scenario(raw))
        table = allocate_portfolio(built.portfolio, built.kmax)
        assert table.expected_allocation[0].sum() == pytest.approx(2.8, rel=1e-12)

    def test_kmax_rounded_to_power_of_two(self):
        cfg = parse_scenario(minimal_raw(kmax=33))
        assert cfg.kmax == 64

    def test_missing_kmax(self):
        with pytest.raises(ConfigError, match="kmax"):
            parse_scenario({"model": {"risks": []}})

    def test_unknown_dependence(self):
        raw = minimal_raw()
        raw["model"]["dependence"] = "copula_soup"
        with pytest.raises(ConfigError, match="dependence"):
            parse_scenario(raw)

    def test_empty_portfolio(self):
        raw = minimal_raw()
        raw["model"]["risks"] = []
        with pytest.raises(ConfigError, match="empty"):
            parse_scenario(raw)

    def test_sampled_requires_seed(self):
        raw = minimal_raw()
        raw["model"]["sampled"] = {"kind": "bernoulli_extras", "count": 3}
        with pytest.raises(ConfigError, match="seed"):
            parse_scenario(raw)

    def test_risk_entry_must_have_type(self):
        raw = minimal_raw()
        raw["model"]["risks"] = [{"lam": 0.5}]
        with pytest.raises(ConfigError, match=r"risks\[0\]"):
            parse_scenario(raw)

    def test_unknown_risk_type_points_at_field(self):
        raw = minimal_raw()
        raw["model"]["risks"] = [{"type": "weibull"}]
        with pytest.raises(ConfigError, match=r"risks\[0\].type"):
            build_portfolio(parse_scenario(raw))

    def test_over_unit_severity_is_a_config_error_with_a_plain_float(self):
        raw = minimal_raw()
        raw["model"]["risks"] = [{"type": "compound_poisson", "lam": 0.5, "severity": [0.5, 0.500001]}]
        with pytest.raises(ConfigError) as info:
            build_portfolio(parse_scenario(raw))
        assert str(info.value) == "model.risks[0]: total mass 1.0000010000000001 exceeds 1"

    def test_gamma_requires_parameters(self):
        raw = minimal_raw()
        raw["model"] = {"dependence": "gamma_mixture", "gamma0": 1.0}
        with pytest.raises(ConfigError, match="r1"):
            parse_scenario(raw)

    def test_shipped_scenarios_parse(self, scenario_dir):
        for path in sorted(scenario_dir.glob("*.yaml")):
            cfg = load_scenario(path)
            assert cfg.kmax >= 2


class TestBuild:
    def test_frailty_kmax_bumped_to_exact_support(self):
        raw = {
            "kmax": 4,
            "model": {
                "dependence": "frailty_bernoulli",
                "alpha": 0.5,
                "risks": [
                    {"type": "bernoulli", "b": b, "q": q}
                    for b, q in zip(BERNOULLI_POOL_B, BERNOULLI_POOL_Q)
                ],
            },
        }
        built = build_portfolio(parse_scenario(raw))
        assert built.kmax == 64
        assert isinstance(built.portfolio.dependence, FrailtyBernoulliSpec)

    def test_frailty_margins_are_the_portfolio_risks(self):
        raw = {"kmax": 64, "model": {"dependence": "frailty_bernoulli", "alpha": 0.5,
                                     "risks": [{"type": "bernoulli", "b": 3, "q": 0.2}]}}
        built = build_portfolio(parse_scenario(raw))
        assert built.portfolio.risks == [BernoulliRisk(3, 0.2)]
        assert built.portfolio.dependence == FrailtyBernoulliSpec(alpha=0.5, epsilon=1e-10)
        # a margin that is not an indicator is a config error on model.risks
        raw["model"]["risks"].append({"type": "poisson", "lam": 0.5})
        with pytest.raises(ConfigError, match=r"model\.risks: .*Bernoulli"):
            build_portfolio(parse_scenario(raw))

    def test_sampled_extras_deterministic(self):
        raw = minimal_raw(seed=7)
        raw["model"]["sampled"] = {"kind": "bernoulli_extras", "count": 5}
        a = build_portfolio(parse_scenario(raw))
        b = build_portfolio(parse_scenario(raw))
        assert [(r.b, r.q) for r in [*a.portfolio.risks][1:]] == [
            (r.b, r.q) for r in [*b.portfolio.risks][1:]
        ]

    def test_sampled_pool_draws_are_pinned(self):
        # the shipped large pool: seed 20260810, 10,000 risks at kmax 2^13
        risks = sample_risks({"kind": "compound_poisson_negbin", "count": 10_000}, 20260810, 2**13)
        lams = [r.frequency.b for r in risks]
        assert lams[:3] == [0.05430753021742545, 0.18228166963043577, 0.1399062849073813]
        assert sum(lams) == pytest.approx(1019.0609342466404, rel=1e-13)
        assert [len(r.severity.masses) for r in risks[:3]] == [1094, 1193, 1357]

    def test_sampled_pareto_extras_are_pinned(self):
        # the heavy-tail reproduction's 97 extras at their default ranges, xmax 2^15 on 2^17 points
        risks = sample_risks({"kind": "pareto_extras", "count": 97, "xmax": 2**15}, 20260810, 2**17)
        assert [r.mean() for r in risks[:3]] == [17.100863067247367, 15.669826856716472, 15.537141175936208]
        assert sum(r.mean() for r in risks) == pytest.approx(1640.1822816039007, rel=1e-13)
        assert {len(r.pmf.masses) for r in risks} == {2**15}

    def test_sampled_bernoulli_extras_are_pinned(self):
        # the frailty reproduction's 69 extras at their default choices and range
        risks = sample_risks({"kind": "bernoulli_extras", "count": 69}, 20260810, 64)
        assert [(r.b, r.q) for r in risks[:3]] == [
            (9, 0.660841490666194), (4, 0.44504982278762484), (2, 0.03285564734681823)
        ]
        assert sum(r.b for r in risks) == 417
        assert sum(r.q for r in risks) == pytest.approx(31.403575249444508, rel=1e-13)

    def test_sampled_fields_may_be_strings(self):
        # every field is converted through its table entry, so no caller types it first
        typed = {"kind": "compound_poisson_negbin", "count": 300, "r_choices": [1, 3],
                 "q_range": [0.2, 0.9], "lam_exp_mean": 0.2, "severity_length": 512}
        text = {"kind": "compound_poisson_negbin", "count": "300", "r_choices": ["1", "3"],
                "q_range": ["0.2", "0.9"], "lam_exp_mean": "0.2", "severity_length": "512"}
        a, b = sample_risks(typed, 42, 2**10), sample_risks(text, 42, 2**10)
        assert len(a) == len(b) == 300 and a.severity_length == b.severity_length == 512
        for got, want in ((b.lam, a.lam), (b.r, a.r), (b.q, a.q)):
            assert np.array_equal(got, want)

    def test_sampled_pool_matches_per_risk_build(self):
        # 1100 risks span three blocks of the row-wise recursion; each must be
        # what the one-risk recursion and pmf_from_values give, bit for bit
        sampled = {"kind": "compound_poisson_negbin", "count": 1100, "r_choices": [1, 3, 6],
                   "q_range": [0.2, 0.9]}
        risks = sample_risks(sampled, 42, 2**12)
        rng = np.random.default_rng(42)
        lams = rng.exponential(0.1, size=1100)
        rs = rng.choice([1, 3, 6], size=1100)
        qs = rng.uniform(0.2, 0.9, size=1100)
        for risk, lam, r, q in zip(risks, lams, rs, qs):
            sev = negbin_pmf_per_risk(float(r), float(q), 2**12)
            want = pmf_from_values(sev[: int(np.flatnonzero(sev > 0.0)[-1]) + 1])
            assert risk.frequency.b == float(lam)
            assert np.array_equal(risk.severity.masses, want.masses)

    def test_sampled_pool_value_builds_each_risk_alone(self):
        # 1100 risks span nine blocks of the recursion; indexing, slicing and
        # iteration each give, bit for bit, the risk built from its own draw
        sampled = {"kind": "compound_poisson_negbin", "count": 1100, "r_choices": [1, 3, 6],
                   "q_range": [0.2, 0.9]}
        pool = sample_risks(sampled, 42, 2**12)
        assert isinstance(pool, PoissonNegbinPool) and len(pool) == 1100
        rng = np.random.default_rng(42)
        draws = zip(rng.exponential(0.1, size=1100), rng.choice([1, 3, 6], size=1100),
                    rng.uniform(0.2, 0.9, size=1100))
        want = [compound_poisson_negbin_risk(lam, r, q, 2**12) for lam, r, q in draws]

        def same(got, ref):
            return (
                got.frequency == ref.frequency
                and np.array_equal(got.severity.masses, ref.severity.masses)
                and got.severity.step_h == ref.severity.step_h
            )

        assert all(same(got, ref) for got, ref in zip(pool, want))
        for i in (0, 127, 128, 555, 1099, -1, -1100):
            assert same(pool[i], want[i])
        part = pool[300:700]
        assert isinstance(part, PoissonNegbinPool) and len(part) == 400
        assert all(same(got, ref) for got, ref in zip(list(part), want[300:700]))
        with pytest.raises(IndexError):
            pool[1100]

    def test_severity_cut_below_its_support(self):
        # eight points hold about 0.96 of NB(2, 0.45): the rest is recorded, not renormalized
        risk = compound_poisson_negbin_risk(0.2, 2, 0.45, 8)
        want = pmf_from_values(negbin_pmf_per_risk(2.0, 0.45, 8))
        assert np.array_equal(risk.severity.masses, want.masses)
        assert 1.0 - risk.severity.total_mass > 0.03

    def test_severity_with_no_mass_in_range(self):
        # NB(400, 0.1) has no mass above the smallest normal float below 8
        with pytest.raises(KatzDomain, match="no mass"):
            compound_poisson_negbin_risk(0.5, 400, 0.1, 8)

    def test_unknown_sampled_kind(self):
        with pytest.raises(ConfigError, match="unknown kind"):
            sample_risks({"kind": "lognormal", "count": 3}, 1, 16)

    def test_compound_poisson_negbin_type(self):
        raw = minimal_raw(kmax=512)
        raw["model"]["risks"] = [
            {"type": "compound_poisson_negbin", "lam": 0.2, "r": 2, "q": 0.45}
        ]
        built = build_portfolio(parse_scenario(raw))
        assert built.portfolio.risks[0].mean() == pytest.approx(0.2 * 2 * 0.55 / 0.45)

    def test_pareto_risk_records_truncation_note(self):
        raw = minimal_raw()
        raw["model"]["risks"] = [{"type": "pareto", "alpha": 1.5, "lam": 5.0, "xmax": 4096}]
        built = build_portfolio(parse_scenario(raw))
        assert any("arithmetized" in n for n in built.truncation_notes)


class TestConditionalMeanDistribution:
    def test_degenerate_total(self):
        table = allocate_portfolio(PortfolioModel(risks=[explicit_risk([0, 0, 1.0])]), 8)
        dist = conditional_mean_distribution(table, 0)
        assert len(dist.support) == 1
        assert dist.support[0] == pytest.approx(2.0)

    def test_masses_sum_to_valid_probability(self, bernoulli_pool):
        table = allocate_portfolio(PortfolioModel(risks=bernoulli_pool), 64)
        dist = conditional_mean_distribution(table, 2)
        assert dist.masses.sum() == pytest.approx(
            table.fs.masses[table.valid_mask].sum(), abs=1e-12
        )

    def test_matches_enumeration_masses(self, bernoulli_pool):
        table = allocate_portfolio(PortfolioModel(risks=bernoulli_pool), 64)
        oracle = oracle_enumerate(PortfolioModel(risks=bernoulli_pool), 64)
        dist = conditional_mean_distribution(table, 2)
        # pull the oracle's conditional means onto the engine's valid points
        vals = per_mass(oracle.rows(2), oracle.fs.masses)[table.valid_mask]
        masses = oracle.fs.masses[table.valid_mask]
        want = {}
        for v, m in zip(vals, masses):
            key = round(v, 9)
            want[key] = want.get(key, 0.0) + m
        got = {}
        for v, m in zip(np.round(dist.support, 9), dist.masses):
            got[v] = got.get(v, 0.0) + m
        assert set(got) == set(want)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-10)

    def test_no_valid_entries(self):
        table = allocate_portfolio(PortfolioModel(risks=[explicit_risk([0, 1.0])]), 8)
        starved = table
        starved.valid_mask[:] = False
        with pytest.raises(EmptyDistribution):
            conditional_mean_distribution(starved, 0)


class TestCrossings:
    def test_equal_mean_spread_crosses_once(self):
        a = ConditionalMeanDistribution(np.array([1.0]), np.array([1.0]))
        b = ConditionalMeanDistribution(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        assert count_cdf_crossings(a, b) == 1

    def test_dominated_pair_never_crosses(self):
        a = ConditionalMeanDistribution(np.array([1.0]), np.array([1.0]))
        b = ConditionalMeanDistribution(np.array([2.0]), np.array([1.0]))
        assert count_cdf_crossings(a, b) == 0

    def test_identical_distributions_never_cross(self):
        a = ConditionalMeanDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        assert count_cdf_crossings(a, a) == 0

    def test_double_crossing(self):
        # cdf difference runs +, -, + across the union grid
        a = ConditionalMeanDistribution(np.array([0.0, 2.0]), np.array([0.3, 0.7]))
        b = ConditionalMeanDistribution(np.array([1.0, 3.0]), np.array([0.4, 0.6]))
        assert count_cdf_crossings(a, b) == 2

    def test_noise_level_values_cluster(self):
        # +/-1e-16 atoms are the same point up to transform noise; without
        # clustering the first grid point would manufacture a spurious flip
        a = ConditionalMeanDistribution(np.array([-1e-16, 10.0]), np.array([0.5, 0.5]))
        b = ConditionalMeanDistribution(np.array([1e-16, 9.0]), np.array([0.6, 0.4]))
        assert count_cdf_crossings(a, b) == 0


class TestAllocatePortfolioMasksOnce:
    # the bare engine behind each small shipped scenario
    ENGINES = {
        "small_pool": lambda p, kmax: allocate_compound_poisson_pool(p.risks, kmax),
        "bernoulli_pool": lambda p, kmax: allocate_independent(p.risks, kmax),
        "shock": lambda p, kmax: shock_allocation_table(p.dependence, kmax),
        "gamma_mixture": lambda p, kmax: gamma_mixture_allocation(p.dependence, kmax),
        "frailty": lambda p, kmax: frailty_allocation(p.dependence, p.risks, kmax),
    }

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_equals_mask_validity_of_the_engine_table(self, scenario_dir, name):
        built = build_portfolio(load_scenario(scenario_dir / f"{name}.yaml"))
        bare = self.ENGINES[name](built.portfolio, built.kmax)
        got = allocate_portfolio(built.portfolio, built.kmax, tolerance=1e-12, underflow_floor=1e-13)
        want = mask_validity(bare, 1e-12, 1e-13)
        assert np.array_equal(got.valid_mask, want.valid_mask)
        assert (got.tolerance_used, got.underflow_floor) == (1e-12, 1e-13)
        assert np.array_equal(got.expected_allocation, bare.expected_allocation)
        # the stricter settings only ever drop points from the engine's default mask
        assert not np.any(got.valid_mask & ~bare.valid_mask)


class TestRunScenario:
    def test_small_pool_outputs(self, scenario_dir, tmp_path):
        cfg = load_scenario(scenario_dir / "small_pool.yaml")
        result = run_scenario(cfg, tmp_path)
        names = {p.name for p in result.paths}
        assert "allocations.csv" in names and "report.txt" in names
        lines = (tmp_path / "allocations.csv").read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        assert header.split(",")[:3] == ["k", "f_S", "F_S"]
        assert header.split(",")[-1] == "valid"

    def test_invalid_rows_flagged_not_dropped(self, scenario_dir, tmp_path):
        cfg = load_scenario(scenario_dir / "small_pool.yaml")
        run_scenario(cfg, tmp_path)
        rows = [
            line.split(",")
            for line in (tmp_path / "allocations.csv").read_text().splitlines()
            if not line.startswith("#") and not line.startswith("k,")
        ]
        assert len(rows) == 64  # every lattice point present
        flags = {row[-1] for row in rows}
        assert flags == {"0", "1"}

    def test_determinism_byte_identical(self, scenario_dir, tmp_path):
        cfg = load_scenario(scenario_dir / "frailty.yaml")
        run_scenario(cfg, tmp_path / "a")
        run_scenario(cfg, tmp_path / "b")
        for name in ("allocations.csv", "report.txt", "cond_mean_dist_3.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_frailty_run_log_reports_mixing_truncation(self, scenario_dir, tmp_path):
        cfg = load_scenario(scenario_dir / "frailty.yaml")
        run_scenario(cfg, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "theta_star=34" in text

    def test_validation_curve_column_present(self, scenario_dir, tmp_path):
        cfg = load_scenario(scenario_dir / "small_pool.yaml")
        run_scenario(cfg, tmp_path)
        lines = (tmp_path / "allocations.csv").read_text().splitlines()
        header = next(line for line in lines if not line.startswith("#")).split(",")
        assert header[-2:] == ["cond_total", "valid"]
        first = lines[lines.index(",".join(header)) + 1].split(",")
        # nothing owed at S=0 (up to inverse-transform noise)
        assert abs(float(first[header.index("cond_total")])) < 1e-12

    @pytest.mark.parametrize("name, factored", [("shock", True), ("bernoulli_pool", False)])
    def test_allocations_csv_reads_each_row_once(self, scenario_dir, tmp_path, name, factored):
        built = build_portfolio(load_scenario(scenario_dir / f"{name}.yaml"))
        table = allocate_portfolio(built.portfolio, built.kmax)
        assert (table.seq is not None) == factored
        columns = [table.n_risks - 1, 0, 2]
        rows, reads = table.rows, []

        def counted(idx):
            reads.append(idx)
            return rows(idx)

        table.rows = counted
        write_allocations_csv(tmp_path / "allocations.csv", table, columns)
        assert len(reads) == 1
        del table.rows
        # shortest round-trip floats read back bit for bit
        data = np.loadtxt(tmp_path / "allocations.csv", delimiter=",", skiprows=1).T
        mu = table.rows(columns)
        assert np.array_equal(data[3:-2:3], mu)
        assert np.array_equal(data[4:-2:3], np.cumsum(mu, axis=1))
        assert np.array_equal(data[5:-2:3], per_mass(mu, table.fs.masses), equal_nan=True)
        assert np.array_equal(data[-2], table.validation_curve, equal_nan=True)

    def test_rvar_sections_written(self, scenario_dir, tmp_path):
        cfg = load_scenario(scenario_dir / "bernoulli_pool.yaml")
        result = run_scenario(cfg, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "rvar(0.9,0.99)" in text
        assert "layers risk 1" in text
        assert result.table.n_risks == 6

    def test_pool_run_never_forms_the_dense_table(self, tmp_path):
        # 2000 risks at 2^13: the n x kmax table would take 131 MB
        raw = {
            "kmax": 2**13,
            "seed": 11,
            "model": {
                "sampled": {"kind": "compound_poisson_negbin", "count": 2000, "severity_length": 128}
            },
            "outputs": {
                "rvar_levels": [[0.9, 0.99], [0.9, 1.0]],
                "layers": [100, 200],
                "pmf_of_conditional_means": [1, 2],
            },
        }
        cfg = parse_scenario(raw, name="pool2000")
        dense_bytes = 2000 * 2**13 * 8
        tracemalloc.start()
        try:
            result = run_scenario(cfg, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.table.seq is not None and result.table.valid_mask.sum() > 500
        assert peak < dense_bytes / 10
        assert "allocations.csv" in {p.name for p in result.paths}

    def test_sampled_pool_streams_through_the_engine(self):
        # 20,000 risks at 2^12: the per-risk severities would take about 194 MB
        raw = {
            "kmax": 2**12,
            "seed": 5,
            "model": {
                "sampled": {"kind": "compound_poisson_negbin", "count": 20_000, "lam_exp_mean": 0.03}
            },
        }
        cfg = parse_scenario(raw, name="pool20k")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            built = build_portfolio(cfg)
            table = allocate_portfolio(built.portfolio, built.kmax)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(built.portfolio.risks, PoissonNegbinPool)
        assert table.n_risks == 20_000 and table.valid_mask.sum() > 1000
        assert elapsed <= 5.0
        severity_bytes = sum(r.severity.masses.nbytes for r in built.portfolio.risks)
        assert peak < severity_bytes / 5

    def test_sampled_pool_run_builds_no_risk(self, tmp_path, monkeypatch):
        # every output of a sampled pool, alone or after an explicit risk (a Poisson random sum or
        # an other margin), comes from the engine's blocks
        def refuse(self):
            raise AssertionError("the pool's risks were built")

        monkeypatch.setattr(PoissonNegbinPool, "__iter__", refuse)
        monkeypatch.setattr(PoissonNegbinPool, "__getitem__", refuse)
        for i, explicit in enumerate(([], [{"type": "compound_poisson", "lam": 0.5, "severity": [0.0, 1.0]}],
                                      [{"type": "bernoulli", "b": 3, "q": 0.2}])):
            raw = {
                "kmax": 2**11,
                "seed": 11,
                "model": {"risks": explicit, "sampled": {"kind": "compound_poisson_negbin", "count": 300}},
                "outputs": {"rvar_levels": [[0.9, 0.99]], "layers": [100, 200],
                            "pmf_of_conditional_means": [1]},
            }
            result = run_scenario(parse_scenario(raw, name="pool300"), tmp_path / f"run{i}")
            assert result.table.n_risks == 300 + len(explicit)
            assert result.table.seq is not None and result.table.valid_mask.sum() > 200

    def test_counts_ahead_of_a_sampled_pool_take_the_pool_engine(self):
        # an NB or a Poisson count is a Poisson number of claims, so the chain stays factored
        raw = {
            "kmax": 2**11,
            "seed": 11,
            "model": {"risks": [{"type": "negative_binomial", "r": 2, "q": 0.5}, {"type": "poisson", "lam": 0.7}],
                      "sampled": {"kind": "compound_poisson_negbin", "count": 300}},
        }
        built = build_portfolio(parse_scenario(raw))
        assert isinstance(built.portfolio.risks, RiskChain)
        table = allocate_portfolio(built.portfolio, built.kmax)
        want = allocate_compound_poisson_pool(list(built.portfolio.risks), built.kmax)
        assert table.seq is not None and table.valid_mask.sum() > 200
        assert np.array_equal(materialised_weights(table), materialised_weights(want))

    def test_mix_that_is_not_all_poisson_stays_factored(self):
        # the Bernoulli risk is the one other margin: the chain reads as its list, and the
        # table stays one product over f_pool that agrees with the independent engine
        raw = {
            "kmax": 256,
            "seed": 3,
            "model": {"risks": [{"type": "bernoulli", "b": 3, "q": 0.2}],
                      "sampled": {"kind": "compound_poisson_negbin", "count": 5}},
        }
        built = build_portfolio(parse_scenario(raw))
        risks = built.portfolio.risks
        assert isinstance(risks, RiskChain) and len(risks) == 6
        table = allocate_portfolio(built.portfolio, built.kmax)
        want = allocate_compound_poisson_pool(list(risks), built.kmax)
        assert table.seq is not None and np.array_equal(materialised_weights(table), materialised_weights(want))
        dense = allocate_independent(list(risks), built.kmax)
        valid = table.valid_mask & dense.valid_mask
        assert valid.sum() > 50
        assert np.max(np.abs(table.expected_allocation - dense.expected_allocation)[:, valid]) <= 1e-10

    def test_chain_through_the_independent_engine_over_several_row_blocks(self, monkeypatch):
        # a chain with no Poisson claims runs the dense engine: the list in one dense block,
        # then the chain at two rows per block, so its margins are read by three blocks in
        # turn, and each must get its own rows
        raw = {
            "kmax": 256,
            "seed": 3,
            "model": {"risks": [{"type": "bernoulli", "b": 3, "q": 0.2}],
                      "sampled": {"kind": "bernoulli_extras", "count": 5}},
        }
        built = build_portfolio(parse_scenario(raw))
        want = allocate_independent(list(built.portfolio.risks), built.kmax)
        monkeypatch.setattr(allocation, "BLOCK_BYTES", 2 * 16 * 256)
        assert len(allocation.row_blocks(len(built.portfolio.risks), built.kmax)) == 3
        table = allocate_portfolio(built.portfolio, built.kmax)
        assert table.seq is None and np.array_equal(table.weights, want.weights)
        assert np.array_equal(table.fs.masses, want.fs.masses)

    def test_bad_risk_column_selection(self, scenario_dir, tmp_path):
        cfg = load_scenario(scenario_dir / "small_pool.yaml")
        cfg.outputs["risk_columns"] = [9]
        with pytest.raises(ConfigError, match="risk_columns"):
            run_scenario(cfg, tmp_path)
