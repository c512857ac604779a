import pytest

from allocgen import allocation
from allocgen.cli import main


class TestRun:
    def test_small_pool(self, scenario_dir, tmp_path, capsys):
        code = main(["run", str(scenario_dir / "small_pool.yaml"), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "allocations.csv").exists()
        assert (tmp_path / "report.txt").exists()
        out = capsys.readouterr().out
        assert "full_allocation_max_rel_dev_on_valid" in out

    def test_kmax_override(self, scenario_dir, tmp_path):
        code = main(
            ["run", str(scenario_dir / "bernoulli_pool.yaml"), "--out", str(tmp_path), "--kmax", "100"]
        )
        assert code == 0
        rows = [
            r
            for r in (tmp_path / "allocations.csv").read_text().splitlines()
            if r and not r.startswith("#") and not r.startswith("k,")
        ]
        assert len(rows) == 128

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert code == 2

    def test_bad_scenario_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kmax: 16\nmodel: {dependence: independent, risks: []}\n")
        code = main(["run", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_severity_whose_first_mass_underflows(self, tmp_path, capsys):
        # q^r = 1e-400: the severity is still computed, around its mean 3600
        scenario = tmp_path / "nb400.yaml"
        scenario.write_text(
            "kmax: 32768\n"
            "model:\n"
            "  risks:\n"
            "    - {type: compound_poisson_negbin, lam: 0.5, r: 400, q: 0.1, severity_length: 8192}\n"
        )
        code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0, out
        valid = int(out.split("valid_points: ")[1].split()[0])
        assert valid > 1000

    @pytest.mark.parametrize(
        "r, q, length, message",
        [(400, 0.1, 8, "no mass"), (2000, 0.01, 4096, "scaled range")],
    )
    def test_severity_out_of_range_is_numerical_failure(self, tmp_path, capsys, r, q, length, message):
        scenario = tmp_path / "nb.yaml"
        scenario.write_text(
            "kmax: 64\n"
            "model:\n"
            "  risks:\n"
            f"    - {{type: compound_poisson_negbin, lam: 0.5, r: {r}, q: {q}, severity_length: {length}}}\n"
        )
        code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and message in err

    def test_sampled_pool_without_mass_is_numerical_failure(self, tmp_path, capsys):
        # NB(400, q ~ 0.1) has no mass above the smallest normal float below 8:
        # the pool's severities are only formed during the allocation
        scenario = tmp_path / "nb_pool.yaml"
        scenario.write_text(
            "kmax: 64\nseed: 3\nmodel:\n"
            "  sampled: {kind: compound_poisson_negbin, count: 5, r_choices: [400],"
            " q_range: [0.1, 0.11], severity_length: 8}\n"
        )
        code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "NB(r=400, q=0.1" in err and "no mass" in err

    @pytest.mark.filterwarnings("ignore::allocgen.errors.AliasingRisk")
    def test_no_valid_point_writes_nothing(self, tmp_path, capsys):
        # a portfolio with no Poisson claims runs the dense engine, and with an underflow floor
        # of 1, which no mass exceeds, no lattice point of it is valid, so the conditional-mean
        # distribution fails; it is formed before the first file is written
        scenario = tmp_path / "strict.yaml"
        scenario.write_text(
            "kmax: 16\nunderflow_floor: 1.0\nmodel:\n  risks:\n"
            "    - {type: binomial, m: 4, q: 0.3}\n    - {type: bernoulli, b: 3, q: 0.2}\n"
            "outputs:\n  pmf_of_conditional_means: [1]\n"
        )
        out = tmp_path / "out"
        code = main(["run", str(scenario), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: no valid lattice points to aggregate\n"
        assert not out.exists()

    POISSON = "model:\n  risks:\n    - {type: poisson, lam: 0.5}\n"

    @pytest.mark.parametrize(
        "text, field",
        [
            ("model:\n  risks:\n    - {type: poisson, lam: abc}\n", "model.risks[0].lam"),
            ("tolerance: abc\n" + POISSON, "tolerance"),
            ("tolerance: -1.0e-8\n" + POISSON, "tolerance: must be finite and > 0, got -1e-08"),
            ("tolerance: .nan\n" + POISSON, "tolerance: must be finite and > 0, got nan"),
            ("underflow_floor: -1.0\n" + POISSON, "underflow_floor: must be finite and >= 0, got -1.0"),
            ("underflow_floor: .inf\n" + POISSON, "underflow_floor: must be finite and >= 0, got inf"),
            (
                "model:\n  risks:\n"
                "    - {type: compound, frequency: {family: poisson, lam: [1]}, severity: [0, 1.0]}\n",
                "model.risks[0].frequency.lam",
            ),
            (
                'model:\n  dependence: hierarchical_shock\n  shock_lambdas: {"0": abc}\n',
                "model.shock_lambdas.0",
            ),
            (POISSON + "outputs:\n  rvar_levels: [[0.99, x]]\n", "outputs.rvar_levels[0]"),
            (POISSON + "outputs:\n  rvar_levels: [[0.99, 0.9]]\n", "outputs.rvar_levels[0]"),
            (POISSON + "outputs:\n  layers: [a, 20]\n", "outputs.layers"),
            (POISSON + "outputs:\n  pmf_of_conditional_means: [x]\n", "outputs.pmf_of_conditional_means"),
            (POISSON + "outputs:\n  risk_columns: [y]\n", "outputs.risk_columns"),
            (
                "seed: 1\nmodel:\n  sampled: {kind: bernoulli_extras, count: abc}\n",
                "model.sampled.count",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: compound_poisson_negbin, count: 3, lam_exp_mean: zz}\n",
                "model.sampled.lam_exp_mean",
            ),
            ("seed: 1\nmodel:\n  sampled: {kind: bernoulli_extras, count: -5}\n", "model.sampled.count"),
            ("seed: 1\nmodel:\n  sampled: {kind: pareto_extras}\n", "model.sampled.count"),
            (
                "seed: 1\nmodel:\n  sampled: {kind: compound_poisson_negbin, count: 3, r_choices: []}\n",
                "model.sampled.r_choices",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: bernoulli_extras, count: 3, b_choices: []}\n",
                "model.sampled.b_choices",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: compound_poisson_negbin, count: 3, severity_length: 0}\n",
                "model.sampled.severity_length",
            ),
            (
                "model:\n  risks:\n"
                "    - {type: compound_poisson_negbin, lam: 0.5, r: 2, q: 0.45, severity_length: 0}\n",
                "model.risks[0].severity_length",
            ),
            ("model:\n  risks:\n    - {type: poisson, lam: -1}\n", "model.risks[0]: poisson rate"),
            (
                "model:\n  risks:\n    - {type: compound_poisson_negbin, lam: -1, r: 2, q: 0.5}\n",
                "model.risks[0].lam",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: compound_poisson_negbin, count: 3, q_range: [0.5, 1.5]}\n",
                "model.sampled.q_range",
            ),
            (
                "model:\n  dependence: gamma_mixture\n  gamma0: 3.0\n  r1: 2.0\n  r2: 2.5\n"
                "  lambda1: 1.0\n  lambda2: 1.0\n",
                "model: gamma0=3.0",
            ),
            (
                "model:\n  dependence: frailty_bernoulli\n  alpha: 1.5\n"
                "  risks:\n    - {type: bernoulli, b: 2, q: 0.3}\n",
                "model: alpha",
            ),
            (
                'model:\n  dependence: hierarchical_shock\n  shock_lambdas: {"333": 0.1}\n',
                "model.shock_lambdas: unknown shock node '333'",
            ),
            # requests checked against the built table, after allocation but before any file
            (POISSON + "outputs:\n  layers: [15, 5]\n", "outputs.layers: need 0 < l1 < l2 < 16"),
            (POISSON + "outputs:\n  layers: [5, 500]\n", "outputs.layers: need 0 < l1 < l2 < 16"),
            (
                POISSON + "outputs:\n  pmf_of_conditional_means: [1, 9]\n",
                "outputs.pmf_of_conditional_means: indices [9] outside 1..1",
            ),
            (
                POISSON + "outputs:\n  risk_columns: [1, 0]\n",
                "outputs.risk_columns: indices [0] outside 1..1",
            ),
            # a repeated index, which would write a column or a file twice, stops the run as it is read
            (
                POISSON + "outputs:\n  pmf_of_conditional_means: [2, 2]\n",
                "outputs.pmf_of_conditional_means: need distinct indices, got [2, 2]",
            ),
            (
                POISSON + "outputs:\n  risk_columns: [1, 1]\n",
                "outputs.risk_columns: need distinct indices, got [1, 1]",
            ),
            (
                "model:\n  risks:\n    - {type: pareto, alpha: 0.0, lam: 3.0}\n",
                "model.risks[0].alpha: need a finite value > 0",
            ),
            (
                "model:\n  risks:\n    - {type: pareto, alpha: 1.3, lam: 0}\n",
                "model.risks[0].lam: need a finite value > 0",
            ),
            (
                "model:\n  risks:\n    - {type: pareto, alpha: 1.3, lam: -2}\n",
                "model.risks[0].lam: need a finite value > 0",
            ),
            (
                "model:\n  risks:\n    - {type: pareto, alpha: 1.3, lam: 3.0, xmax: 1}\n",
                "model.risks[0].xmax: need >= 2",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: compound_poisson_negbin, count: 0}\n",
                "model.sampled.count: empty portfolio",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: bernoulli_extras, count: 3, b_choices: [0]}\n",
                "model.sampled.b_choices: need >= 1, got 0",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: bernoulli_extras, count: 3, q_range: [1.5, 2.0]}\n",
                "model.sampled.q_range: need in [0, 1], got 1.5",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: pareto_extras, count: 3, alpha_range: [1.0, 1.0]}\n",
                "model.sampled.alpha_range: need lo < hi",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: pareto_extras, count: 3, lam_range: [-1, -0.5]}\n",
                "model.sampled.lam_range: need a finite value > 0, got -1.0",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: pareto_extras, count: 3, xmax: 1}\n",
                "model.sampled.xmax: need >= 2, got 1",
            ),
            # a key its kind does not read is named, not dropped
            (
                "seed: 1\nmodel:\n  sampled: {kind: bernoulli_extras, count: 4, q_rnage: [0.1, 0.2]}\n",
                "model.sampled.q_rnage: not a field of kind 'bernoulli_extras'",
            ),
            (
                "seed: 1\nmodel:\n  sampled: {kind: bernoulli_extras, count: 4, xmax: 5}\n",
                "model.sampled.xmax: not a field of kind 'bernoulli_extras'",
            ),
            # so is a key its risk type or count family does not read
            (
                "model:\n  risks:\n    - {type: compound_poisson, lam: 0.5, severity: [0.0, 0.5, 0.5], step_h: 0.5}\n",
                "model.risks[0].step_h: not a field of type 'compound_poisson'",
            ),
            (
                "model:\n  risks:\n    - {type: poisson, lam: 0.5, q: 0.5}\n",
                "model.risks[0].q: not a field of type 'poisson'",
            ),
            (
                "model:\n  risks:\n    - type: compound\n      frequency: {family: poisson, lam: 0.5, r: 2}\n"
                "      severity: [0.0, 1.0]\n",
                "model.risks[0].frequency.r: not a field of family 'poisson'",
            ),
            # and a key that the root, the outputs or the dependence kind does not read
            ("tolerence: 1.0e-8\n" + POISSON, "(root).tolerence: not a field of the scenario"),
            (POISSON + "outputs:\n  rvar_level: [[0.90, 0.99]]\n", "outputs.rvar_level: not a field of the outputs"),
            (
                "model:\n  alpha: 0.5\n  risks:\n    - {type: bernoulli, b: 2, q: 0.3}\n",
                "model.alpha: not a field of dependence 'independent'",
            ),
            (
                "model:\n  dependence: frailty_bernoulli\n  aplha: 0.5\n"
                "  risks:\n    - {type: bernoulli, b: 2, q: 0.3}\n",
                "model.aplha: not a field of dependence 'frailty_bernoulli'",
            ),
            (
                "model:\n  dependence: gamma_mixture\n  gamma0: 1.0\n  r1: 2.0\n  r2: 2.0\n"
                "  lambda1: 1.0\n  lambda2: 1.0\n  risks:\n    - {type: poisson, lam: 0.5}\n",
                "model.risks: not a field of dependence 'gamma_mixture'",
            ),
            # an integer field takes no fraction
            (
                "model:\n  risks:\n    - {type: bernoulli, b: 2.5, q: 0.3}\n",
                "model.risks[0].b: need an integer, got 2.5",
            ),
        ],
        ids=[
            "risk_value",
            "tolerance",
            "tolerance_negative",
            "tolerance_nan",
            "floor_negative",
            "floor_inf",
            "frequency_value",
            "shock_lambda",
            "rvar_value",
            "rvar_order",
            "layers",
            "cond_mean_index",
            "risk_column",
            "sampled_count",
            "sampled_lam_mean",
            "sampled_count_range",
            "sampled_count_missing",
            "sampled_empty_r_choices",
            "sampled_empty_b_choices",
            "sampled_severity_length",
            "risk_severity_length",
            "poisson_rate_range",
            "negbin_pool_rate_range",
            "sampled_q_range",
            "gamma0_range",
            "frailty_alpha_range",
            "shock_node",
            "layers_reversed",
            "layers_beyond_grid",
            "cond_mean_index_range",
            "risk_column_range",
            "cond_mean_index_repeat",
            "risk_column_repeat",
            "pareto_alpha_zero",
            "pareto_lam_zero",
            "pareto_lam_negative",
            "pareto_xmax",
            "sampled_empty_pool",
            "sampled_b_choice_range",
            "sampled_bernoulli_q_range",
            "sampled_alpha_range_empty",
            "sampled_lam_range",
            "sampled_pareto_xmax",
            "sampled_misspelt_key",
            "sampled_key_of_another_kind",
            "risk_key_of_another_type",
            "poisson_extra_key",
            "frequency_key_of_another_family",
            "root_misspelt_key",
            "outputs_misspelt_key",
            "frailty_key_under_independent",
            "frailty_misspelt_key",
            "risks_under_gamma_mixture",
            "fractional_payment",
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, text, field):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text("kmax: 16\n" + text)
        out = tmp_path / "out"
        code = main(["run", str(scenario), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and field in err
        assert not out.exists() or not any(out.iterdir())

    GAMMA = "model:\n  dependence: gamma_mixture\n  gamma0: 0.5\n  r2: 2.0\n  lambda2: 1.0\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("model:\n  risks:\n    - {type: poisson, lam: .inf}\n",
                         "model.risks[0]: poisson rate must be finite and >= 0, got inf", id="poisson_inf"),
            pytest.param("model:\n  risks:\n    - {type: poisson, lam: .nan}\n",
                         "model.risks[0]: poisson rate must be finite and >= 0, got nan", id="poisson_nan"),
            pytest.param("model:\n  risks:\n    - {type: negative_binomial, r: .inf, q: 0.5}\n",
                         "model.risks[0]: need finite r > 0 and q in (0,1), got r=inf", id="negbin_r_inf"),
            pytest.param("model:\n  risks:\n    - {type: compound_poisson_negbin, lam: .inf, r: 2, q: 0.5}\n",
                         "model.risks[0].lam: need a finite value >= 0, got inf", id="negbin_pool_rate_inf"),
            pytest.param("seed: 1\nmodel:\n  sampled: {kind: compound_poisson_negbin, count: 3, lam_exp_mean: .inf}\n",
                         "model.sampled.lam_exp_mean: need a finite value >= 0, got inf", id="sampled_lam_mean_inf"),
            pytest.param('model:\n  dependence: hierarchical_shock\n  shock_lambdas: {"0": .inf}\n',
                         "model.shock_lambdas: rate inf at node '0' is not finite", id="shock_rate_inf"),
            pytest.param('model:\n  dependence: hierarchical_shock\n  shock_lambdas: {"11": .nan}\n',
                         "model.shock_lambdas: rate nan at node '11' is not finite", id="shock_rate_nan"),
            pytest.param(GAMMA + "  r1: .inf\n  lambda1: 1.0\n",
                         "model: r1 and r2 must be finite and positive, got inf", id="gamma_r1_inf"),
            pytest.param(GAMMA + "  r1: 1.0\n  lambda1: .inf\n",
                         "model: lambda1 and lambda2 must be finite and positive, got inf", id="gamma_lambda1_inf"),
            pytest.param("model:\n  risks:\n    - {type: pmf, masses: [0.5, 0.5], step_h: .nan}\n",
                         "model.risks[0]: step_h must be finite and positive, got nan", id="pmf_step_nan"),
        ],
    )
    def test_non_finite_parameter_is_config_error(self, tmp_path, capsys, text, message):
        # each used to end in a traceback, a numerical failure or an all-NaN table
        scenario = tmp_path / "bad.yaml"
        scenario.write_text("kmax: 16\n" + text)
        out = tmp_path / "out"
        assert main(["run", str(scenario), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    # 32 bytes per risk and lattice point for one mixture level (independent margins), 48 for several (frailty)
    @pytest.mark.parametrize("name, need", [("bernoulli_pool", "12,288"), ("frailty", "18,432")])
    def test_portfolio_beyond_host_memory_is_config_error(self, scenario_dir, tmp_path, capsys, monkeypatch,
                                                          name, need):
        # on a host of 1 KB the dense engine stops before it allocates anything n x kmax
        monkeypatch.setattr(allocation, "host_memory_bytes", lambda: 1024)
        out = tmp_path / "out"
        code = main(["run", str(scenario_dir / f"{name}.yaml"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: 6 risks at kmax 64 need about {need} bytes at once, "
            "more than the 1,024 bytes of memory on this host\n"
        )
        assert not out.exists()

    def test_pareto_at_alpha_one_runs(self, tmp_path, capsys):
        # the limited mean at alpha = 1 is its limit lam ln(1 + d / lam)
        scenario = tmp_path / "pareto.yaml"
        scenario.write_text("kmax: 64\nmodel:\n  risks:\n    - {type: pareto, alpha: 1.0, lam: 3.0}\n")
        code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "out" / "allocations.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--kmax", "0"], "--kmax: must be >= 2, got 0"),
            (["--kmax", "-5"], "--kmax: must be >= 2, got -5"),
            (["--tol", "-1"], "--tol: must be finite and > 0, got -1.0"),
            (["--tol", "nan"], "--tol: must be finite and > 0, got nan"),
            (["--tol", "0"], "--tol: must be finite and > 0, got 0.0"),
        ],
        ids=["kmax_zero", "kmax_negative", "tol_negative", "tol_nan", "tol_zero"],
    )
    def test_bad_override_is_config_error(self, scenario_dir, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        code = main(["run", str(scenario_dir / "small_pool.yaml"), "--out", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_kmax_override_is_rounded_up_as_the_file_value_is(self, scenario_dir, tmp_path, capsys):
        # --kmax 3 is a legal length, 4 points, as kmax: 3 in the file is; the
        # scenario's 0.9 level is then beyond the grid, a numerical failure
        code = main(["run", str(scenario_dir / "small_pool.yaml"), "--out", str(tmp_path), "--kmax", "3"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == (
            "numerical failure: level 0.9 above reachable mass 0.8697740204280986 on the stored grid\n"
        )


class TestReproduce:
    def test_bernoulli_pool_case_passes(self, capsys):
        code = main(["reproduce", "bernoulli_pool"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "result: PASS" in out

    def test_gamma_mixture_case_passes(self, capsys):
        code = main(["reproduce", "gamma_mixture"])
        out = capsys.readouterr().out
        assert code == 0, out

    def test_unknown_case_rejected_by_parser(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["reproduce", "unknown_case"])


class TestOracleCommand:
    def test_bernoulli_scenario_agrees(self, scenario_dir, capsys):
        code = main(["oracle", str(scenario_dir / "bernoulli_pool.yaml")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS" in out

    def test_frailty_scenario_agrees(self, scenario_dir, capsys):
        code = main(["oracle", str(scenario_dir / "frailty.yaml")])
        assert code == 0

    def test_bad_kmax_override_is_config_error(self, scenario_dir, capsys):
        code = main(["oracle", str(scenario_dir / "bernoulli_pool.yaml"), "--kmax", "0"])
        assert code == 2
        assert capsys.readouterr().err == "config error: --kmax: must be >= 2, got 0\n"

    def test_gamma_scenario_has_no_enumeration(self, scenario_dir, capsys):
        code = main(["oracle", str(scenario_dir / "gamma_mixture.yaml")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
