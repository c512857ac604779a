import pytest

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
        [(400, 0.1, 8, "no mass"), (2000, 0.01, 4096, "scaled range"), (2, 0.45, 0, "at least one")],
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


    POISSON = "model:\n  risks:\n    - {type: poisson, lam: 0.5}\n"

    @pytest.mark.parametrize(
        "text, field",
        [
            ("model:\n  risks:\n    - {type: poisson, lam: abc}\n", "model.risks[0].lam"),
            ("tolerance: abc\n" + POISSON, "tolerance"),
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
        ],
        ids=[
            "risk_value",
            "tolerance",
            "frequency_value",
            "shock_lambda",
            "rvar_value",
            "rvar_order",
            "layers",
            "cond_mean_index",
            "risk_column",
            "sampled_count",
            "sampled_lam_mean",
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

    def test_gamma_scenario_has_no_enumeration(self, scenario_dir, capsys):
        code = main(["oracle", str(scenario_dir / "gamma_mixture.yaml")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
