import json

import pytest

from korteweg import cli


def run_cli(args):
    return cli.main(args)


def read_report(tmp_path, name):
    return json.loads((tmp_path / f"{name}.json").read_text())


class TestValidateCommand:
    def test_inadmissible_exit_2_and_names_failure(self, tmp_path, capsys):
        code = run_cli(["validate", "--mu", "1", "--nu", "1", "--kappa",
                        "1", "--out", str(tmp_path)])
        assert code == 2
        assert "EtaVanishes" in capsys.readouterr().err
        report = read_report(tmp_path, "validate")
        assert report["ok"] is False
        assert "EtaVanishes" in report["failures"]

    def test_admissible_exit_0(self, tmp_path):
        code = run_cli(["validate", "--mu", "1", "--nu", "1", "--kappa",
                        "2", "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path, "validate")
        assert report["derived"]["eta_w"] == pytest.approx(-0.25)

    def test_negative_coefficient(self, capsys):
        code = run_cli(["validate", "--mu", "-1", "--nu", "1", "--kappa",
                        "1"])
        assert code == 2
        assert "NonPositiveCoefficient" in capsys.readouterr().err


class TestConfigHandling:
    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "validate", "bogus": 1}))
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_config_file_exit_4(self, capsys):
        assert run_cli(["validate", "--config", "/nonexistent.json"]) == 4

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "validate",
            "params": {"mu": 1, "nu": 1, "kappa": 1}}))
        # config alone is inadmissible; the flag fixes kappa
        code = run_cli(["validate", "--config", str(cfg), "--kappa", "2",
                        "--out", str(tmp_path)])
        assert code == 0

    def test_reference_density_param_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "validate",
            "params": {"mu": 1, "nu": 1, "kappa": 2, "rho_ref": 2}}))
        assert run_cli(["validate", "--config", str(cfg)]) == 2
        assert "rho_ref" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "frobnicate"}))
        assert run_cli(["validate", "--config", str(cfg)]) == 2


class TestScenarios:
    def test_scan_l1(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "scan", "target": "l1",
            "params": {"mu": 1, "nu": 1, "kappa": 2},
            "grid": {"n_lambda": 12, "n_theta": 5, "n_xi": 12}}))
        code = run_cli(["scan", "--config", str(cfg), "--out",
                        str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path, "scan_l1")
        assert report["scan"]["C"] > 0
        assert report["empirical_sigma_star"] > 0

    def test_empty_scan_grid_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "scan", "target": "l1",
            "params": {"mu": 1, "nu": 1, "kappa": 2},
            "grid": {"n_lambda": 0}}))
        assert run_cli(["scan", "--config", str(cfg)]) == 2
        assert "invalid grid" in capsys.readouterr().err

    def test_solve_full_report(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "solve-full",
            "params": {"mu": 1, "nu": 1, "kappa": 2, "gamma": 0.1},
            "lambda": [100.0, 10.0], "points_per_axis": 128}))
        code = run_cli(["solve", "--config", str(cfg), "--seed", "3",
                        "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path, "solve_full")
        assert report["max_relative_residual"] <= 1e-8
        assert report["recovery_error"] <= 1e-8

    def test_rbound_small(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "rbound", "trials": 4, "m_max": 3,
            "points_per_axis": 16,
            "params": {"mu": 1, "nu": 1, "kappa": 2},
            "sigma": 1.2, "delta": 0.5}))
        code = run_cli(["rbound", "--config", str(cfg), "--family", "T_B",
                        "--out", str(tmp_path)])
        assert code == 0
        report = read_report(tmp_path, "rbound")
        assert report["estimates"]["T_B"]["estimated_bound"] > 0

    def test_probe_csv(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "probe-contraction",
            "params": {"mu": 1, "nu": 1, "kappa": 2, "gamma": 0.2},
            "lambdas": [1.0, 100.0], "points_per_axis": 16}))
        code = run_cli(["probe", "--config", str(cfg), "--format", "csv",
                        "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "probe.csv").read_text().strip().splitlines()
        assert lines[0] == "abs_lambda,ratio"
        assert len(lines) == 3

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "solve-full",
            "params": {"mu": 1, "nu": 1, "kappa": 2, "gamma": 1000.0},
            "lambda": [1.0, 0.0], "points_per_axis": 32}))
        code = run_cli(["solve", "--config", str(cfg)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


def test_determinism_excluding_timestamp(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "scenario": "rbound", "trials": 3, "m_max": 2,
        "points_per_axis": 16, "params": {"mu": 1, "nu": 1, "kappa": 2},
        "sigma": 1.2, "delta": 0.5, "family": "S_A"}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["rbound", "--config", str(cfg), "--seed", "9",
                    "--out", str(out_a)]) == 0
    assert run_cli(["rbound", "--config", str(cfg), "--seed", "9",
                    "--out", str(out_b)]) == 0
    ra = json.loads((out_a / "rbound.json").read_text())
    rb = json.loads((out_b / "rbound.json").read_text())
    ra.pop("timestamp")
    rb.pop("timestamp")
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
