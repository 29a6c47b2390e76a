import cmath
import itertools
import json
import math

import pytest

from korteweg import cli
from korteweg.model import MaterialParams, derive_constants


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

    def test_sector_object_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "rbound",
                                   "sector": {"sigma": 1.2, "delta": 0.5}}))
        assert run_cli(["rbound", "--config", str(cfg)]) == 2
        assert "unknown config keys: ['sector']" in capsys.readouterr().err


# the config keys each scenario reads besides params and out; scan reads
# by target, so its certificate target is a row of its own
READS = {
    ("validate", None): set(),
    ("scan", "certificates"): {"target", "symbols", "max_alpha"},
    ("scan", "l1"): {"target", "grid", "sigma", "delta", "format"},
    ("solve-whole", None): {"lambda", "points_per_axis", "seed"},
    ("solve-half", None): {"lambda", "points_per_axis", "height", "seed"},
    ("solve-full", None): {"lambda", "points_per_axis", "height", "seed"},
    ("rbound", None): {"sigma", "delta", "points_per_axis", "family",
                       "trials", "m_max", "seed", "format"},
    ("probe-contraction", None): {"points_per_axis", "lambdas", "seed",
                                  "format"},
    ("report", None): set(),
}
ALL_KEYS = set().union(*READS.values())
UNREAD = [(scenario, target, key) for (scenario, target), keys
          in READS.items() for key in sorted(ALL_KEYS - keys)]


def test_table_is_the_read_sets():
    def rows(sets):
        return sorted(sorted(keys) for keys in sets)

    assert rows(keys for _, keys in cli.SCENARIOS.values()) == rows(
        READS.values())
    assert sum(map(len, READS.values())) == 31
    assert len(UNREAD) == 9 * len(ALL_KEYS) - 31


@pytest.mark.parametrize("scenario,target,key", UNREAD)
def test_unread_key_exit_2(tmp_path, capsys, monkeypatch, scenario, target,
                           key):
    for name, (runner, keys) in cli.SCENARIOS.items():
        monkeypatch.setitem(cli.SCENARIOS, name, (None, keys))
    obj = {"scenario": scenario, key: 1}
    if target:
        obj["target"] = target
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(obj))
    assert run_cli([scenario.split("-")[0], "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "have no effect" in err and repr(key) in err


@pytest.mark.parametrize("scenario,target", READS)
def test_gamma_key_is_unknown(tmp_path, capsys, scenario, target):
    # gamma comes from params alone: no scenario reads a top-level gamma
    obj = {"scenario": scenario, "gamma": 0.1}
    if target:
        obj["target"] = target
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(obj))
    assert run_cli([scenario.split("-")[0], "--config", str(cfg)]) == 2
    assert "unknown config keys: ['gamma']" in capsys.readouterr().err


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
        # (1, 1, 2) has no zero ray above sigma_w = pi/4
        assert report["sigma_star"] == math.pi / 4 + 1e-4
        assert report["zero_rays"] == []

    def test_empty_scan_grid_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "scan", "target": "l1",
            "params": {"mu": 1, "nu": 1, "kappa": 2},
            "grid": {"n_lambda": 0}}))
        assert run_cli(["scan", "--config", str(cfg)]) == 2
        assert "invalid grid" in capsys.readouterr().err

    def test_p_scan_below_sigma_w_exit_2(self, tmp_path, capsys):
        # sigma = 0.6 < sigma_w = pi/4 on (1, 1, 2): the sector holds P's
        # zero rays, so the scan is refused, not sampled
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "scan", "target": "P", "sigma": 0.6,
            "params": {"mu": 1, "nu": 1, "kappa": 2}}))
        assert run_cli(["scan", "--config", str(cfg), "--out",
                        str(tmp_path)]) == 2
        assert "sigma = 0.6000 <= sigma_w = 0.7854: the sector holds zero " \
            "rays of P" in capsys.readouterr().err
        assert not list(tmp_path.glob("scan_P*"))

    @pytest.mark.parametrize("target,key,value", [
        ("certificates", "grid", {"n_lambda": 4, "n_theta": 3, "n_xi": 4}),
        ("certificates", "sigma", 1.2),
        ("l1", "symbols", ["p1"]),
        ("l2", "max_alpha", 1)])
    def test_scan_key_without_effect_exit_2(self, tmp_path, capsys, target,
                                            key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "scan", "target": target,
            "params": {"mu": 1, "nu": 1, "kappa": 2}, key: value}))
        assert run_cli(["scan", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and key in err

    def test_rbound_delta_alone_reaches_report(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "rbound", "trials": 1, "m_max": 1,
            "points_per_axis": 16, "family": "T_B", "delta": 5.0}))
        assert run_cli(["rbound", "--config", str(cfg), "--out",
                        str(tmp_path)]) == 0
        est = read_report(tmp_path, "rbound")["estimates"]["T_B"]
        assert est["delta"] == 5.0
        # the reference parameters (1, 1, 2) have sigma_w = pi/4
        assert est["sigma"] == math.pi / 4 + 0.4

    @pytest.mark.parametrize("target", ["P", "re_omega"])
    def test_every_scan_reports_the_zero_rays(self, tmp_path, target):
        code, out = run_json(tmp_path, "scan", ["scan", "--target", target], {
            "params": {"mu": 2, "nu": 1, "kappa": 1}, "sigma": 0.3,
            "grid": {"n_lambda": 4, "n_theta": 3, "n_xi": 4}})
        assert code == 0
        assert out["sigma_star"] == out["zero_rays"][0] == pytest.approx(
            0.6687666838678053, abs=1e-10)

    def test_sigma_on_solve_full_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "solve-full", "sigma": 1.5,
                                   "delta": 1e6}))
        assert run_cli(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "no effect on solve-full" in err and "'sigma'" in err

    def test_whole_grid_too_coarse_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "solve-whole",
                                   "points_per_axis": 16}))
        assert run_cli(["solve", "--config", str(cfg)]) == 2
        assert "points_per_axis" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["whole", "half", "full"])
    @pytest.mark.parametrize("lam", [0.0, -5.0, [-5.0, 0.0]])
    def test_lambda_outside_sector_exit_2(self, tmp_path, capsys,
                                          monkeypatch, kind, lam):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved at a refused lambda")

        for name in ("solve_whole", "solve_reduced", "solve_general"):
            monkeypatch.setattr(cli, name, no_solve)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"lambda": lam, "points_per_axis": 32}))
        assert run_cli(["solve", "--kind", kind, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid config: lambda" in err

    @pytest.mark.parametrize("lambdas,bad", [([-5.0], 0), ([0.0], 0),
                                             ([10.0, [-5.0, 0.0]], 1)])
    def test_probe_lambda_outside_sector_exit_2(self, tmp_path, capsys,
                                                monkeypatch, lambdas, bad):
        def no_probe(*args, **kwargs):
            raise AssertionError("probed at a refused lambda")

        monkeypatch.setattr(cli, "contraction_probe", no_probe)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "probe-contraction",
                                   "lambdas": lambdas,
                                   "points_per_axis": 16}))
        assert run_cli(["probe", "--config", str(cfg)]) == 2
        assert f"invalid config: lambdas[{bad}]" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("sigma", 2.0), ("sigma", 0.0),
                                           ("delta", -1.0)])
    def test_invalid_sector_key_named(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "rbound", key: value}))
        assert run_cli(["rbound", "--config", str(cfg)]) == 2
        assert f"invalid config: {key} = {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["trials", "m_max"])
    def test_invalid_estimator_size_named(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "rbound", key: 0,
                                   "points_per_axis": 16}))
        assert run_cli(["rbound", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and key in err

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
        est = report["estimates"]["T_B"]
        assert est["estimated_bound"] > 0
        assert est["solves"] == 1  # 4 trials of at most 3 data in one
        assert set(est["argmax_trial"]) == {"trial", "m", "lambdas"}
        assert len(est["argmax_trial"]["lambdas"]) == est["argmax_trial"]["m"]

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

    def test_probe_gamma_zero_exit_2(self, tmp_path, capsys):
        # G vanishes with gamma: every ratio would be 0, so it is refused
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "scenario": "probe-contraction",
            "params": {"mu": 1, "nu": 1, "kappa": 2, "gamma": 0.0},
            "lambdas": [1.0, 100.0], "points_per_axis": 16}))
        code = run_cli(["probe", "--config", str(cfg), "--out",
                        str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "params.gamma" in err
        assert not (tmp_path / "out").exists()

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


@pytest.mark.parametrize("config", [
    {"scenario": "solve-full", "lambda": "abc"},
    {"scenario": "solve-full", "lambda": [1]},
    {"scenario": "probe-contraction", "lambdas": 5},
    {"scenario": "scan", "target": "certificates", "symbols": ["nope"]},
    {"scenario": "scan", "target": "certificates", "symbols": "p1"},
    {"scenario": "scan", "target": "l1", "grid": [1, 2]},
    {"scenario": "scan", "target": "l1", "grid": {"n_foo": 3}},
    {"scenario": "scan", "target": "l1", "grid": {"lam_hi": 10}},
    {"scenario": "scan", "target": "certificates", "max_alpha": -1},
    {"scenario": "rbound", "trials": math.inf},
    {"scenario": "rbound", "family": 5},
], ids=["lambda-str", "lambda-short", "lambdas-number", "symbols-unknown",
        "symbols-str", "grid-list", "grid-n_foo", "grid-lam_hi",
        "max_alpha-negative", "trials-inf", "family-number"])
def test_malformed_value_exit_2_names_key(tmp_path, capsys, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    assert run_cli([config["scenario"].split("-")[0], "--config",
                    str(cfg)]) == 2
    err = capsys.readouterr().err
    key = next(k for k in config if k not in ("scenario", "target"))
    assert "invalid config" in err and key in err


def run_json(tmp_path, name, argv, config):
    """Exit code and report (without timestamp) of one korteweg run."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / name
    code = run_cli(argv + ["--config", str(cfg), "--out", str(out)])
    reports = [json.loads(f.read_text()) for f in out.glob("*.json")]
    assert len(reports) <= 1
    for report in reports:
        report.pop("timestamp")
    return code, reports[0] if reports else None


class TestReport:
    PARAMS = {"mu": 1, "nu": 1, "kappa": 2, "gamma": 0.1}
    TRIALS = 3

    @pytest.fixture(scope="class")
    def reports(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("report")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "RBOUND_TRIALS", self.TRIALS)
            runs = [run_json(tmp_path, f"run{i}", ["report"],
                             {"params": self.PARAMS}) for i in (0, 1)]
        assert [code for code, _ in runs] == [0, 0]
        return [report for _, report in runs]

    def test_deterministic_except_seconds(self, reports):
        a, b = reports
        assert set(a["seconds"]) == set(a) - {"seconds", "params",
                                              "provenance"}
        a.pop("seconds")
        b.pop("seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_sections_are_the_single_scenarios(self, reports, tmp_path):
        report = reports[0]
        params = self.PARAMS

        runs = itertools.count()

        def single(argv, **config):
            code, out = run_json(tmp_path, f"single{next(runs)}", argv,
                                 dict(config, params=params))
            assert code == 0
            return out

        assert report["derived"] == single(["validate"])["derived"]
        sigma_w = report["derived"]["sigma_w"]
        jobs = [{"target": "l1"}, {"target": "l2"},
                {"target": "P", "sigma": sigma_w + 0.1},
                {"target": "P", "sigma": math.pi / 3}]
        assert len(report["scans"]) == len(jobs)
        for job, section in zip(jobs, report["scans"]):
            scan = single(["scan"], **job)
            assert section["scan"] == scan["scan"]
            assert section["refined"] == scan["refined"]
        assert report["certificates"] == single(
            ["scan", "--target", "certificates"])
        trials = 2 * self.TRIALS
        estimates = single(["rbound", "--trials", str(trials)])["estimates"]
        assert {fam: s["estimate"] for fam, s in report["rbound"].items()} \
            == estimates
        assert report["solve"] == single(["solve"])
        assert report["probe"] == single(["probe"])

    def test_first_trials_are_the_short_estimate(self, reports, tmp_path):
        code, short = run_json(tmp_path, "short", [
            "rbound", "--trials", str(self.TRIALS)], {"params": self.PARAMS})
        assert code == 0
        for fam, est in short["estimates"].items():
            first = reports[0]["rbound"][fam]["first_trials"]
            assert first == {"trials": self.TRIALS,
                             "estimated_bound": est["estimated_bound"],
                             "argmax_trial": est["argmax_trial"]["trial"]}

    def test_gamma_zero_probe_is_null(self, tmp_path, monkeypatch):
        # the probe refuses gamma = 0, and the report writes null for it
        monkeypatch.setattr(cli, "REPORT", {"probe": cli.REPORT["probe"]})
        code, report = run_json(tmp_path, "gamma0", ["report"], {
            "params": {"mu": 1, "nu": 1, "kappa": 2}})
        assert code == 0
        assert report["probe"] is None
        assert report["provenance"]["sizes"] == {}

    def test_p_scan_at_or_below_sigma_w_is_skipped(self, tmp_path,
                                                   monkeypatch):
        # on (0.1, 0.1, 1) sigma_w = 1.4706 > pi/3: a P scan at pi/3 would
        # sample P's zero rays, so the report skips it and says why
        monkeypatch.setattr(cli, "REPORT", {"scans": cli.REPORT["scans"]})
        code, report = run_json(tmp_path, "wide_floor", ["report"], {
            "params": {"mu": 0.1, "nu": 0.1, "kappa": 1}})
        assert code == 0
        *ran, skipped = report["scans"]
        assert [s["scan"]["target"] for s in ran] == ["l1", "l2", "P"]
        sigma_w = derive_constants(MaterialParams(0.1, 0.1, 1.0)).sigma_w
        assert ran[2]["scan"]["sigma"] > sigma_w
        assert skipped == {"target": "P", "sigma": math.pi / 3,
                           "skipped": "sigma = 1.0472 <= sigma_w = 1.4706: "
                                      "the sector holds zero rays of P"}

    def test_inadmissible_params_exit_2(self, tmp_path, capsys):
        code, out = run_json(tmp_path, "bad", ["report"],
                             {"params": {"mu": 1, "nu": 1, "kappa": 1}})
        assert code == 2 and out is None
        assert "EtaVanishes" in capsys.readouterr().err


class TestSectorNearPiHalf:
    """On (0.1, 0.1, 1), sigma_w = 1.4706 lies within 0.2 of pi/2, so the
    default sectors take the midpoint of sigma_w and pi/2."""

    PARAMS = {"mu": 0.1, "nu": 0.1, "kappa": 1}
    SIGMA_W = derive_constants(MaterialParams(0.1, 0.1, 1.0)).sigma_w

    def test_scan_default_sector(self, tmp_path):
        code, out = run_json(tmp_path, "scan", ["scan"], {
            "params": self.PARAMS,
            "grid": {"n_lambda": 8, "n_theta": 3, "n_xi": 8}})
        assert code == 0
        assert self.SIGMA_W < out["scan"]["sigma"] < math.pi / 2

    def test_rbound_default_sector(self, tmp_path):
        code, out = run_json(tmp_path, "rbound", ["rbound", "--trials", "2"],
                             {"params": self.PARAMS})
        assert code == 0
        for est in out["estimates"].values():
            assert self.SIGMA_W < est["sigma"] < math.pi / 2

    def test_explicit_sigma_past_pi_half_exit_2(self, tmp_path, capsys):
        code, out = run_json(tmp_path, "bad", ["scan"],
                             {"params": self.PARAMS, "sigma": 1.6})
        assert code == 2 and out is None
        assert "invalid config: sigma = 1.6 must lie in (0, pi/2)" \
            in capsys.readouterr().err


class TestZeroRays:
    """(2, 1, 1) has sigma_w = 0 and a Lopatinskii zero ray at
    sigma_L = 0.6688: arg lambda = +-2.4728 holds zeros of l1, l2 and
    det L, and every sector and lambda must stay above it."""

    PARAMS = {"mu": 2, "nu": 1, "kappa": 1}
    SIGMA_L = 0.6687666838678053

    def test_certificates_report_the_ray(self, tmp_path):
        code, out = run_json(tmp_path, "c", ["scan", "--target",
                                             "certificates"],
                             {"params": self.PARAMS, "symbols": ["t1"],
                              "max_alpha": 0})
        assert code == 0
        assert out["sigma_star"] == out["zero_rays"][0] == pytest.approx(
            self.SIGMA_L, abs=1e-10)
        assert out["certificates"][0]["sigma"] == out["sigma_star"] + 0.1

    def test_scan_in_the_ray_sector_exit_2(self, tmp_path, capsys):
        # the grid alone reported C = 0.0247 and exit 0 here
        code, out = run_json(tmp_path, "scan", ["scan", "--target", "l1"],
                             {"params": self.PARAMS, "sigma": 0.2})
        assert code == 2 and out is None
        assert "sigma = 0.2000 <= sigma_L = 0.6688: the sector holds zero " \
            "rays of the Lopatinskii determinant" in capsys.readouterr().err

    def test_scan_default_lies_above_the_ray(self, tmp_path):
        code, out = run_json(tmp_path, "scan", ["scan", "--target", "l1"], {
            "params": self.PARAMS,
            "grid": {"n_lambda": 8, "n_theta": 3, "n_xi": 8}})
        assert code == 0
        assert out["scan"]["sigma"] == out["sigma_star"] + 0.2
        assert out["scan"]["sigma"] > self.SIGMA_L

    def test_rbound_in_the_ray_sector_exit_2(self, tmp_path, capsys,
                                             monkeypatch):
        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated in a refused sector")

        monkeypatch.setattr(cli, "estimate_rbound", no_estimate)
        code, out = run_json(tmp_path, "rb", ["rbound", "--trials", "1"],
                             {"params": self.PARAMS, "sigma": 0.4})
        assert code == 2 and out is None
        assert "sigma = 0.4000 <= sigma_L = 0.6688: the sector holds zero " \
            "rays of the Lopatinskii determinant" in capsys.readouterr().err

    @pytest.mark.parametrize("arg", [2.473, -2.5, 3.0])
    def test_solve_beyond_the_ray_exit_2(self, tmp_path, capsys,
                                         monkeypatch, arg):
        # pi - sigma_L = 2.4728 <= |arg lambda| < pi - sigma_w = pi
        monkeypatch.setattr(cli, "solve_general", None)
        lam = 10 * cmath.exp(1j * arg)
        code, out = run_json(tmp_path, "s", ["solve"], {
            "params": self.PARAMS, "lambda": [lam.real, lam.imag],
            "points_per_axis": 16})
        assert code == 2 and out is None
        assert "< pi - sigma_L = 2.47283" in capsys.readouterr().err


def test_eta_negative_default_scan_lies_above_the_ray(tmp_path):
    # (2.019, 0.353, 2.543): eta_w < 0, sigma_w = 0.7322 and a zero ray
    # at 1.0438; the default scan sat at 0.932, in the ray's sector, and
    # reported C = 0.00211 with exit 0
    code, out = run_json(tmp_path, "scan", ["scan", "--target", "l1"], {
        "params": {"mu": 2.019, "nu": 0.353, "kappa": 2.543},
        "grid": {"n_lambda": 8, "n_theta": 3, "n_xi": 8}})
    assert code == 0
    assert out["zero_rays"] == [out["sigma_star"]]
    assert out["sigma_star"] == pytest.approx(1.04375596442315, abs=1e-10)
    assert out["scan"]["sigma"] == out["sigma_star"] + 0.2
