"""Batch CLI: config validation, artifact generation, exit codes."""

import json
import os

import pytest

from eitcool import cli

CHEAP_OVERRIDES = {
    "fig1b": ["params.n_points=12"],
    "fig5": ["params.n_points=12"],
    "fig2b": ["params.t_final_us=4", "params.n_times=2", "params.n_max=6",
              "params.dt_ns=8"],
    "fig2d": ["params.n_points=20", "params.n_max=10", "params.t_max_us=10"],
    "fig2e": ["params.n_points=2", "params.t_fix_us=3", "params.n_max=6",
              "params.dt_ns=8"],
    "fig3a": ["params.powers=[1.0]", "params.t_final_us=3",
              "params.n_times=3", "params.n_max=6", "params.dt_ns=8"],
    "fig3b": ["params.powers=[1.0]", "params.t_final_us=3",
              "params.n_times=3", "params.n_max=6", "params.dt_ns=8"],
    "fig4": ["params.n_ions=3"],
    "fig4d": ["params.n_points=30"],
    "appendixE-drive": ["params.fit=false", "params.n_points=100"],
    "appendixE-probe": ["params.fit=false", "params.n_points=100"],
}

EXPECTED_ARTIFACTS = {
    "fig1b": ["spectrum.csv"],
    "fig5": ["spectrum.csv"],
    "fig2b": ["cooling.csv", "cooling_fit.json"],
    "fig2d": ["sideband.csv"],
    "fig2e": ["detuning_scan.csv"],
    "fig3a": ["power_scan.csv"],
    "fig3b": ["power_scan.csv"],
    "fig4": ["modes.json"],
    "fig4d": ["odf_spectrum.csv"],
    "appendixE-drive": ["ramsey.csv", "stark_shifts.json"],
    "appendixE-probe": ["ramsey.csv", "stark_shifts.json"],
}


class TestPresets:
    def test_list_contains_all(self):
        names = cli.list_presets()
        assert set(CHEAP_OVERRIDES) <= set(names)

    def test_validate_subcommand_accepts_presets(self):
        for name in cli.list_presets():
            assert cli.main(["validate", name]) == 0

    @pytest.mark.parametrize("name", sorted(CHEAP_OVERRIDES))
    def test_preset_runs(self, name, tmp_path):
        out = tmp_path / name
        code, artifacts = cli.run(
            name, CHEAP_OVERRIDES[name] + [f"output_dir={out}"])
        assert code == 0
        produced = {os.path.basename(a) for a in artifacts}
        assert set(EXPECTED_ARTIFACTS[name]) <= produced
        assert "manifest.json" in produced
        for a in artifacts:
            assert os.path.exists(a)


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        code, artifacts = cli.run(
            "fig5", ["params.n_points=8", "params.numeric=false",
                     f"output_dir={tmp_path}"])
        assert code == 0
        with open(tmp_path / "manifest.json") as fh:
            m = json.load(fh)
        assert m["kind"] == "spectrum"
        assert m["config"]["params"]["n_points"] == 8
        assert len(m["config_hash"]) == 64
        assert m["walltime_s"] >= 0.0
        assert "spectrum.csv" in m["artifacts"]

    def test_cooling_fit_reports_solver_statistics(self, tmp_path):
        code, _ = cli.run("fig2b", CHEAP_OVERRIDES["fig2b"]
                          + [f"output_dir={tmp_path}"])
        assert code == 0
        with open(tmp_path / "cooling_fit.json") as fh:
            fit = json.load(fh)
        assert {"gamma_cool_per_s", "tau_cool_us", "n_ss", "fit_converged",
                "truncation_flagged"} <= set(fit)
        assert 0.0 <= fit["top_fock_population"] <= 1.0
        assert 0.0 < fit["max_trace_correction"] < 1.0

    def test_cooling_fit_reports_raw_n_ss(self, tmp_path, monkeypatch):
        from eitcool import cooling
        real = cooling._fit_exponential

        def negative_offset(*args):
            gamma, tau, c, ok = real(*args)
            return gamma, tau, -0.05, ok
        monkeypatch.setattr(cooling, "_fit_exponential", negative_offset)
        code, _ = cli.run("fig2b", CHEAP_OVERRIDES["fig2b"]
                          + [f"output_dir={tmp_path}"])
        assert code == 0
        with open(tmp_path / "cooling_fit.json") as fh:
            fit = json.load(fh)
        assert fit["n_ss"] == 0.0
        assert fit["n_ss_raw"] == -0.05
        assert fit["n_ss_clamped"] is True

    def test_deterministic_csv(self, tmp_path):
        blobs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            code, _ = cli.run("fig5", ["params.n_points=16",
                                       f"output_dir={out}"])
            assert code == 0
            blobs.append((out / "spectrum.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestValidation:
    def test_unknown_param_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kind": "modes",
            "params": {"n_ions": 3, "omega_x_mhz": 0.34,
                       "omega_y_mhz": 1.22, "omega_z_mhz": 0.42,
                       "coil_current": 2.0},
            "output_dir": str(tmp_path)}))
        code, artifacts = cli.run(str(cfg))
        assert code == 1 and artifacts == []
        assert "params.coil_current" in capsys.readouterr().err

    def test_missing_required_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"kind": "modes", "params": {},
                                   "output_dir": str(tmp_path)}))
        assert cli.run(str(cfg))[0] == 1
        assert "params.n_ions" in capsys.readouterr().err

    def test_wrong_type_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kind": "modes",
            "params": {"n_ions": "twelve", "omega_x_mhz": 0.34,
                       "omega_y_mhz": 1.22, "omega_z_mhz": 0.42},
            "output_dir": str(tmp_path)}))
        assert cli.run(str(cfg))[0] == 1
        assert "params.n_ions" in capsys.readouterr().err

    def test_bool_is_not_int(self):
        with pytest.raises(cli.ConfigError):
            cli.validate_config({"kind": "modes",
                                 "params": {"n_ions": True,
                                            "omega_x_mhz": 0.34,
                                            "omega_y_mhz": 1.22,
                                            "omega_z_mhz": 0.42}})

    def test_unknown_kind(self):
        with pytest.raises(cli.ConfigError):
            cli.validate_config({"kind": "teleport", "params": {}})

    def test_unknown_top_level_key(self):
        with pytest.raises(cli.ConfigError):
            cli.validate_config({"kind": "modes", "params": {},
                                 "shots": 100})

    def test_malformed_json_exit_code(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert cli.run(str(cfg))[0] == 1

    def test_missing_config_exit_code(self):
        assert cli.run("no-such-preset")[0] == 1

    def test_defaults_filled_in(self):
        cfg = cli.validate_config({
            "kind": "spectrum",
            "params": {"omega_sigma_plus_mhz": 17.0,
                       "omega_sigma_minus_mhz": 17.0, "omega_pi_mhz": 4.0,
                       "delta_d_mhz": 55.6, "delta_p_mhz": 60.2,
                       "delta_b_mhz": 4.6, "grid_min_mhz": 0.0,
                       "grid_max_mhz": 120.0}})
        assert cfg.params["gamma_mhz"] == 19.6
        assert cfg.params["n_points"] == 400


class TestOverrides:
    def test_json_values_and_prefix(self):
        raw = {"kind": "spectrum", "params": {}}
        cli.apply_overrides(raw, ["params.numeric=false", "n_points=7",
                                  "seed=3"])
        assert raw["params"]["numeric"] is False
        assert raw["params"]["n_points"] == 7
        assert raw["seed"] == 3

    def test_bad_pair_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.apply_overrides({}, ["numeric"])


class TestFailurePaths:
    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # probe off makes the steady-state sweep unsolvable
        code, artifacts = cli.run(
            "fig5", ["params.omega_pi_mhz=0", "params.n_points=4",
                     f"output_dir={tmp_path}"])
        assert code == 2 and artifacts == []
        assert "numerical failure" in capsys.readouterr().err
