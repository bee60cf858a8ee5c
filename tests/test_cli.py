"""Batch CLI: config validation, artifact generation, exit codes."""

import csv
import io
import json
import os

import numpy as np
import pytest

from eitcool import cli, cooling, stark

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
        assert type(m["scan_workers"]) is int and m["scan_workers"] >= 1
        assert m["scan_workers"] == cooling._workers()

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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestArtifacts:
    def test_spectrum_csv_columns_and_length(self, tmp_path):
        code, _ = cli.run("fig5", ["params.grid_min_mhz=40",
                                   "params.grid_max_mhz=70",
                                   "params.n_points=12",
                                   f"output_dir={tmp_path}"])
        assert code == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert rows[0] == ["delta_pi_MHz", "W_analytic", "rho_ee_numeric"]
        assert len(rows) == 13
        first = [float(v) for v in rows[1]]
        assert abs(first[0] - 40.0) < 1e-9

    def test_spectrum_csv_analytic_only(self, tmp_path):
        code, _ = cli.run("fig5", ["params.grid_min_mhz=40",
                                   "params.grid_max_mhz=70",
                                   "params.n_points=5", "params.numeric=false",
                                   f"output_dir={tmp_path}"])
        assert code == 0
        rows = read_csv(tmp_path / "spectrum.csv")
        assert all(row[2] == "" for row in rows[1:])

    def test_modes_json_roundtrip(self, tmp_path):
        code, _ = cli.run("fig4", ["params.n_ions=3",
                                   f"output_dir={tmp_path}"])
        assert code == 0
        with open(tmp_path / "modes.json") as fh:
            data = json.load(fh)
        assert data["n_ions"] == 3
        assert len(data["mode_frequencies_mhz"]) == 3
        assert abs(max(data["mode_frequencies_mhz"]) - 1.22) < 1e-6
        assert len(data["positions_um"]) == 3
        for name in ("modes.json", "manifest.json"):
            with open(tmp_path / name) as fh:
                keys = list(json.load(fh))
            assert keys == sorted(keys)

    def test_stark_fit_json(self, tmp_path):
        code, _ = cli.run("appendixE-drive", [f"output_dir={tmp_path}"])
        assert code == 0
        with open(tmp_path / "stark_fit.json") as fh:
            data = json.load(fh)
        assert abs(data["omega_plus_mhz"] - 18.03) < 0.01
        assert abs(data["omega_minus_mhz"] - 16.74) < 0.01
        assert abs(data["omega_pi_mhz"] - 1.72) < 0.01
        assert isinstance(data["wide_sigma"], bool)

    def test_single_point_sideband_csv(self, tmp_path):
        code, _ = cli.run("fig2d", ["params.n_points=1",
                                    f"output_dir={tmp_path}"])
        assert code == 0
        assert read_csv(tmp_path / "sideband.csv") == [["t_us", "P_up"],
                                                       ["0.0", "0.0"]]

    def test_writer_converts_numpy_values(self):
        text = cli._artifact_text("table.csv", (
            ["x", "k", "s"], [np.array([1.5, 2.0]), np.arange(2), ["", ""]]))
        assert list(csv.reader(io.StringIO(text))) == [
            ["x", "k", "s"], ["1.5", "0", ""], ["2.0", "1", ""]]
        text = cli._artifact_text("values.json", {"flag": np.bool_(True),
                                                  "count": np.int64(3),
                                                  "value": np.float64(1.5),
                                                  "matrix": np.eye(2)})
        assert "np." not in text
        data = json.loads(text)
        assert data["flag"] is True
        assert data["count"] == 3 and isinstance(data["count"], int)
        assert data["value"] == 1.5
        assert data["matrix"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_unwritable_artifact_writes_nothing(self, tmp_path, monkeypatch,
                                                capsys):
        # the CSV is valid; the JSON holds a value with no text form, and
        # is converted after it, so a writer that opened files as it went
        # would leave the CSV (and a .tmp) behind
        def runner(cfg):
            return {"a.csv": (["x"], [np.arange(2)]),
                    "b.json": {"value": object()}}

        monkeypatch.setitem(cli._RUNNERS, "modes", runner)
        out = tmp_path / "out"
        code, artifacts = cli.run("fig4", [f"output_dir={out}"])
        assert code == 2 and artifacts == []
        assert "artifact failure" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("preset, override, key", [
        ("fig2d", "params.side=purple", "params.side"),
        ("fig3a", "params.which=both", "params.which"),
        ("fig2b", "params.dt_ns=-4", "params.dt_ns"),
        ("fig3a", "params.powers=[-1]", "params.powers"),
        ("fig3a", "params.powers=[1.0, NaN]", "params.powers"),
        # integers beyond float range are config errors, not tracebacks
        pytest.param("fig2b", f"params.dt_ns={'9' * 400}", "params.dt_ns",
                     id="fig2b-dt_ns-huge-int"),
        pytest.param("fig3a", f"params.powers=[{'9' * 400}]",
                     "params.powers", id="fig3a-powers-huge-int"),
        # past Python's 4,300-digit int-string limit json.loads raises a
        # plain ValueError; the text is kept and fails the type check
        pytest.param("fig2b", f"params.dt_ns={'9' * 5000}", "params.dt_ns",
                     id="fig2b-dt_ns-5000-digit-int"),
        # every int key is a count or a truncation, so at least 1
        ("fig2b", "params.n_times=0", "params.n_times"),
        ("fig2d", "params.n_points=0", "params.n_points"),
        ("fig2e", "params.n_points=0", "params.n_points"),
        ("fig1b", "params.n_points=-3", "params.n_points"),
        ("fig4", "params.n_ions=0", "params.n_ions"),
        ("fig2b", "params.n_max=-1", "params.n_max"),
        ("fig2b", "params.n_max=0", "params.n_max"),
        ("fig2d", "params.n_spins=0", "params.n_spins"),
        # ranges that a library contract would otherwise reject at run
        # time (exit 2), or, for fig4d's nbar, not reject at all
        ("fig2b", "params.nbar0=-1", "params.nbar0"),
        ("fig2b", "params.heating_quanta_per_ms=-1",
         "params.heating_quanta_per_ms"),
        ("fig2b", "params.gamma_mhz=0", "params.gamma_mhz"),
        ("fig2d", "params.nbar=-1", "params.nbar"),
        ("fig2d", "params.rabi_mhz=-1", "params.rabi_mhz"),
        ("fig4d", "params.tau_us=-1", "params.tau_us"),
        ("fig4d", "params.tau_us=0", "params.tau_us"),
        ("fig4d", "params.tau_pi_us=-1", "params.tau_pi_us"),
        ("fig4d", "params.gamma_d=-1", "params.gamma_d"),
        ("fig4d", "params.nbar=-1", "params.nbar"),
        ("fig4", "params.mass_amu=-1", "params.mass_amu"),
        ("fig4", "params.mass_amu=0", "params.mass_amu"),
        ("fig2b", "params.t_final_us=-1", "params.t_final_us"),
        ("fig2e", "params.t_fix_us=-1", "params.t_fix_us"),
        ("fig1b", "params.omega_pi_mhz=-1", "params.omega_pi_mhz"),
        ("fig2d", "params.nu_mhz=-1", "params.nu_mhz"),
        ("fig4", "params.omega_x_mhz=-1", "params.omega_x_mhz"),
        ("fig4d", "params.omega_m_mhz=-1", "params.omega_m_mhz"),
        # these ran to exit 0 with nonsense artifacts: a trace at
        # negative times, growing Ramsey envelopes, every sample at t = 0,
        # an all-NaN trace, and a spectrum grid through infinity
        ("fig2d", "params.t_max_us=-1", "params.t_max_us"),
        ("appendixE-drive", "params.gamma_clock=-5", "params.gamma_clock"),
        ("appendixE-probe", "params.gamma_zeeman=-100",
         "params.gamma_zeeman"),
        ("fig2b", "params.t_final_us=0", "params.t_final_us"),
        ("fig2d", "params.nu_mhz=NaN", "params.nu_mhz"),
        ("fig5", "params.grid_max_mhz=Infinity", "params.grid_max_mhz"),
    ])
    def test_out_of_range_value_exit_code(self, preset, override, key,
                                          tmp_path, capsys):
        assert cli.main(["validate", preset, "--set", override]) == 1
        assert key in capsys.readouterr().err
        code, artifacts = cli.run(preset, [override,
                                           f"output_dir={tmp_path}"])
        assert code == 1 and artifacts == []
        assert key in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_huge_int_in_config_file_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "huge.json"
        out = tmp_path / "out"
        cfg.write_text(
            '{"kind": "cool", "output_dir": "%s", "params": {"nu_mhz": 2.38, '
            '"omega_sigma_plus_mhz": 17.0, "omega_sigma_minus_mhz": 17.0, '
            '"omega_pi_mhz": 2.0, "delta_d_mhz": 55.0, "delta_p_mhz": 59.6, '
            '"delta_b_mhz": 4.6, "dt_ns": %s}}' % (out, "9" * 5000))
        assert cli.main(["validate", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert cli.run(str(cfg)) == (1, [])
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [cfg]

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
        # a transverse trap this weak cannot hold the 12-ion plane
        code, artifacts = cli.run(
            "fig4", ["params.omega_y_mhz=0.2", f"output_dir={tmp_path}"])
        assert code == 2 and artifacts == []
        assert "PlanarInstabilityError" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_fit_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def broken_fit(*args, **kwargs):
            raise RuntimeError("forced")

        monkeypatch.setattr(stark, "fit_rabi_components", broken_fit)
        code, artifacts = cli.run(
            "appendixE-drive", ["params.n_points=50",
                                f"output_dir={tmp_path}"])
        assert code == 2 and artifacts == []
        assert "numerical failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sub", ["taken", "taken/out"])
    def test_unusable_output_dir_exit_code(self, sub, tmp_path, capsys):
        # an existing file, or a directory below one
        (tmp_path / "taken").write_text("")
        out = tmp_path / sub
        code, artifacts = cli.run("fig2d", [f"output_dir={out}"])
        assert code == 2 and artifacts == []
        err = capsys.readouterr().err
        assert err.startswith("artifact failure: ") and str(out) in err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_unreplaceable_artifact_leaves_no_temp_file(self, tmp_path,
                                                        capsys):
        # a directory where the CSV goes: its temp file is written, and
        # renaming it onto the directory fails
        (tmp_path / "sideband.csv").mkdir()
        code, artifacts = cli.run("fig2d", [f"output_dir={tmp_path}"])
        assert code == 2 and artifacts == []
        err = capsys.readouterr().err
        assert err.startswith("artifact failure: ")
        assert str(tmp_path / "sideband.csv") in err
        assert [p.name for p in tmp_path.iterdir()] == ["sideband.csv"]

    def test_one_point_stark_fit_names_the_minimum(self, tmp_path, capsys):
        code, artifacts = cli.run(
            "appendixE-drive", ["params.n_points=1",
                                f"output_dir={tmp_path}"])
        assert code == 2 and artifacts == []
        err = capsys.readouterr().err
        assert "ContractViolation" in err and "at least 2 distinct" in err
        assert list(tmp_path.iterdir()) == []

    def test_truncated_sideband_mixture_writes_nothing(self, tmp_path,
                                                       capsys):
        # nbar = 20 leaves 22 % of the thermal weight beyond n_max = 30
        code, artifacts = cli.run(
            "fig2d", ["params.nbar=20", f"output_dir={tmp_path}"])
        assert code == 2 and artifacts == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: TruncationWarning: ")
        assert "beyond n_max=30" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_points_listed_in_failures_json(self, tmp_path,
                                                   monkeypatch):
        from eitcool import spectrum
        real = spectrum.steadystate
        calls = []

        def second_point_fails(system):
            calls.append(system)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("forced")
            return real(system)

        monkeypatch.setattr(spectrum, "steadystate", second_point_fails)
        code, artifacts = cli.run(
            "fig5", ["params.n_points=4", "params.grid_min_mhz=40",
                     "params.grid_max_mhz=70", f"output_dir={tmp_path}"])
        assert code == 0
        assert str(tmp_path / "failures.json") in artifacts
        with open(tmp_path / "failures.json") as fh:
            failures = json.load(fh)
        assert failures == [{"index": 1,
                             "delta_pi_MHz": pytest.approx(50.0, rel=1e-12),
                             "error": "LinAlgError('forced')"}]

    def test_single_lambda_spectrum(self, tmp_path):
        # sigma+ off: nothing drives |->, so the atom is optically pumped
        # there and rho_ee vanishes at every probe detuning
        code, artifacts = cli.run(
            "fig5", ["params.omega_sigma_plus_mhz=0",
                     f"output_dir={tmp_path}"])
        assert code == 0
        assert not (tmp_path / "failures.json").exists()
        with open(tmp_path / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 400
        rho = np.array([float(r["rho_ee_numeric"]) for r in rows])
        w = np.array([float(r["W_analytic"]) for r in rows])
        assert np.abs(rho).max() < 1e-12
        assert np.all(np.isfinite(w)) and w.max() > 0.0

    def test_probe_off_spectrum(self, tmp_path):
        # probe off: |0> is dark and no beam re-excites it, so the steady
        # state is unique and empty of excitation
        code, artifacts = cli.run(
            "fig5", ["params.omega_pi_mhz=0", "params.n_points=12",
                     f"output_dir={tmp_path}"])
        assert code == 0
        assert not (tmp_path / "failures.json").exists()
        with open(tmp_path / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        rho = np.array([float(r["rho_ee_numeric"]) for r in rows])
        assert len(rho) == 12 and np.abs(rho).max() < 1e-12

    def test_drives_off_lists_every_point(self, tmp_path):
        # probe only: |+> and |-> are both dark, so no point has a unique
        # steady state
        code, artifacts = cli.run(
            "fig5", ["params.omega_sigma_plus_mhz=0",
                     "params.omega_sigma_minus_mhz=0", "params.n_points=12",
                     f"output_dir={tmp_path}"])
        assert code == 0
        with open(tmp_path / "failures.json") as fh:
            failures = json.load(fh)
        assert [f["index"] for f in failures] == list(range(12))
        assert all("NonUniqueSteadyStateError" in f["error"]
                   for f in failures)
        with open(tmp_path / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(np.isnan(float(r["rho_ee_numeric"])) for r in rows)
        assert all(np.isfinite(float(r["W_analytic"])) for r in rows)

    def test_clean_run_writes_no_failures_json(self, tmp_path):
        code, artifacts = cli.run(
            "fig5", ["params.n_points=4", f"output_dir={tmp_path}"])
        assert code == 0
        assert not (tmp_path / "failures.json").exists()
        assert all(os.path.basename(a) != "failures.json"
                   for a in artifacts)
