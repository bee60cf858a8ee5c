"""Batch front end: declarative JSON experiment configs in, CSV/JSON out.

One subcommand per task family; every run writes its artifacts
atomically (temp file + rename) next to a manifest that echoes the fully
resolved configuration, its hash, the toolkit version, and the wall
time, so any output file can be traced back to an exact input.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__, units
from .atom4 import EitParams
from .cooling import (MotionalMode, detuning_scan, power_scan,
                      simulate_cooling)
from .crystal import CrystalConfig, equilibrium_positions, transverse_modes
from . import cooling as cooling_mod
from . import crystal as crystal_mod
from . import spectrum as spectrum_mod
from . import stark as stark_mod
from . import thermometry as thermo_mod


class ConfigError(ValueError):
    """Config fails schema validation; message names the offending key."""


_REQUIRED = object()

# per-kind parameter schema: key -> (type, default)
_EIT_KEYS = {
    "omega_sigma_plus_mhz": (float, _REQUIRED),
    "omega_sigma_minus_mhz": (float, _REQUIRED),
    "omega_pi_mhz": (float, _REQUIRED),
    "delta_d_mhz": (float, _REQUIRED),
    "delta_p_mhz": (float, _REQUIRED),
    "delta_b_mhz": (float, _REQUIRED),
    "gamma_mhz": (float, units.YB171_GAMMA_MHZ),
}

SCHEMAS = {
    "spectrum": {
        **_EIT_KEYS,
        "grid_min_mhz": (float, _REQUIRED),
        "grid_max_mhz": (float, _REQUIRED),
        "n_points": (int, 400),
        "numeric": (bool, True),
    },
    "cool": {
        **_EIT_KEYS,
        "nu_mhz": (float, _REQUIRED),
        "nbar0": (float, 7.0),
        "heating_quanta_per_ms": (float, 0.0),
        "t_final_us": (float, 150.0),
        "n_times": (int, 12),
        "n_max": (int, 25),
        "dt_ns": (float, 2.0),
    },
    "scan-detuning": {
        **_EIT_KEYS,
        "nu_mhz": (float, _REQUIRED),
        "scan_min_mhz": (float, _REQUIRED),
        "scan_max_mhz": (float, _REQUIRED),
        "n_points": (int, 25),
        "t_fix_us": (float, 150.0),
        "nbar0": (float, 7.0),
        "heating_quanta_per_ms": (float, 0.0),
        "n_max": (int, 25),
        "dt_ns": (float, 4.0),
    },
    "scan-power": {
        **_EIT_KEYS,
        "nu_mhz": (float, _REQUIRED),
        "which": (str, _REQUIRED),
        "powers": (list, _REQUIRED),
        "nbar0": (float, 7.0),
        "heating_quanta_per_ms": (float, 0.0),
        "t_final_us": (float, 150.0),
        "n_times": (int, 12),
        "n_max": (int, 25),
        "dt_ns": (float, 4.0),
    },
    "modes": {
        "n_ions": (int, _REQUIRED),
        "omega_x_mhz": (float, _REQUIRED),
        "omega_y_mhz": (float, _REQUIRED),
        "omega_z_mhz": (float, _REQUIRED),
        "mass_amu": (float, units.YB171_MASS_AMU),
    },
    "sideband": {
        "nu_mhz": (float, _REQUIRED),
        "rabi_mhz": (float, _REQUIRED),
        "side": (str, "blue"),
        "n_spins": (int, 1),
        "nbar": (float, 0.06),
        "n_max": (int, 30),
        "t_max_us": (float, _REQUIRED),
        "n_points": (int, 200),
    },
    "odf": {
        "omega_m_mhz": (float, _REQUIRED),
        "b": (float, 1.0),
        "rabi_mhz": (float, _REQUIRED),
        "tau_us": (float, _REQUIRED),
        "tau_pi_us": (float, 0.0),
        "gamma_d": (float, 0.0),
        "nbar": (float, 0.0),
        "phi_min": (float, -3.0),
        "phi_max": (float, 3.0),
        "n_points": (int, 400),
    },
    "stark": {
        "omega_plus_mhz": (float, _REQUIRED),
        "omega_minus_mhz": (float, _REQUIRED),
        "omega_pi_mhz": (float, _REQUIRED),
        "delta_mhz": (float, _REQUIRED),
        "delta_p_mhz": (float, 2105.0),
        "delta_s_mhz": (float, 12642.812),
        "delta_b_mhz": (float, 4.6),
        "gamma_clock": (float, 2e3),
        "gamma_zeeman": (float, 2e3),
        "t_max_us": (float, 10.0),
        "n_points": (int, 400),
        "fit": (bool, True),
    },
}


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    output_dir: str
    seed: int = 0


def _coerce(key, value, typ):
    if typ is float and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return float(value)
    if typ is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if typ is bool and isinstance(value, bool):
        return value
    if typ is str and isinstance(value, str):
        return value
    if typ is list and isinstance(value, list):
        return value
    raise ConfigError(
        f"params.{key}: expected {typ.__name__}, got {value!r}")


def validate_config(raw):
    """Strict-schema validation; returns a resolved ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    allowed_top = {"kind", "params", "output_dir", "seed"}
    unknown = set(raw) - allowed_top
    if unknown:
        raise ConfigError(f"unknown top-level key: {sorted(unknown)[0]}")
    kind = raw.get("kind")
    if kind not in SCHEMAS:
        raise ConfigError(
            f"kind: must be one of {sorted(SCHEMAS)}, got {kind!r}")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: must be an object")
    schema = SCHEMAS[kind]
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(f"params.{sorted(unknown)[0]}: unknown key "
                          f"for kind {kind!r}")
    resolved = {}
    for key, (typ, default) in schema.items():
        if key in params:
            resolved[key] = _coerce(key, params[key], typ)
        elif default is _REQUIRED:
            raise ConfigError(f"params.{key}: required for kind {kind!r}")
        else:
            resolved[key] = default
    out_dir = raw.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("output_dir: must be a string")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed: must be an integer")
    return ExperimentConfig(kind=kind, params=resolved,
                            output_dir=out_dir, seed=seed)


def apply_overrides(raw, pairs):
    """Apply --set key=value pairs onto the raw config dict."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, text = pair.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        if key in ("output_dir", "seed", "kind"):
            raw[key] = value
        else:
            key = key[len("params."):] if key.startswith("params.") else key
            raw.setdefault("params", {})[key] = value
    return raw


def _atomic_write(path, write):
    """write(tmp) fills a temp file, renamed onto path once complete."""
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def _write_csv(path, header, rows):
    def w(tmp):
        with open(tmp, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            for row in rows:
                wr.writerow([repr(float(v))
                             if isinstance(v, (float, np.floating))
                             else v for v in row])
    _atomic_write(path, w)


def _write_json(path, obj):
    def w(tmp):
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
    _atomic_write(path, w)


def _eit_params(p):
    return EitParams.from_mhz(
        p["omega_sigma_plus_mhz"], p["omega_sigma_minus_mhz"],
        p["omega_pi_mhz"], p["delta_d_mhz"], p["delta_p_mhz"],
        p["delta_b_mhz"], p["gamma_mhz"])


def _run_spectrum(cfg, out):
    p = cfg.params
    ep = _eit_params(p)
    grid = units.mhz(np.linspace(p["grid_min_mhz"], p["grid_max_mhz"],
                                 p["n_points"]))
    ana = spectrum_mod.absorption_analytic(ep, grid)
    num = spectrum_mod.absorption_numeric(ep, grid) if p["numeric"] else None
    path = os.path.join(out, "spectrum.csv")
    _atomic_write(path, lambda tmp: spectrum_mod.write_csv(tmp, ana, num))
    if num is None or not num.failure_reasons:
        return [path]
    fpath = os.path.join(out, "failures.json")
    _write_json(fpath, [
        {"index": i, "delta_pi_MHz": float(units.to_mhz(grid[i])),
         "error": reason} for i, reason in num.failure_reasons.items()])
    return [path, fpath]


def _run_cool(cfg, out):
    p = cfg.params
    ep = _eit_params(p)
    mode = MotionalMode.from_lab(p["nu_mhz"], n_max=p["n_max"],
                                 nbar0=p["nbar0"])
    t_list = np.linspace(p["t_final_us"] / p["n_times"], p["t_final_us"],
                         p["n_times"]) * 1e-6
    res = simulate_cooling(ep, mode, p["nbar0"], t_list,
                           heating=p["heating_quanta_per_ms"] * 1e3,
                           dt=p["dt_ns"] * 1e-9)
    path = os.path.join(out, "cooling.csv")
    _write_csv(path, ["t_us", "nbar"],
               [(float(t * 1e6), float(n))
                for t, n in zip(res.times, res.nbar)])
    jpath = os.path.join(out, "cooling_fit.json")
    _write_json(jpath, {
        "gamma_cool_per_s": res.gamma_cool,
        "tau_cool_us": res.tau_cool * 1e6,
        "n_ss": res.n_ss,
        "n_ss_raw": res.n_ss_raw,
        "n_ss_clamped": res.n_ss != res.n_ss_raw,
        "fit_converged": res.fit_converged,
        "truncation_flagged": res.truncation_flagged,
        "top_fock_population": res.top_fock_population,
        "max_trace_correction": res.max_trace_correction,
    })
    return [path, jpath]


def _run_scan_detuning(cfg, out):
    p = cfg.params
    ep = _eit_params(p)
    mode = MotionalMode.from_lab(p["nu_mhz"], n_max=p["n_max"],
                                 nbar0=p["nbar0"])
    deltas = units.mhz(np.linspace(p["scan_min_mhz"], p["scan_max_mhz"],
                                   p["n_points"]))
    deltas, finals, argmin = detuning_scan(
        ep, mode, deltas, p["t_fix_us"] * 1e-6, nbar0=p["nbar0"],
        heating=p["heating_quanta_per_ms"] * 1e3, dt=p["dt_ns"] * 1e-9)
    path = os.path.join(out, "detuning_scan.csv")
    rows = [(float(units.to_mhz(d)), float(n),
             int(np.isfinite(n) and d == argmin))
            for d, n in zip(deltas, finals)]
    _write_csv(path, ["relative_detuning_mhz", "nbar_final", "is_argmin"],
               rows)
    return [path]


def _run_scan_power(cfg, out):
    p = cfg.params
    if p["which"] not in ("drive", "probe"):
        raise ConfigError("params.which: must be 'drive' or 'probe'")
    ep = _eit_params(p)
    mode = MotionalMode.from_lab(p["nu_mhz"], n_max=p["n_max"],
                                 nbar0=p["nbar0"])
    rows = power_scan(ep, mode, p["which"],
                      [float(v) for v in p["powers"]], nbar0=p["nbar0"],
                      heating=p["heating_quanta_per_ms"] * 1e3,
                      t_final=p["t_final_us"] * 1e-6,
                      n_times=p["n_times"], dt=p["dt_ns"] * 1e-9)
    path = os.path.join(out, "power_scan.csv")
    _write_csv(path,
               ["power", "gamma_cool_per_s", "n_ss", "detuning_mhz",
                "failed"],
               [(r["power"], float(r["gamma_cool"]), float(r["n_ss"]),
                 float(units.to_mhz(r["detuning"]))
                 if np.isfinite(r["detuning"]) else float("nan"),
                 int(r["failed"])) for r in rows])
    return [path]


def _run_modes(cfg, out):
    p = cfg.params
    c = CrystalConfig.from_mhz(p["n_ions"], p["omega_x_mhz"],
                               p["omega_y_mhz"], p["omega_z_mhz"],
                               mass_amu=p["mass_amu"], seed=cfg.seed)
    pos = equilibrium_positions(c)
    modes = transverse_modes(c, pos)
    path = os.path.join(out, "modes.json")
    _atomic_write(path, lambda tmp: crystal_mod.write_json(tmp, c, modes))
    return [path]


def _run_sideband(cfg, out):
    p = cfg.params
    mode = MotionalMode.from_lab(p["nu_mhz"], n_max=p["n_max"],
                                 b=None if p["n_spins"] == 1 else
                                 np.full(p["n_spins"],
                                         1.0 / np.sqrt(p["n_spins"])))
    sp = thermo_mod.SidebandParams(mode=mode,
                                   rabi=units.mhz(p["rabi_mhz"]),
                                   n_spins=p["n_spins"])
    t = np.linspace(0.0, p["t_max_us"] * 1e-6, p["n_points"])
    table = thermo_mod.sideband_populations(sp, p["side"], t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace = thermo_mod.thermal_average(table, p["nbar"])
    path = os.path.join(out, "sideband.csv")
    _write_csv(path, ["t_us", "P_up"],
               [(float(ti * 1e6), float(v)) for ti, v in zip(t, trace)])
    return [path]


def _run_odf(cfg, out):
    p = cfg.params
    w = units.mhz(p["omega_m_mhz"])
    mode = crystal_mod.ModeDecomposition(
        frequencies=np.array([w]), b_matrix=np.array([[p["b"]]]),
        positions=np.zeros((1, 2)))
    tau = p["tau_us"] * 1e-6
    phis = np.linspace(p["phi_min"], p["phi_max"], p["n_points"])
    o = thermo_mod.OdfParams(
        rabi=units.mhz(p["rabi_mhz"]), mu_r=w + 2.0 * np.pi * phis / tau,
        tau=tau, tau_pi=p["tau_pi_us"] * 1e-6, gamma_d=p["gamma_d"])
    pu = thermo_mod.odf_signal(o, mode, [p["nbar"]])[:, 0]
    path = os.path.join(out, "odf_spectrum.csv")
    _write_csv(path, ["phi_over_2pi", "mu_R_MHz", "P_up"],
               zip(phis.tolist(), units.to_mhz(o.mu_r).tolist(),
                   pu.tolist()))
    return [path]


def _run_stark(cfg, out):
    p = cfg.params
    sp = stark_mod.StarkParams.from_mhz(
        p["omega_plus_mhz"], p["omega_minus_mhz"], p["omega_pi_mhz"],
        p["delta_mhz"], delta_p=p["delta_p_mhz"], delta_s=p["delta_s_mhz"],
        delta_b=p["delta_b_mhz"], gamma_clock=p["gamma_clock"],
        gamma_zeeman=p["gamma_zeeman"])
    t = np.linspace(0.0, p["t_max_us"] * 1e-6, p["n_points"])
    traces = [stark_mod.ramsey_signal(sp, q, t) for q in stark_mod.QUBITS]
    path = os.path.join(out, "ramsey.csv")
    _write_csv(path, ["t_us", "P_clock", "P_zeeman_plus", "P_zeeman_minus"],
               [(float(ti * 1e6), float(a), float(b), float(c))
                for ti, a, b, c in zip(t, *traces)])
    artifacts = [path]
    jpath = os.path.join(out, "stark_shifts.json")
    _write_json(jpath, {
        "clock_shift_mhz": units.to_mhz(stark_mod.clock_shift(sp)),
        "zeeman_plus_shift_mhz":
            units.to_mhz(stark_mod.zeeman_shift(sp, +1)),
        "zeeman_minus_shift_mhz":
            units.to_mhz(stark_mod.zeeman_shift(sp, -1)),
    })
    artifacts.append(jpath)
    if p["fit"]:
        guess = sp.replace(omega_plus=sp.omega_plus * 1.1,
                           omega_minus=sp.omega_minus * 0.9,
                           omega_pi=sp.omega_pi * 1.05)
        fr = stark_mod.fit_rabi_components(
            [(t, y) for y in traces], guess)
        fpath = os.path.join(out, "stark_fit.json")
        _atomic_write(fpath, lambda tmp: stark_mod.write_json(tmp, fr, sp))
        artifacts.append(fpath)
    return artifacts


_RUNNERS = {
    "spectrum": _run_spectrum,
    "cool": _run_cool,
    "scan-detuning": _run_scan_detuning,
    "scan-power": _run_scan_power,
    "modes": _run_modes,
    "sideband": _run_sideband,
    "odf": _run_odf,
    "stark": _run_stark,
}


def _config_hash(cfg):
    blob = json.dumps({"kind": cfg.kind, "params": cfg.params,
                       "output_dir": cfg.output_dir, "seed": cfg.seed},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def preset_dir():
    return os.path.join(os.path.dirname(__file__), "presets")


def list_presets():
    names = [f[:-len(".json")] for f in os.listdir(preset_dir())
             if f.endswith(".json")]
    return sorted(names)


def resolve_config_path(path):
    """Accept a file path or a bundled preset name."""
    if os.path.exists(path):
        return path
    candidate = os.path.join(preset_dir(), path + ".json")
    if os.path.exists(candidate):
        return candidate
    raise ConfigError(f"config not found: {path}")


def _load_config(config_path, overrides):
    """Open, parse, override and validate one config."""
    with open(resolve_config_path(config_path)) as fh:
        raw = json.load(fh)
    return validate_config(apply_overrides(raw, overrides))


def run(config_path, overrides=()):
    """Execute one config; returns (exit_code, artifact_paths)."""
    t0 = time.monotonic()
    try:
        cfg = _load_config(config_path, overrides)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, []
    os.makedirs(cfg.output_dir, exist_ok=True)
    try:
        artifacts = _RUNNERS[cfg.kind](cfg, cfg.output_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, []
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2, []
    manifest = {
        "version": __version__,
        "kind": cfg.kind,
        "config": {"kind": cfg.kind, "params": cfg.params,
                   "output_dir": cfg.output_dir, "seed": cfg.seed},
        "config_hash": _config_hash(cfg),
        "walltime_s": time.monotonic() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "artifacts": [os.path.basename(a) for a in artifacts],
        "scan_workers": cooling_mod._workers(),
    }
    mpath = os.path.join(cfg.output_dir, "manifest.json")
    _write_json(mpath, manifest)
    return 0, artifacts + [mpath]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="eitcool",
        description="Double-EIT cooling simulation and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="overrides",
                       help="override a config key")

    sub.add_parser("list-presets", help="names of bundled presets")

    p_val = sub.add_parser("validate", help="validate a config only")
    p_val.add_argument("config", help="config file path or preset name")
    p_val.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="overrides")

    args = parser.parse_args(argv)
    if args.command == "list-presets":
        for name in list_presets():
            print(name)
        return 0
    if args.command == "validate":
        try:
            _load_config(args.config, args.overrides)
        except (ConfigError, json.JSONDecodeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("ok")
        return 0
    code, artifacts = run(args.config, args.overrides)
    for a in artifacts:
        print(a)
    return code


if __name__ == "__main__":
    sys.exit(main())
