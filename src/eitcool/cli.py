"""Batch front end: declarative JSON experiment configs in, CSV/JSON out.

One subcommand per task family.  A runner only computes and returns its
artifacts; `run` then writes them atomically (temp file + rename) next
to a manifest that echoes the fully resolved configuration, its hash,
the toolkit version, and the wall time, so any output file can be
traced back to an exact input.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, units
from .atom4 import EitParams
from .cooling import (MotionalMode, detuning_scan, power_scan,
                      simulate_cooling)
from .crystal import CrystalConfig, equilibrium_positions, transverse_modes
from .operators import TruncationWarning
from . import cooling as cooling_mod
from . import crystal as crystal_mod
from . import spectrum as spectrum_mod
from . import stark as stark_mod
from . import thermometry as thermo_mod


class ConfigError(ValueError):
    """Config fails schema validation; message names the offending key."""


_REQUIRED = object()

# per-kind parameter schema: key -> (type, default); a tuple type lists
# the values a choice-valued key may take
_EIT_KEYS = {
    "omega_sigma_plus_mhz": (float, _REQUIRED),
    "omega_sigma_minus_mhz": (float, _REQUIRED),
    "omega_pi_mhz": (float, _REQUIRED),
    "delta_d_mhz": (float, _REQUIRED),
    "delta_p_mhz": (float, _REQUIRED),
    "delta_b_mhz": (float, _REQUIRED),
    "gamma_mhz": (float, units.YB171_GAMMA_MHZ),
}

# shared by the three cooling kinds, which also take dt_ns
_COOL_KEYS = {
    **_EIT_KEYS,
    "nu_mhz": (float, _REQUIRED),
    "nbar0": (float, 7.0),
    "heating_quanta_per_ms": (float, 0.0),
    "n_max": (int, 25),
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
        **_COOL_KEYS,
        "t_final_us": (float, 150.0),
        "n_times": (int, 12),
        "dt_ns": (float, 2.0),
    },
    "scan-detuning": {
        **_COOL_KEYS,
        "scan_min_mhz": (float, _REQUIRED),
        "scan_max_mhz": (float, _REQUIRED),
        "n_points": (int, 25),
        "t_fix_us": (float, 150.0),
        "dt_ns": (float, 4.0),
    },
    "scan-power": {
        **_COOL_KEYS,
        "which": (("drive", "probe"), _REQUIRED),
        "powers": (list, _REQUIRED),
        "t_final_us": (float, 150.0),
        "n_times": (int, 12),
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
        "side": (("red", "blue"), "blue"),
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
        "delta_p_mhz": (float, units.YB171_P_HYPERFINE_MHZ),
        "delta_s_mhz": (float, units.YB171_QUBIT_SPLITTING_MHZ),
        "delta_b_mhz": (float, 4.6),
        "gamma_clock": (float, 2e3),
        "gamma_zeeman": (float, 2e3),
        "t_max_us": (float, 10.0),
        "n_points": (int, 400),
        "fit": (bool, True),
    },
}


# value checks on resolved params: key -> (predicate, requirement)
_POSITIVE = (lambda v: v > 0, "must be > 0")
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_CHECKS = {
    # tau_us: the ODF phase axis divides by it
    **dict.fromkeys(("dt_ns", "gamma_mhz", "mass_amu", "tau_us", "nu_mhz",
                     "omega_x_mhz", "omega_y_mhz", "omega_z_mhz",
                     "omega_m_mhz", "t_final_us", "t_fix_us", "t_max_us"),
                    _POSITIVE),
    **dict.fromkeys(("nbar0", "heating_quanta_per_ms", "nbar", "rabi_mhz",
                     "tau_pi_us", "gamma_d", "omega_sigma_plus_mhz",
                     "omega_sigma_minus_mhz", "omega_pi_mhz",
                     "omega_plus_mhz", "omega_minus_mhz", "gamma_clock",
                     "gamma_zeeman"), _NONNEGATIVE),
    "powers": (lambda v: all(type(x) in (int, float)
                             and 0 <= x <= sys.float_info.max for x in v),
               "entries must be finite numbers >= 0"),
}


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    output_dir: str
    seed: int


def _coerce(key, value, typ):
    if isinstance(typ, tuple):
        if value in typ:
            return value
        raise ConfigError(
            f"params.{key}: must be one of {list(typ)}, got {value!r}")
    if typ is float and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"params.{key}: integer beyond float range") from None
        if not np.isfinite(value):
            raise ConfigError(f"params.{key}: must be finite, got {value!r}")
        return value
    if typ is int and isinstance(value, int) and not isinstance(value, bool):
        # every int key is a count or a truncation
        if value < 1:
            raise ConfigError(f"params.{key}: must be >= 1, got {value!r}")
        return value
    if typ is bool and isinstance(value, bool):
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
    for key, (check, requirement) in _CHECKS.items():
        if key in resolved and not check(resolved[key]):
            raise ConfigError(
                f"params.{key}: {requirement}, got {resolved[key]!r}")
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
        except ValueError:      # not JSON, or an integer past int's limit
            value = text
        if key in ("output_dir", "seed", "kind"):
            raw[key] = value
        else:
            key = key[len("params."):] if key.startswith("params.") else key
            raw.setdefault("params", {})[key] = value
    return raw


def _artifact_text(name, content):
    """One artifact as the text of its file.

    A .csv name takes (header, columns), one value per row in each
    column; any other name takes an object written as JSON with sorted
    keys.  Numpy arrays and scalars in either become Python lists and
    numbers here, so a float is written as its repr (1.5, never
    np.float64(1.5)).
    """
    if name.endswith(".csv"):
        header, columns = content
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(header)
        wr.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
        return buf.getvalue()
    return json.dumps(content, indent=2, sort_keys=True,
                      default=lambda v: v.tolist())


def _eit_params(p):
    return EitParams.from_mhz(
        p["omega_sigma_plus_mhz"], p["omega_sigma_minus_mhz"],
        p["omega_pi_mhz"], p["delta_d_mhz"], p["delta_p_mhz"],
        p["delta_b_mhz"], p["gamma_mhz"])


def _cooling_inputs(p):
    """EIT parameters, mode and SI keywords shared by the cooling kinds."""
    mode = MotionalMode.from_lab(p["nu_mhz"], n_max=p["n_max"])
    return _eit_params(p), mode, {
        "nbar0": p["nbar0"], "heating": p["heating_quanta_per_ms"] * 1e3,
        "dt": p["dt_ns"] * 1e-9}


def _run_spectrum(cfg):
    p = cfg.params
    ep = _eit_params(p)
    grid = units.mhz(np.linspace(p["grid_min_mhz"], p["grid_max_mhz"],
                                 p["n_points"]))
    ana = spectrum_mod.absorption_analytic(ep, grid)
    num = spectrum_mod.absorption_numeric(ep, grid) if p["numeric"] else None
    out = {"spectrum.csv": (
        ["delta_pi_MHz", "W_analytic", "rho_ee_numeric"],
        [units.to_mhz(grid), ana.values,
         [""] * grid.size if num is None else num.values])}
    if num is not None and num.failure_reasons:
        out["failures.json"] = [
            {"index": i, "delta_pi_MHz": units.to_mhz(grid[i]),
             "error": reason} for i, reason in num.failure_reasons.items()]
    return out


def _run_cool(cfg):
    p = cfg.params
    ep, mode, kw = _cooling_inputs(p)
    t_list = np.linspace(p["t_final_us"] / p["n_times"], p["t_final_us"],
                         p["n_times"]) * 1e-6
    res = simulate_cooling(ep, mode, t_list=t_list, **kw)
    return {
        "cooling.csv": (["t_us", "nbar"], [res.times * 1e6, res.nbar]),
        "cooling_fit.json": {
            "gamma_cool_per_s": res.gamma_cool,
            "tau_cool_us": res.tau_cool * 1e6,
            "n_ss": res.n_ss,
            "n_ss_raw": res.n_ss_raw,
            "n_ss_clamped": res.n_ss != res.n_ss_raw,
            "fit_converged": res.fit_converged,
            "truncation_flagged": res.truncation_flagged,
            "top_fock_population": res.top_fock_population,
            "max_trace_correction": res.max_trace_correction,
        },
    }


def _run_scan_detuning(cfg):
    p = cfg.params
    ep, mode, kw = _cooling_inputs(p)
    deltas = units.mhz(np.linspace(p["scan_min_mhz"], p["scan_max_mhz"],
                                   p["n_points"]))
    deltas, finals, argmin = detuning_scan(ep, mode, deltas,
                                           p["t_fix_us"] * 1e-6, **kw)
    is_argmin = np.isfinite(finals) & (deltas == argmin)
    return {"detuning_scan.csv": (
        ["relative_detuning_mhz", "nbar_final", "is_argmin"],
        [units.to_mhz(deltas), finals, is_argmin.astype(int)])}


def _run_scan_power(cfg):
    p = cfg.params
    ep, mode, kw = _cooling_inputs(p)
    rows = power_scan(ep, mode, p["which"], p["powers"],
                      t_final=p["t_final_us"] * 1e-6,
                      n_times=p["n_times"], **kw)
    power, gamma, n_ss, detuning, failed = (
        np.array([r[k] for r in rows])
        for k in ("power", "gamma_cool", "n_ss", "detuning", "failed"))
    return {"power_scan.csv": (
        ["power", "gamma_cool_per_s", "n_ss", "detuning_mhz", "failed"],
        [power, gamma, n_ss, units.to_mhz(detuning), failed.astype(int)])}


def _run_modes(cfg):
    p = cfg.params
    c = CrystalConfig.from_mhz(p["n_ions"], p["omega_x_mhz"],
                               p["omega_y_mhz"], p["omega_z_mhz"],
                               mass_amu=p["mass_amu"], seed=cfg.seed)
    modes = transverse_modes(c, equilibrium_positions(c))
    return {"modes.json": {
        "n_ions": c.n_ions,
        "seed": c.seed,
        "constants": {
            "epsilon_0": units.EPSILON_0,
            "elementary_charge": units.ELEMENTARY_CHARGE,
            "amu": units.AMU,
        },
        "trap_mhz": {k: units.to_mhz(getattr(c, k))
                     for k in ("omega_x", "omega_y", "omega_z")},
        "mass_kg": c.mass,
        "positions_um": modes.positions * 1e6,
        "mode_frequencies_mhz": units.to_mhz(modes.frequencies),
        "participation_matrix": modes.b_matrix,
    }}


def _run_sideband(cfg):
    p = cfg.params
    n = p["n_spins"]
    mode = MotionalMode.from_lab(p["nu_mhz"], n_max=p["n_max"],
                                 b=np.full(n, 1.0 / np.sqrt(n)))
    sp = thermo_mod.SidebandParams(mode=mode, rabi=units.mhz(p["rabi_mhz"]))
    t = np.linspace(0.0, p["t_max_us"] * 1e-6, p["n_points"])
    table = thermo_mod.sideband_populations(sp, p["side"], t)
    # a mixture renormalised over a truncated tail is a failed run
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        trace = thermo_mod.thermal_average(table, p["nbar"])
    return {"sideband.csv": (["t_us", "P_up"], [t * 1e6, trace])}


def _run_odf(cfg):
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
    return {"odf_spectrum.csv": (["phi_over_2pi", "mu_R_MHz", "P_up"],
                                 [phis, units.to_mhz(o.mu_r), pu])}


def _run_stark(cfg):
    p = cfg.params
    sp = stark_mod.StarkParams.from_mhz(
        p["omega_plus_mhz"], p["omega_minus_mhz"], p["omega_pi_mhz"],
        p["delta_mhz"], delta_p=p["delta_p_mhz"], delta_s=p["delta_s_mhz"],
        delta_b=p["delta_b_mhz"], gamma_clock=p["gamma_clock"],
        gamma_zeeman=p["gamma_zeeman"])
    t = np.linspace(0.0, p["t_max_us"] * 1e-6, p["n_points"])
    traces = [stark_mod.ramsey_signal(sp, q, t) for q in stark_mod.QUBITS]
    out = {
        "ramsey.csv": (
            ["t_us", "P_clock", "P_zeeman_plus", "P_zeeman_minus"],
            [t * 1e6, *traces]),
        "stark_shifts.json": {
            "clock_shift_mhz": units.to_mhz(stark_mod.shift(sp, "clock")),
            "zeeman_plus_shift_mhz":
                units.to_mhz(stark_mod.shift(sp, "zeeman+")),
            "zeeman_minus_shift_mhz":
                units.to_mhz(stark_mod.shift(sp, "zeeman-")),
        },
    }
    if p["fit"]:
        guess = sp.replace(omega_plus=sp.omega_plus * 1.1,
                           omega_minus=sp.omega_minus * 0.9,
                           omega_pi=sp.omega_pi * 1.05)
        fr = stark_mod.fit_rabi_components(
            [(t, y) for y in traces], guess)
        omega = units.to_mhz(fr.params)
        out["stark_fit.json"] = {
            "omega_plus_mhz": omega[0],
            "omega_minus_mhz": omega[1],
            "omega_pi_mhz": omega[2],
            "sigma_mhz": units.to_mhz(fr.sigma),
            "converged": fr.converged,
            "wide_sigma": fr.wide_sigma,
            "b_field_alignment": stark_mod.b_field_alignment(fr.params),
            "delta_mhz": units.to_mhz(sp.delta),
            "delta_p_mhz": units.to_mhz(sp.delta_p),
            "delta_s_mhz": units.to_mhz(sp.delta_s),
        }
    return out


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
    """Open, parse, override and validate one config; None, with the
    reason on stderr, when any of that fails."""
    try:
        with open(resolve_config_path(config_path)) as fh:
            raw = json.load(fh)
        return validate_config(apply_overrides(raw, overrides))
    except (ValueError, OSError) as exc:    # ConfigError, bad JSON
        print(f"error: {exc}", file=sys.stderr)
        return None


def run(config_path, overrides=()):
    """Execute one config; returns (exit_code, artifact_paths).

    Nothing is written unless the runner returns and every artifact,
    the manifest included, converts to text: a config error exits 1,
    and a numerical failure or an artifact that cannot be written as
    text exits 2, all with no artifacts.  Each file is written to a temp
    file and renamed onto its path once complete.  An output_dir that
    cannot be made or written to also exits 2 (artifact failure, with
    the path named) and leaves no temp file; the paths returned are the
    files completed before the failure.
    """
    t0 = time.monotonic()
    cfg = _load_config(config_path, overrides)
    if cfg is None:
        return 1, []
    try:
        artifacts = _RUNNERS[cfg.kind](cfg)
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2, []
    config = asdict(cfg)
    artifacts["manifest.json"] = {
        "version": __version__,
        "kind": cfg.kind,
        "config": config,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "walltime_s": time.monotonic() - t0,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "artifacts": list(artifacts),
        "scan_workers": cooling_mod._workers(),
    }
    try:
        texts = {name: _artifact_text(name, content)
                 for name, content in artifacts.items()}
    except Exception as exc:
        print(f"artifact failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2, []
    paths = []
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
        for name, text in texts.items():
            path = os.path.join(cfg.output_dir, name)
            try:
                with open(path + ".tmp", "w", newline="") as fh:
                    fh.write(text)
                os.replace(path + ".tmp", path)
            except OSError:
                with contextlib.suppress(OSError):
                    os.remove(path + ".tmp")
                raise
            paths.append(path)
    except OSError as exc:
        print(f"artifact failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2, paths
    return 0, paths


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="eitcool",
        description="Double-EIT cooling simulation and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    config_args = argparse.ArgumentParser(add_help=False)
    config_args.add_argument("config",
                             help="config file path or preset name")
    config_args.add_argument("--set", action="append", default=[],
                             metavar="KEY=VALUE", dest="overrides",
                             help="override a config key")
    sub.add_parser("run", parents=[config_args],
                   help="execute an experiment config")
    sub.add_parser("list-presets", help="names of bundled presets")
    sub.add_parser("validate", parents=[config_args],
                   help="validate a config only")

    args = parser.parse_args(argv)
    if args.command == "list-presets":
        for name in list_presets():
            print(name)
        return 0
    if args.command == "validate":
        if _load_config(args.config, args.overrides) is None:
            return 1
        print("ok")
        return 0
    code, artifacts = run(args.config, args.overrides)
    for a in artifacts:
        print(a)
    return code


if __name__ == "__main__":
    sys.exit(main())
