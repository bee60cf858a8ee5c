"""Workload definitions: the operations each benchmark pass runs, and the
checks that decide whether each operation's output is correct.

Every preset operation goes through the CLI entry point ``eitcool.cli.run``
exactly as a user's ``eitcool run <preset> --set ...`` does.  The analysis
workload adds one library-level batch of projection-noise thermometry fits.
Inputs that depend on the workload seed (the noise draws and the crystal
start seed) are generated here, before any timing starts.

Checks use an oracle independent of the code under test where one exists
(closed forms, criterion thresholds, config truth).  Where none exists the
output is compared with references recorded from this benchmark's own
sizes (``references.json``, written by ``record_references.py``).
"""

import csv
import json
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESET_DIR = os.path.join(ROOT, "src", "eitcool", "presets")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

# Relative tolerance on cooling nbar values.  ROADMAP tabulates the
# split-step error against RK45 as 3.8e-4 at dt 4 ns and 2.4e-4 at 2 ns;
# 2e-3 leaves room for algorithm changes of that order.
COOL_RTOL = 2e-3
# fig3a re-optimises detuning on a coarse grid of 5 points over +-0.8 MHz:
# a near-tie may move the argmin by one grid step.
COARSE_STEP_MHZ = 0.4
# Tolerance on values that are deterministic up to rounding (fig1b, fig4d).
EXACT_RTOL = 1e-6
LINESHAPE_BOUND = 0.05       # criterion 1
CRYSTAL_BOUND = 1e-9         # criterion 8
STARK_BOUND = 0.01           # criterion 9
ROUND_TRIP_BOUND = 0.05      # criterion 6, noiseless round trips


def _load_preset(name, overrides):
    """Preset JSON with ``params.key=value`` / ``key=value`` overrides."""
    with open(os.path.join(PRESET_DIR, name + ".json")) as fh:
        raw = json.load(fh)
    for pair in overrides:
        key, _, text = pair.partition("=")
        value = json.loads(text)
        if key.startswith("params."):
            raw["params"][key[len("params."):]] = value
        else:
            raw[key] = value
    return raw


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {col: np.array([float(r[i]) if r[i] != "" else np.nan
                           for r in body])
            for i, col in enumerate(header)}


def read_artifacts(paths):
    """Parse CLI artifacts into {basename: columns dict or JSON object}."""
    out = {}
    for path in paths:
        base = os.path.basename(path)
        if base.endswith(".csv"):
            out[base] = _read_csv(path)
        elif base.endswith(".json"):
            with open(path) as fh:
                out[base] = json.load(fh)
    return out


def _rel(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def _close(name, got, ref, rtol, atol=0.0):
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} != reference {ref.shape}"]
    if not np.all(np.isfinite(got)):
        return [f"{name}: non-finite values"]
    bad = np.abs(got - ref) > rtol * np.abs(ref) + atol
    if bad.any():
        worst = float(np.max(_rel(got, ref)))
        return [f"{name}: {int(bad.sum())} values off reference "
                f"(worst rel {worst:.2e}, rtol {rtol:g})"]
    return []


# -- closed forms used as oracles and as noise-free thermometry inputs --

def sideband_coupling(nu_mhz, rabi_mhz):
    """eta * Omega for a single ion on a mode of frequency nu (rad/s)."""
    from eitcool import units
    k = 2.0 * np.pi / (units.YB171_S_P_WAVELENGTH_NM * 1e-9)
    mass = units.YB171_MASS_AMU * units.AMU
    eta = k * np.sqrt(units.HBAR / (2.0 * mass * units.mhz(nu_mhz)))
    return eta * units.mhz(rabi_mhz)


def sideband_closed_form(g, n_max, nbar, t, side):
    """Thermal P_up of |down, n> under a red or blue sideband drive.

    |down, n> couples to |up, n +- 1> at rate g sqrt(n+1) (blue) or
    g sqrt(n) (red), so P_up = sin^2(g sqrt(.) t / 2); the top Fock level
    has no blue partner.  Thermal weights are renormalised over
    0..n_max, matching the truncated model.
    """
    n = np.arange(n_max + 1)
    w = (nbar / (nbar + 1.0)) ** n
    w = w / w.sum()
    if side == "blue":
        rate = g * np.sqrt(n + 1.0)
        rate[-1] = 0.0
    else:
        rate = g * np.sqrt(n)
    t = np.atleast_1d(np.asarray(t, float))
    return w @ np.sin(0.5 * np.outer(rate, t)) ** 2


# -- operations --

class PresetOp:
    """One ``cli.run`` of a bundled preset with ``--set`` overrides."""

    def __init__(self, preset, overrides=(), verify=None, reduced=False,
                 reference=None):
        self.name = preset
        self.preset = preset
        self.overrides = list(overrides)
        self.verify = verify
        self.reduced = reduced
        self.reference = reference

    def params(self):
        return _load_preset(self.preset, self.overrides)["params"]

    def run(self, out_dir):
        from eitcool import cli
        return cli.run(self.preset, self.overrides + [f"output_dir={out_dir}"])

    def check(self, result):
        code, artifacts = result
        if code != 0:
            return [f"exit code {code}"]
        return self.verify(self, read_artifacts(artifacts))


def verify_power_scan(op, out):
    rows = out["power_scan.csv"]
    problems = []
    if np.any(rows["failed"] != 0):
        problems.append("power_scan: failed rows")
    if op.reference is None:
        if not np.all(np.isfinite(rows["n_ss"])):
            problems.append("power_scan: non-finite n_ss")
        return problems
    ref = op.reference
    problems += _close("power_scan n_ss", rows["n_ss"], ref["n_ss"],
                       COOL_RTOL)
    det = rows["detuning_mhz"]
    if det.shape != np.shape(ref["detuning_mhz"]) or not np.all(
            np.abs(det - ref["detuning_mhz"]) <= COARSE_STEP_MHZ + 1e-9):
        problems.append("power_scan: detuning off the reference grid point")
    return problems


def verify_detuning_scan(op, out):
    rows = out["detuning_scan.csv"]
    nb = rows["nbar_final"]
    problems = []
    if not np.all(np.isfinite(nb)):
        problems.append("detuning_scan: failed (NaN) points")
    elif rows["is_argmin"].sum() != 1 or \
            nb[np.argmax(rows["is_argmin"])] != nb.min():
        problems.append("detuning_scan: is_argmin does not mark the minimum")
    if op.reference is not None:
        problems += _close("detuning_scan nbar", nb, op.reference["nbar"],
                           COOL_RTOL)
    return problems


def verify_cool(op, out):
    rows = out["cooling.csv"]
    problems = []
    if "cooling_fit.json" not in out:
        problems.append("cool: cooling_fit.json missing")
    if op.reference is not None:
        problems += _close("cooling t_us", rows["t_us"],
                           op.reference["t_us"], 1e-12)
        problems += _close("cooling nbar", rows["nbar"],
                           op.reference["nbar"], COOL_RTOL)
    elif not np.all(np.isfinite(rows["nbar"])):
        problems.append("cool: non-finite nbar")
    return problems


def _spectrum_values(out):
    rows = out["spectrum.csv"]
    rho = rows["rho_ee_numeric"]
    problems = []
    if not np.all(np.isfinite(rho)):
        problems.append(f"spectrum: {int((~np.isfinite(rho)).sum())} "
                        "failed points")
    elif rho.min() < -1e-12 or rho.max() > 0.5:
        problems.append("spectrum: rho_ee outside [0, 0.5]")
    return rows, rho, problems


def verify_spectrum_analytic(op, out):
    """Numeric lineshape against the closed form, criterion 1's bound."""
    from eitcool import units
    from eitcool.atom4 import EitParams
    from eitcool.spectrum import absorption_analytic
    rows, rho, problems = _spectrum_values(out)
    if problems:
        return problems
    p = op.params()
    ep = EitParams.from_mhz(
        p["omega_sigma_plus_mhz"], p["omega_sigma_minus_mhz"],
        p["omega_pi_mhz"], p["delta_d_mhz"], p["delta_p_mhz"],
        p["delta_b_mhz"], p["gamma_mhz"])
    w = absorption_analytic(ep, units.mhz(rows["delta_pi_MHz"])).values
    scale = (w @ rho) / (w @ w)
    dev = np.linalg.norm(scale * w - rho) / np.linalg.norm(rho)
    if not dev < LINESHAPE_BOUND:
        problems.append(f"spectrum: scaled deviation {dev:.4f} from the "
                        f"closed form (bound {LINESHAPE_BOUND})")
    return problems


def verify_spectrum_reference(op, out):
    """Strong-probe lineshape: the weak-probe closed form does not apply."""
    _, rho, problems = _spectrum_values(out)
    if not problems and op.reference is not None:
        problems += _close("spectrum rho_ee", rho, op.reference["rho_ee"],
                           EXACT_RTOL, atol=1e-12)
    return problems


def verify_modes(op, out):
    """COM frequency, participation and trace identity (criterion 8).

    tr(K) is rebuilt here from the reported positions, so the identity
    sum(omega_m^2) = tr(K) checks the eigen-solve independently.
    """
    from eitcool import units
    m = out["modes.json"]
    p = op.params()
    n = p["n_ions"]
    freqs = units.mhz(np.array(m["mode_frequencies_mhz"]))
    b = np.array(m["participation_matrix"])
    pos = np.array(m["positions_um"]) * 1e-6
    wy = units.mhz(p["omega_y_mhz"])
    if freqs.size != n:
        return [f"modes: {freqs.size} modes for {n} ions"]
    problems = []
    com = int(np.argmin(np.abs(freqs - wy)))
    if abs(freqs[com] - wy) / wy > CRYSTAL_BOUND:
        problems.append("modes: COM frequency off omega_y")
    if np.abs(np.abs(b[:, com]) - 1.0 / np.sqrt(n)).max() > CRYSTAL_BOUND:
        problems.append("modes: COM participation not uniform")
    kq = units.COULOMB_K / (p.get("mass_amu", units.YB171_MASS_AMU)
                            * units.AMU)
    d = pos[:, None, :] - pos[None, :, :]
    r = np.sqrt((d * d).sum(axis=2))
    np.fill_diagonal(r, np.inf)
    trace_k = n * wy**2 - kq * np.sum(1.0 / r**3)
    tr = np.sum(freqs**2)
    if abs(tr - trace_k) / tr > CRYSTAL_BOUND:
        problems.append("modes: trace identity sum(omega^2) != tr(K)")
    return problems


def verify_sideband(op, out):
    """Blue-sideband trace against the closed-form Rabi sum."""
    rows = out["sideband.csv"]
    p = op.params()
    if p["side"] != "blue" or p["n_spins"] != 1:
        return ["sideband: oracle covers one spin, blue side"]
    g = sideband_coupling(p["nu_mhz"], p["rabi_mhz"])
    want = sideband_closed_form(g, p["n_max"], p["nbar"],
                                rows["t_us"] * 1e-6, "blue")
    if not np.all(np.abs(rows["P_up"] - want) < 1e-8):
        return ["sideband: P_up off the closed form"]
    return []


def verify_odf(op, out):
    pu = out["odf_spectrum.csv"]["P_up"]
    problems = []
    if not (np.all(np.isfinite(pu)) and pu.min() >= 0.0
            and pu.max() <= 0.5):
        problems.append("odf: P_up outside [0, 0.5]")
    if op.reference is not None:
        problems += _close("odf P_up", pu, op.reference["P_up"],
                           EXACT_RTOL, atol=1e-12)
    return problems


def verify_stark(op, out):
    """Recovered Rabi components within criterion 9's 1% of the truth."""
    fit = out.get("stark_fit.json")
    if fit is None:
        return ["stark: stark_fit.json missing"]
    p = op.params()
    problems = []
    for key in ("omega_plus_mhz", "omega_minus_mhz", "omega_pi_mhz"):
        if not _rel(fit[key], p[key]) < STARK_BOUND:
            problems.append(f"stark: {key} {fit[key]!r} vs truth {p[key]}")
    return problems


class ThermometryOp:
    """Criterion 6's settings as a library-level fit batch.

    Noiseless round trips at nbar 0.06, 1.04 (n_max 30) and 7.0 (n_max 60),
    then ``n_noisy`` projection-noise replications at truth 0.06 with 200
    shots: one trace fit, one ratio inversion and its delta-method sigma
    each.  Noise-free inputs come from the closed form, so the fits see
    only generated data.
    """

    name = "thermometry"
    reduced = False
    NU_MHZ, RABI_MHZ, SHOTS, TRUTH = 2.38, 0.5, 200, 0.06
    ROUND_TRIPS = ((0.06, 30), (1.04, 30), (7.0, 60))

    def __init__(self, seed, n_noisy=8, round_trips=ROUND_TRIPS):
        from eitcool.thermometry import expected_projection_sigma
        self.round_trips = tuple(round_trips)
        g = sideband_coupling(self.NU_MHZ, self.RABI_MHZ)
        self.t_pi = np.pi / g
        self.t = np.linspace(0.0, 3.0 * self.t_pi, 40)

        def truth(nbar, n_max):
            y = sideband_closed_form(g, n_max, nbar, self.t, "blue")
            pr = sideband_closed_form(g, n_max, nbar, [self.t_pi], "red")[0]
            pb = sideband_closed_form(g, n_max, nbar, [self.t_pi], "blue")[0]
            return y, pr, pb

        self.clean = [truth(nb, n_max) for nb, n_max in self.round_trips]
        y, pr, pb = truth(self.TRUTH, 30)
        self.sig_trace = expected_projection_sigma(y, self.SHOTS)
        self.sig_r = float(expected_projection_sigma(pr, self.SHOTS))
        self.sig_b = float(expected_projection_sigma(pb, self.SHOTS))
        rng = np.random.default_rng(seed)
        self.draws = [(rng.binomial(self.SHOTS, y) / self.SHOTS,
                       rng.binomial(self.SHOTS, pr) / self.SHOTS,
                       rng.binomial(self.SHOTS, pb) / self.SHOTS)
                      for _ in range(n_noisy)]

    def _params(self, n_max):
        from eitcool import units
        from eitcool.cooling import MotionalMode
        from eitcool.thermometry import SidebandParams
        return SidebandParams(
            mode=MotionalMode.from_lab(self.NU_MHZ, n_max=n_max),
            rabi=units.mhz(self.RABI_MHZ))

    def run(self, out_dir):
        from eitcool import thermometry as th
        trips = []
        for (nbar, n_max), (y, pr, pb) in zip(self.round_trips, self.clean):
            p = self._params(n_max)
            fr = th.fit_nbar_trace((self.t, y), p)
            trips.append((nbar, float(fr.params[0]),
                          float(th.fit_nbar_ratio(pr, pb, p))))
        p = self._params(30)
        noisy = []
        for y_hat, pr_hat, pb_hat in self.draws:
            fr = th.fit_nbar_trace((self.t, y_hat, self.sig_trace), p)
            nb = th.fit_nbar_ratio(pr_hat, pb_hat, p, t=self.t_pi)
            s = th.ratio_nbar_sigma(nb, pr_hat, pb_hat, self.sig_r,
                                    self.sig_b, p, t=self.t_pi)
            noisy.append((float(fr.params[0]), float(fr.sigma[0]),
                          float(nb), float(s)))
        return {"round_trips": trips, "noisy": noisy}

    def check(self, result):
        problems = []
        for truth, trace, ratio in result["round_trips"]:
            for label, got in (("trace", trace), ("ratio", ratio)):
                if not _rel(got, truth) < ROUND_TRIP_BOUND:
                    problems.append(f"thermometry: {label} round trip "
                                    f"{got!r} vs {truth}")
        for nb, sig, nb_ratio, sig_ratio in result["noisy"]:
            # a 6-sigma miss has probability ~2e-9 per fit
            if not (np.isfinite(sig) and sig > 0
                    and abs(nb - self.TRUTH) <= 6.0 * sig):
                problems.append(f"thermometry: noisy trace fit {nb!r} "
                                f"+- {sig!r}")
            if not (np.isfinite(nb_ratio) and nb_ratio >= 0
                    and np.isfinite(sig_ratio)):
                problems.append(f"thermometry: noisy ratio {nb_ratio!r} "
                                f"+- {sig_ratio!r}")
        return problems


# -- workloads --

COOL_SCAN = (
    ("fig3a", ["params.powers=[0.5,2.0]", "params.t_final_us=1.2"],
     verify_power_scan),
    ("fig2e", ["params.n_points=5", "params.t_fix_us=1.2"],
     verify_detuning_scan),
)
COOL_LONG = (
    ("fig2b", ["params.n_max=40", "params.t_final_us=2"], verify_cool),
)
ANALYSIS = (
    ("fig1b", [], verify_spectrum_reference),
    ("fig5", [], verify_spectrum_analytic),
    ("fig4", [], verify_modes),
    ("fig2d", [], verify_sideband),
    ("fig4d", [], verify_odf),
    ("appendixE-drive", [], verify_stark),
    ("appendixE-probe", [], verify_stark),
)
WORKLOADS = {"cool-scan": COOL_SCAN, "cool-long": COOL_LONG,
             "analysis": ANALYSIS}
# Tiny sizes (n_max 6, as the CLI tests use) for the harness smoke test.
SMOKE_OVERRIDES = {
    "fig3a": ["params.powers=[1.0]", "params.t_final_us=0.2",
              "params.n_times=3", "params.n_max=6", "params.dt_ns=8"],
    "fig2e": ["params.n_points=2", "params.t_fix_us=0.2", "params.n_max=6",
              "params.dt_ns=8"],
    "fig2b": ["params.t_final_us=0.2", "params.n_times=3", "params.n_max=6",
              "params.dt_ns=8"],
    "fig1b": ["params.n_points=12"],
    "fig5": ["params.n_points=12"],
    "fig4": ["params.n_ions=3"],
    "fig2d": ["params.n_points=20", "params.n_max=10"],
    "fig4d": ["params.n_points=30"],
    "appendixE-drive": ["params.n_points=400"],
    "appendixE-probe": ["params.n_points=600"],
}


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def build(workload, seed, smoke=False):
    """The operation list of one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    table = WORKLOADS[workload]
    refs = {} if smoke else load_references()
    rng = np.random.default_rng(seed)
    crystal_seed, noise_seed = (int(v) for v in rng.integers(0, 2**31, 2))
    ops = []
    for preset, overrides, verify in table:
        overrides = list(SMOKE_OVERRIDES[preset] if smoke else overrides)
        if preset == "fig4":
            overrides.append(f"seed={crystal_seed}")
        ref = refs.get(preset)
        if ref is not None and ref["overrides"] != overrides:
            raise ValueError(f"references.json for {preset} was recorded "
                             f"with other overrides; re-record it")
        reduced = any(o.startswith("params.") for o in overrides)
        ops.append(PresetOp(preset, overrides, verify, reduced=reduced,
                            reference=ref))
    if workload == "analysis":
        ops.append(ThermometryOp(noise_seed, n_noisy=1 if smoke else 8,
                                 round_trips=ThermometryOp.ROUND_TRIPS[:1]
                                 if smoke else ThermometryOp.ROUND_TRIPS))
    return ops

