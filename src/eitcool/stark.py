"""Differential AC-Stark calibration of the beam Rabi components.

Closed-form differential shifts for the clock and Zeeman qubits, the
Ramsey oscillation models with spontaneous-emission decay envelopes, and
a joint three-trace fit that recovers (Omega_+, Omega_-, Omega_pi) from
measured Ramsey data.  Any constant prefactor of the shift formulas is
absorbed into the fitted Rabi scale.
"""

import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from . import units
from .numerics import (ContractViolation, DegenerateFitError, FitResult,
                       fit_least_squares)

GUARD_BAND = units.mhz(0.5)     # minimum distance to any denominator zero

QUBITS = ("clock", "zeeman+", "zeeman-")


class NearResonanceError(ContractViolation):
    """A shift denominator is within the guard band of zero."""


@dataclass
class StarkParams:
    omega_plus: float              # rad/s
    omega_minus: float
    omega_pi: float
    delta: float                   # beam detuning, rad/s
    delta_p: float = units.mhz(2105.0)            # P hyperfine splitting
    delta_s: float = 2.0 * np.pi * units.YB171_QUBIT_SPLITTING_GHZ * 1e9
    delta_b: float = 0.0           # Zeeman splitting, rad/s
    gamma_clock: float = 0.0       # clock envelope rate constant, 1/s
    gamma_zeeman: float = 0.0      # Zeeman envelope rate constant, 1/s

    @classmethod
    def from_mhz(cls, omega_plus, omega_minus, omega_pi, delta,
                 delta_p=2105.0, delta_s=12642.812, delta_b=0.0,
                 gamma_clock=0.0, gamma_zeeman=0.0):
        return cls(omega_plus=units.mhz(omega_plus),
                   omega_minus=units.mhz(omega_minus),
                   omega_pi=units.mhz(omega_pi),
                   delta=units.mhz(delta), delta_p=units.mhz(delta_p),
                   delta_s=units.mhz(delta_s), delta_b=units.mhz(delta_b),
                   gamma_clock=gamma_clock, gamma_zeeman=gamma_zeeman)

    def replace(self, **kw):
        return replace(self, **kw)


def _guard(p, extra=()):
    dens = {
        "delta": p.delta,
        "delta_p - delta": p.delta_p - p.delta,
        "delta_p + delta_s - delta": p.delta_p + p.delta_s - p.delta,
    }
    dens.update(extra)
    for name, val in dens.items():
        if abs(val) < GUARD_BAND:
            raise NearResonanceError(
                f"denominator {name} = {units.to_mhz(val):.4f} MHz is "
                f"inside the {units.to_mhz(GUARD_BAND):.2f} MHz guard band")


def clock_shift(p):
    """Differential shift of the clock qubit, rad/s."""
    _guard(p)
    d, dp, ds = p.delta, p.delta_p, p.delta_s
    return (p.omega_pi**2 * (1.0 / d + 1.0 / (dp + ds - d))
            + (p.omega_minus**2 + p.omega_plus**2)
            * (1.0 / (dp + ds - d) - 1.0 / (dp - d)))


def zeeman_shift(p, sign):
    """Differential shift of the m = +1 or m = -1 Zeeman qubit, rad/s."""
    if sign not in (+1, -1):
        raise ContractViolation("sign must be +1 or -1")
    d, dp, ds, db = p.delta, p.delta_p, p.delta_s, p.delta_b
    _guard(p, {
        f"delta {'+' if sign > 0 else '-'} delta_b": d + sign * db,
        f"delta_p - delta {'-' if sign > 0 else '+'} delta_b":
            dp - d - sign * db,
    })
    om_near = p.omega_minus if sign > 0 else p.omega_plus    # Omega_-/+
    om_far = p.omega_plus if sign > 0 else p.omega_minus
    return (om_near**2 * (1.0 / (d + sign * db)
                          - 1.0 / (dp - d - sign * db)
                          + 1.0 / (dp + ds - d))
            + p.omega_pi**2 * (-1.0 / (dp - d) + 1.0 / (dp + ds - d))
            + om_far**2 / (dp + ds - d))


def ramsey_signal(p, qubit, t):
    """Ramsey probability sin^2(shift * t) times its decay envelopes."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ContractViolation("t must be >= 0")
    d, dp = p.delta, p.delta_p
    if qubit == "clock":
        shift = clock_shift(p)
        env = (np.exp(-p.gamma_clock * p.omega_pi**2 * t / d**2)
               * np.exp(-p.gamma_clock
                        * (p.omega_minus**2 + p.omega_plus**2) * t
                        / (dp - d)**2))
    elif qubit in ("zeeman+", "zeeman-"):
        sign = +1 if qubit == "zeeman+" else -1
        shift = zeeman_shift(p, sign)
        om_near = p.omega_minus if sign > 0 else p.omega_plus
        env = (np.exp(-p.gamma_zeeman * om_near**2 * t
                      / (d + sign * p.delta_b)**2)
               * np.exp(-p.gamma_zeeman * p.omega_pi**2 * t / (dp - d)**2))
    else:
        raise ContractViolation(f"unknown qubit {qubit!r}")
    return np.sin(shift * t)**2 * env


# a fit is flagged non-identifiable when a component's 1-sigma error
# exceeds this fraction of its value
WIDE_SIGMA_FRACTION = 0.5


def _shift_matrix(p):
    """Coefficients of the three shifts in x = (Om+^2, Om-^2, Ompi^2)."""
    d, dp, ds, db = p.delta, p.delta_p, p.delta_s, p.delta_b
    far = 1.0 / (dp + ds - d)
    sigma_clock = far - 1.0 / (dp - d)
    pi_clock = 1.0 / d + far
    pi_zeeman = -1.0 / (dp - d) + far

    def near(sign):
        return (1.0 / (d + sign * db) - 1.0 / (dp - d - sign * db) + far)

    return np.array([
        [sigma_clock, sigma_clock, pi_clock],        # clock
        [far, near(+1), pi_zeeman],                  # zeeman+ (near: Om-)
        [near(-1), far, pi_zeeman],                  # zeeman- (near: Om+)
    ])


def _estimate_oscillation(t, y, env, n_best=3):
    """Candidate |shift| values for y ~ sin^2(shift t) * env.

    Grid search over the resolvable band followed by bounded Brent
    refinement (minimize_scalar) of the n_best separated local minima,
    each between its neighbouring grid points; the true frequency is
    among the candidates as long as the envelope guess is roughly right.
    """
    t = np.asarray(t, dtype=float)
    dt = np.min(np.diff(np.sort(t)))
    w_max = 0.9 * np.pi / dt
    grid = np.linspace(0.0, w_max, max(8 * t.size, 512))

    def cost(w):
        return np.sum((y - np.sin(w * t)**2 * env)**2)

    costs = np.array([cost(w) for w in grid])
    # local minima of the grid cost, best first
    interior = np.r_[False, (costs[1:-1] < costs[:-2])
                     & (costs[1:-1] <= costs[2:]), False]
    idx = np.nonzero(interior)[0]
    idx = idx[np.argsort(costs[idx])][:n_best]
    if idx.size == 0:
        idx = np.array([int(np.argmin(costs))])

    return [minimize_scalar(cost, method="bounded",
                            bounds=(grid[max(i - 1, 0)],
                                    grid[min(i + 1, grid.size - 1)])).x
            for i in idx]


def fit_rabi_components(traces, p0, sigma=None):
    """Joint fit of (Omega_+, Omega_-, Omega_pi) to three Ramsey traces.

    traces is a dict or sequence keyed/ordered as (clock, zeeman+,
    zeeman-), each entry a (t, P) pair sharing the beam parameters of the
    p0 guess.  The oscillation frequency of each trace is estimated
    first; since each shift is linear in the squared components, a 3x3
    linear solve over the possible shift signs seeds the joint nonlinear
    polish, which avoids period-slip local minima.  The p0 components
    are polished last, as the fallback seed; the search stops at the
    first candidate whose residual norm is below 1e-9 of the data scale.
    A candidate whose fit is degenerate is skipped.  Returns a FitResult
    with params in rad/s (positive by convention: the shifts depend on
    Omega^2 only) plus a wide_sigma attribute flagging weakly constrained
    components.
    """
    if isinstance(traces, dict):
        items = [traces[q] for q in QUBITS]
    else:
        items = list(traces)
    if len(items) != 3:
        raise ContractViolation("need exactly three traces "
                                "(clock, zeeman+, zeeman-)")
    t_all, y_all, tags = [], [], []
    for q, (t, y) in zip(QUBITS, items):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        t_all.append(t)
        y_all.append(y)
        tags.append(np.full(t.size, QUBITS.index(q)))
    x = np.arange(sum(t.size for t in t_all), dtype=float)
    t_cat = np.concatenate(t_all)
    tag_cat = np.concatenate(tags)
    y_cat = np.concatenate(y_all)
    sig = np.ones_like(y_cat) if sigma is None else np.concatenate(
        [np.asarray(s, dtype=float) for s in sigma])

    def model(_x, pr):
        pp = p0.replace(omega_plus=abs(pr[0]), omega_minus=abs(pr[1]),
                        omega_pi=abs(pr[2]))
        out = np.empty_like(y_cat)
        for i, q in enumerate(QUBITS):
            sel = tag_cat == i
            out[sel] = ramsey_signal(pp, q, t_cat[sel])
        return out

    # frequency bootstrap: |shift| per trace with envelopes from p0
    w_est = []
    for i, q in enumerate(QUBITS):
        env = np.ones_like(y_all[i])
        base = ramsey_signal(p0, q, t_all[i])
        osc = np.sin((clock_shift(p0) if q == "clock"
                      else zeeman_shift(p0, +1 if q == "zeeman+" else -1))
                     * t_all[i])**2
        np.divide(base, osc, out=env, where=osc > 1e-12)
        w_est.append(_estimate_oscillation(t_all[i], y_all[i], env))
    mat = _shift_matrix(p0)
    candidates = []
    for w0 in w_est[0]:
        for w1 in w_est[1]:
            for w2 in w_est[2]:
                freqs = np.array([w0, w1, w2])
                for signs in ((s0, s1, s2) for s0 in (1, -1)
                              for s1 in (1, -1) for s2 in (1, -1)):
                    try:
                        sq = np.linalg.solve(mat, np.array(signs) * freqs)
                    except np.linalg.LinAlgError:
                        continue
                    if np.all(sq > -1e-6 * max(np.abs(sq).max(), 1.0)):
                        candidates.append(np.sqrt(np.clip(sq, 0.0, None)))
    candidates.append(np.array([p0.omega_plus, p0.omega_minus, p0.omega_pi]))

    best = last_error = None
    seen = []
    for guess in candidates:
        if any(np.allclose(guess, s, rtol=1e-3) for s in seen):
            continue
        seen.append(np.asarray(guess, dtype=float))
        try:
            fr = fit_least_squares(model, (x, y_cat, sig), guess)
        except DegenerateFitError as exc:
            last_error = exc
            continue
        if best is None or fr.residual_norm < best.residual_norm:
            best = fr
        if best.residual_norm < 1e-9 * max(np.abs(y_cat).max(), 1.0):
            break
    if best is None:
        raise ContractViolation("no fit candidate converged") from last_error
    fr = best
    params = np.abs(fr.params)
    wide = bool(np.any(fr.sigma > WIDE_SIGMA_FRACTION
                       * np.maximum(params, 1e-300)))
    res = FitResult(params=params, sigma=fr.sigma,
                    residual_norm=fr.residual_norm,
                    converged=fr.converged, n_iter=fr.n_iter)
    res.wide_sigma = wide
    return res


def b_field_alignment(params):
    """Residual pi fraction Omega_pi / sqrt(Omega_+^2 + Omega_-^2).

    Zero when the quantization field is parallel to the drive beam; used
    as the alignment figure of merit for the drive-beam polarization.
    """
    op, om, opi = params
    denom = np.hypot(op, om)
    if denom == 0:
        raise ContractViolation("sigma components are both zero")
    return opi / denom


def write_json(path, fit, p):
    """Fitted components in MHz with 1-sigma, plus the alignment metric."""
    out = {
        "omega_plus_mhz": float(units.to_mhz(fit.params[0])),
        "omega_minus_mhz": float(units.to_mhz(fit.params[1])),
        "omega_pi_mhz": float(units.to_mhz(fit.params[2])),
        "sigma_mhz": [float(units.to_mhz(s)) for s in fit.sigma],
        "converged": bool(fit.converged),
        "wide_sigma": bool(getattr(fit, "wide_sigma", False)),
        "b_field_alignment": float(b_field_alignment(fit.params)),
        "delta_mhz": float(units.to_mhz(p.delta)),
        "delta_p_mhz": float(units.to_mhz(p.delta_p)),
        "delta_s_mhz": float(units.to_mhz(p.delta_s)),
    }
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
