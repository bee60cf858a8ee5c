"""Differential AC-Stark calibration of the beam Rabi components.

Closed-form differential shifts for the clock and Zeeman qubits, the
Ramsey oscillation models with spontaneous-emission decay envelopes, and
a joint three-trace fit that recovers (Omega_+, Omega_-, Omega_pi) from
measured Ramsey data.  Any constant prefactor of the shift formulas is
absorbed into the fitted Rabi scale.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import units
from .numerics import ContractViolation, DegenerateFitError, fit_least_squares

GUARD_BAND = units.mhz(0.5)     # minimum distance to any denominator zero

# Yb-171 splittings, rad/s
P_HYPERFINE = units.mhz(units.YB171_P_HYPERFINE_MHZ)
QUBIT_SPLITTING = units.mhz(units.YB171_QUBIT_SPLITTING_MHZ)

QUBITS = ("clock", "zeeman+", "zeeman-")


class NearResonanceError(ContractViolation):
    """A shift denominator is within the guard band of zero."""


@dataclass
class StarkParams:
    omega_plus: float              # rad/s
    omega_minus: float
    omega_pi: float
    delta: float                   # beam detuning, rad/s
    delta_b: float                 # Zeeman splitting, rad/s
    gamma_clock: float             # clock envelope rate constant, 1/s
    gamma_zeeman: float            # Zeeman envelope rate constant, 1/s

    def __post_init__(self):
        if not (self.gamma_clock >= 0 and self.gamma_zeeman >= 0):
            raise ContractViolation(
                "gamma_clock and gamma_zeeman must be >= 0")

    @classmethod
    def from_mhz(cls, omega_plus, omega_minus, omega_pi, delta, delta_b,
                 gamma_clock, gamma_zeeman):
        return cls(omega_plus=units.mhz(omega_plus),
                   omega_minus=units.mhz(omega_minus),
                   omega_pi=units.mhz(omega_pi),
                   delta=units.mhz(delta), delta_b=units.mhz(delta_b),
                   gamma_clock=gamma_clock, gamma_zeeman=gamma_zeeman)

    def replace(self, **kw):
        return replace(self, **kw)


def _guard(p, extra=()):
    # delta_P is the P hyperfine splitting, delta_S the qubit splitting
    dens = {
        "delta": p.delta,
        "delta_P - delta": P_HYPERFINE - p.delta,
        "delta_P + delta_S - delta": P_HYPERFINE + QUBIT_SPLITTING - p.delta,
    }
    dens.update(extra)
    for name, val in dens.items():
        if abs(val) < GUARD_BAND:
            raise NearResonanceError(
                f"denominator {name} = {units.to_mhz(val):.4f} MHz is "
                f"inside the {units.to_mhz(GUARD_BAND):.2f} MHz guard band")


def _coefficients(p, qubit):
    """(shift_row, decay_row) of one qubit in x = (Om+^2, Om-^2, Ompi^2).

    The qubit's differential shift is shift_row @ x in rad/s and its
    Ramsey envelope exp(-(decay_row @ x) t); the denominators of this
    qubit are guarded first.
    """
    d, dp, ds, db = p.delta, P_HYPERFINE, QUBIT_SPLITTING, p.delta_b
    if qubit == "clock":
        _guard(p)
        far = 1.0 / (dp + ds - d)
        sigma = far - 1.0 / (dp - d)
        sigma_decay = p.gamma_clock / (dp - d)**2
        return (np.array([sigma, sigma, 1.0 / d + far]),
                np.array([sigma_decay, sigma_decay, p.gamma_clock / d**2]))
    if qubit not in ("zeeman+", "zeeman-"):
        raise ContractViolation(f"unknown qubit {qubit!r}")
    sign = +1 if qubit == "zeeman+" else -1
    _guard(p, {
        f"delta {'+' if sign > 0 else '-'} delta_b": d + sign * db,
        f"delta_P - delta {'-' if sign > 0 else '+'} delta_b":
            dp - d - sign * db,
    })
    far = 1.0 / (dp + ds - d)
    near = 1.0 / (d + sign * db) - 1.0 / (dp - d - sign * db) + far
    near_decay = p.gamma_zeeman / (d + sign * db)**2
    # the near-detuned component is Om- for zeeman+ and Om+ for zeeman-
    shift = [far, near] if sign > 0 else [near, far]
    decay = [0.0, near_decay] if sign > 0 else [near_decay, 0.0]
    return (np.array(shift + [far - 1.0 / (dp - d)]),
            np.array(decay + [p.gamma_zeeman / (dp - d)**2]))


def _squares(p):
    return np.array([p.omega_plus, p.omega_minus, p.omega_pi])**2


def _rates(p, qubit):
    """(shift, envelope rate) of one qubit: its two rows times x, each
    rounded once (math.fsum), independent of BLAS summation order."""
    x = _squares(p)
    return tuple(math.fsum(row * x) for row in _coefficients(p, qubit))


def shift(p, qubit):
    """Differential shift of one qubit of QUBITS, rad/s."""
    return _rates(p, qubit)[0]


def ramsey_signal(p, qubit, t):
    """Ramsey probability sin^2(shift * t) times its decay envelopes."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ContractViolation("t must be >= 0")
    shift, rate = _rates(p, qubit)
    return np.sin(shift * t)**2 * np.exp(-rate * t)


# a fit is flagged non-identifiable when a component's 1-sigma error
# exceeds this fraction of its value
WIDE_SIGMA_FRACTION = 0.5


# grid frequencies per block (B) and blocks per chunk (rows) of the
# factorised grid cost: fixed, so the working set stays at about
# 2 (B + rows) len(t) complex values, 0.6 MB at 1,200 samples
_GRID_BLOCK = 8
_GRID_ROWS = 8


def _grid_costs(t, y, env, step, n_grid):
    """cost(w_k) = sum (y - sin^2(w_k t) env)^2 at w_k = k step, k < n_grid.

    With sin^2 and sin^4 reduced to cosines the cost is
    C + sum a cos(2 w t) + sum b cos(4 w t), a = y env - env^2 / 2,
    b = env^2 / 8, C = sum y^2 - sum y env + 3/8 sum env^2.  Writing
    k = (c + i) B + j factorises exp(2i w_k t) = R_c(t) V_i(t) Z_j(t):
    each chunk of rows x B grid costs is the real part of two small
    matrix products, R_c V against Z weighted by a and its square
    against Z^2 weighted by b.  R_c advances by one complex multiply per
    chunk, so the exponentials per trace drop from n_grid len(t) to
    (B + rows + 1) len(t).  t need not be sorted or uniform.
    """
    a = y * env - 0.5 * env**2
    b = 0.125 * env**2
    const = y @ y - y @ env + 0.375 * (env @ env)
    z = np.exp(2j * step * np.outer(np.arange(_GRID_BLOCK), t))
    za = (z * a).T
    z *= z
    z *= b
    zb = z.T
    v = np.exp(2j * (_GRID_BLOCK * step)
               * np.outer(np.arange(_GRID_ROWS), t))
    u = np.exp(2j * (_GRID_ROWS * _GRID_BLOCK * step) * t)
    row = np.ones_like(u)                       # R_c
    n_chunks = -(-n_grid // (_GRID_BLOCK * _GRID_ROWS))
    costs = np.empty((n_chunks, _GRID_ROWS, _GRID_BLOCK))
    r = np.empty_like(v)
    for k in range(n_chunks):
        np.multiply(v, row, out=r)
        row *= u
        part = r @ za
        r *= r                                  # exp(4i w t) factors
        part += r @ zb
        costs[k] = const + part.real
    return costs.reshape(-1)[:n_grid]


def _estimate_oscillation(t, y, env):
    """Candidate |shift| values for y ~ sin^2(shift t) * env.

    Grid search over the resolvable band, evaluated in fixed-size chunks
    of factorised cosine sums (_grid_costs), followed by bounded Brent
    refinement (minimize_scalar) of the three best separated local minima,
    each between its neighbouring grid points on the direct cost; the
    true frequency is among the candidates as long as the envelope guess
    is roughly right.
    """
    t = np.asarray(t, dtype=float)
    dt = np.min(np.diff(np.unique(t)))
    w_max = 0.9 * np.pi / dt
    n_grid = max(8 * t.size, 512)
    grid = np.linspace(0.0, w_max, n_grid)

    def cost(w):
        return np.sum((y - np.sin(w * t)**2 * env)**2)

    costs = _grid_costs(t, y, env, w_max / (n_grid - 1), n_grid)
    # local minima of the grid cost, best first
    interior = np.r_[False, (costs[1:-1] < costs[:-2])
                     & (costs[1:-1] <= costs[2:]), False]
    idx = np.nonzero(interior)[0]
    idx = idx[np.argsort(costs[idx])][:3]
    if idx.size == 0:
        idx = np.array([int(np.argmin(costs))])

    from scipy.optimize import minimize_scalar

    return [minimize_scalar(cost, method="bounded",
                            bounds=(grid[max(i - 1, 0)],
                                    grid[min(i + 1, grid.size - 1)])).x
            for i in idx]


def fit_rabi_components(traces, p0):
    """Joint fit of (Omega_+, Omega_-, Omega_pi) to three Ramsey traces.

    traces is a sequence ordered as (clock, zeeman+, zeeman-), each
    entry a (t, P) pair sharing the beam parameters of the p0 guess.
    The oscillation frequency of each trace is estimated first; since
    each shift is linear in the squared components, a 3x3 linear solve
    over the possible shift signs seeds the joint nonlinear polish,
    which avoids period-slip local minima.  The p0 components are
    polished last, as the fallback seed; the search stops at the first
    candidate whose residual norm is below 1e-9 of the data scale.
    A candidate whose fit is degenerate is skipped.  Returns a FitResult
    with params in rad/s (positive by convention: the shifts depend on
    Omega^2 only) plus a wide_sigma attribute flagging weakly constrained
    components.
    """
    items = list(traces)
    if len(items) != 3:
        raise ContractViolation("need exactly three traces "
                                "(clock, zeeman+, zeeman-)")
    t_all = [np.asarray(t, dtype=float) for t, _ in items]
    if any(np.unique(t).size < 2 for t in t_all):
        raise ContractViolation("each trace needs at least 2 distinct times")
    y_all = [np.asarray(y, dtype=float) for _, y in items]
    t_cat = np.concatenate(t_all)
    y_cat = np.concatenate(y_all)
    tag_cat = np.repeat(np.arange(len(QUBITS)), [t.size for t in t_all])
    sig = np.ones_like(y_cat)

    # detuning-only rows, fixed by p0; the fit varies only x
    mat, decay = map(np.array, zip(*(_coefficients(p0, q) for q in QUBITS)))

    def model(t, pr):
        # shift and rate are linear in x = pr^2: d/dpr_k = 2 pr_k d/dx_k
        sq = pr * pr
        phase = (mat @ sq)[tag_cat] * t
        env = np.exp(-(decay @ sq)[tag_cat] * t)
        y = np.sin(phase)**2 * env
        dx = t[:, None] * ((np.sin(2.0 * phase) * env)[:, None]
                           * mat[tag_cat] - y[:, None] * decay[tag_cat])
        return y, 2.0 * pr * dx

    # frequency bootstrap: |shift| per trace with envelopes from p0; every
    # (frequency triple, sign pattern) seed is one column of a single
    # solve, since mat does not depend on the seed
    w_est = [_estimate_oscillation(t, y, np.exp(-_rates(p0, q)[1] * t))
             for q, t, y in zip(QUBITS, t_all, y_all)]
    freqs = np.array(list(itertools.product(*w_est)))
    signs = np.array(list(itertools.product((1, -1), repeat=3)))
    rhs = (freqs[:, None, :] * signs).reshape(-1, 3)
    try:
        sq = np.linalg.solve(mat, rhs.T).T
    except np.linalg.LinAlgError:
        sq = np.empty((0, 3))
    keep = np.all(sq > -1e-6 * np.maximum(
        np.abs(sq).max(axis=1, keepdims=True), 1.0), axis=1)
    candidates = list(np.sqrt(np.clip(sq[keep], 0.0, None)))
    candidates.append(np.array([p0.omega_plus, p0.omega_minus, p0.omega_pi]))

    best = last_error = None
    seen = []
    for guess in candidates:
        if any(np.allclose(guess, s, rtol=1e-3) for s in seen):
            continue
        seen.append(np.asarray(guess, dtype=float))
        try:
            fr = fit_least_squares(model, (t_cat, y_cat, sig), guess)
        except DegenerateFitError as exc:
            last_error = exc
            continue
        if best is None or fr.residual_norm < best.residual_norm:
            best = fr
        if best.residual_norm < 1e-9 * max(np.abs(y_cat).max(), 1.0):
            break
    if best is None:
        raise ContractViolation("no fit candidate converged") from last_error
    res = replace(best, params=np.abs(best.params))
    res.wide_sigma = bool(np.any(res.sigma > WIDE_SIGMA_FRACTION
                                 * np.maximum(res.params, 1e-300)))
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
