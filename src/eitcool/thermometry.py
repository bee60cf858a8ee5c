"""Sideband and optical-dipole-force (ODF) thermometry.

Sideband protocol: unitary red/blue sideband flopping from Fock states,
thermal weighting of the Fock-resolved traces, and mean-phonon-number
extraction either by fitting a full trace or by inverting the red/blue
ratio at the blue pi time.  ODF protocol: closed-form spin-motion
displacement amplitudes, the dephasing spectrum they imply, the height
method that inverts a single spectrum point to nbar, and heating-rate
line fits.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import units
from .numerics import ContractViolation, FitResult, fit_least_squares
from .operators import TruncationWarning, thermal_weights


class CapacityError(RuntimeError):
    """The stacked sideband blocks would exceed BLOCK_ENTRY_LIMIT."""


class UnphysicalRatioError(ValueError):
    """Red/blue ratio at or above 1 cannot come from a thermal state."""


class InversionRangeError(ValueError):
    """Measured height lies outside the invertible model range."""


BLOCK_ENTRY_LIMIT = 2**24          # stacked (n_max + 1) * C^2 floats


@dataclass
class SidebandParams:
    """Raman sideband drive addressing one motional mode.

    rabi holds the per-ion carrier Rabi frequencies Omega_j (rad/s), one
    per entry of the mode's participation vector b, or one value for all
    of them; the effective sideband coupling of ion j is
    eta_m * b_j * Omega_j with eta_m the mode's Lamb-Dicke parameter.
    """
    mode: object                   # MotionalMode (cooling.MotionalMode)
    rabi: np.ndarray               # per-ion Omega_j, rad/s

    def __post_init__(self):
        self.rabi = np.atleast_1d(np.asarray(self.rabi, dtype=float))
        if self.rabi.size == 1:
            self.rabi = np.full(self.n_spins, self.rabi[0])
        if self.rabi.size != self.n_spins:
            raise ContractViolation("need one Rabi frequency per spin")
        if np.any(self.rabi < 0):
            raise ContractViolation("rabi must be >= 0")

    @property
    def n_spins(self):
        """Number of addressed ions, fixed by the mode's participation."""
        return self.mode.b.size

    @property
    def couplings(self):
        """Effective sideband rates eta_m * b_j * Omega_j, rad/s."""
        return self.mode.eta * self.mode.b * self.rabi

    def blue_pi_time(self):
        """pi time of the n = 0 blue flop for the most strongly coupled
        ion, pi / max_j |g_j|; positive whatever the sign of b_j."""
        g0 = np.abs(self.couplings).max()
        if g0 == 0:
            raise ContractViolation("all sideband couplings are zero")
        return np.pi / g0


class _SidebandModel:
    """Cached block eigensystems for P_up(t, n) tables of one sideband drive.

    The drive conserves Q = n_phonon - n_up (blue) or n_phonon + n_up
    (red), so the initial state |down...down> x |n> evolves inside the
    block Q = n alone.  Each block is built directly over the spin
    configurations, all-down first: the N + 1 Dicke levels when the
    couplings are equal (to 1e-9 relative), the 2^N up-spin subsets
    otherwise.  Configuration c sits at phonon number m_c = n + up_c
    (blue) or n - up_c (red); one with m_c outside 0..n_max is a
    decoupled zero row of weight 0, orthogonal to psi0.
    Each spin-raising link with ladder factor f couples its two
    configurations with f * sqrt(max(m_lo, m_hi)) / 2.  The n_max + 1
    blocks are diagonalized in one stacked eigh, psi0 first in each.

    The Hamiltonian is linear in an overall Rabi scale, so a table at
    scaled couplings s*g equals the unit table sampled at s*t; fitters
    exploit this to avoid re-diagonalizing.
    """

    def __init__(self, p, side):
        if side not in ("red", "blue"):
            raise ContractViolation("side must be 'red' or 'blue'")
        nf = p.mode.n_max + 1
        n = p.n_spins
        g = p.couplings
        symmetric = np.ptp(g) <= 1e-9 * max(np.abs(g).max(), 1e-300)
        n_conf = n + 1 if symmetric else 2**n
        if nf * n_conf**2 > BLOCK_ENTRY_LIMIT:
            raise CapacityError(
                f"{nf} blocks of {n_conf}^2 entries exceed "
                f"{BLOCK_ENTRY_LIMIT}")
        if symmetric:
            # Dicke levels: J+ |k> = sqrt((k + 1)(N - k)) |k + 1>
            up = np.arange(n + 1)
            lo = up[:-1]
            hi = lo + 1
            f = g[0] * np.sqrt((lo + 1) * (n - lo))
        else:
            # bit j of configuration c set = spin j up
            bits = (np.arange(n_conf)[:, None] >> np.arange(n)) & 1
            up = bits.sum(axis=1)
            lo, j = np.nonzero(bits == 0)
            hi = lo | (1 << j)
            f = g[j]
        m = np.arange(nf)[:, None] + (up if side == "blue" else -up)
        inside = (m >= 0) & (m < nf)
        link = (0.5 * f * np.sqrt(np.maximum(m[:, lo], m[:, hi]).clip(0))
                * (inside[:, lo] & inside[:, hi]))
        hb = np.zeros((nf, n_conf, n_conf))
        hb[:, lo, hi] = link
        hb[:, hi, lo] = link
        self.weight = np.where(inside, up / n, 0.0)
        self.evals, self.evecs = np.linalg.eigh(hb)

    def table(self, t, slope=False):
        """P_up(t, n) for n = 0..n_max; shape (n_max + 1, len(t)).

        With slope, returns (P_up, dP_up/dt) from the same eigenphases:
        amp = V (c e^(-i lambda t)) and d|amp|^2/dt = 2 Re(amp^* V (c
        (-i lambda) e^(-i lambda t))) = 2 Im(amp^* V (c lambda e^(-i
        lambda t))), c the overlaps with psi0.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        # <evecs|psi0> is the first row of each (real) block eigenbasis
        c = self.evecs[:, 0, :, None] * np.exp(
            -1j * self.evals[:, :, None] * t)                 # (nf, b, nt)
        amp = self.evecs @ c
        tab = np.einsum("nb,nbt->nt", self.weight, np.abs(amp)**2)
        if not slope:
            return tab
        d = self.evecs @ (self.evals[:, :, None] * c)
        return tab, 2.0 * np.einsum("nb,nbt->nt", self.weight,
                                    amp.real * d.imag - amp.imag * d.real)


def sideband_populations(p, side, t):
    """Per-spin-averaged P_up under the red or blue sideband drive.

    Row n of the returned (n_max + 1, len(t)) table starts from
    |down...down> x |n>.  Equal couplings take the Dicke path, unequal
    ones the dense one; CapacityError when the blocks exceed
    BLOCK_ENTRY_LIMIT.
    """
    return _SidebandModel(p, side).table(t)


def thermal_average(p_table, nbar):
    """Thermal mixture of Fock-resolved traces, one value per time.

    sum_n w_n P(t, n) with geometric weights nbar^n/(nbar+1)^(n+1),
    renormalized over the truncated table; warns when the dropped tail
    exceeds 1e-3.
    """
    p_table = np.atleast_2d(np.asarray(p_table, dtype=float))
    n_max = p_table.shape[0] - 1
    w = thermal_weights(n_max, nbar)
    held = w.sum()
    if 1.0 - held > 1e-3:
        warnings.warn(
            f"thermal tail beyond n_max={n_max} holds {1.0 - held:.3e} "
            "of the weight", TruncationWarning)
    return (w / held) @ p_table


def _thermal_mix(n_max, nbar):
    """Renormalized thermal weights w over n = 0..n_max, and dw/dnbar.

    w_n is proportional to q^n, q = nbar / (nbar + 1), so dw/dnbar =
    g - w sum(g) with g_n = (n w_(n-1) - (n + 1) w_n) / (nbar + 1),
    written through w_(n-1) so that it stays finite at nbar = 0.
    nbar dw/dnbar equals w (l - w.l), l_n = n - (n + 1) nbar / (nbar + 1).
    """
    w = thermal_weights(n_max, nbar)
    w /= w.sum()
    n = np.arange(n_max + 1)
    g = -(n + 1) * w
    g[1:] += n[1:] * w[:-1]
    g /= nbar + 1.0
    return w, g - w * g.sum()


def fit_nbar_trace(data, p):
    """Extract nbar from a blue-sideband trace by thermal least squares.

    data is (t, P_up) or (t, P_up, sigma).  Free parameters are
    nbar = e^u (positivity built in) and an overall Rabi scale, both
    started at 1; the returned FitResult carries params (nbar, scale)
    with 1-sigma errors propagated through the exponential.
    """
    if len(data) == 2:
        t, y = np.asarray(data[0], float), np.asarray(data[1], float)
        sig = np.ones_like(y)
    else:
        t, y, sig = (np.asarray(v, float) for v in data)
    if t.max() < p.blue_pi_time():
        raise ContractViolation("trace must span at least one pi time")
    model = _SidebandModel(p, "blue")

    def f(x, pr):
        nbar, scale = np.exp(pr)
        tab, slope = model.table(scale * x, slope=True)
        w, dw = _thermal_mix(p.mode.n_max, nbar)
        return w @ tab, np.column_stack([nbar * (dw @ tab),
                                         scale * x * (w @ slope)])

    fr = fit_least_squares(f, (t, y, sig), [0.0, 0.0])
    nbar, scale = np.exp(fr.params)
    sigma = np.array([nbar * fr.sigma[0], scale * fr.sigma[1]])
    return FitResult(params=np.array([nbar, scale]), sigma=sigma,
                     residual_norm=fr.residual_norm,
                     converged=fr.converged, n_iter=fr.n_iter)


def _model_ratio(p, t):
    """nbar -> (thermal red/blue population ratio at time t, its nbar
    slope); t defaults to the blue pi time."""
    if t is None:
        t = p.blue_pi_time()
    red = _SidebandModel(p, "red").table([t])[:, 0]
    blue = _SidebandModel(p, "blue").table([t])[:, 0]

    def model_ratio(nbar):
        w, dw = _thermal_mix(p.mode.n_max, nbar)
        ratio = (w @ red) / (w @ blue)
        return ratio, (dw @ red - ratio * (dw @ blue)) / (w @ blue)
    return model_ratio


def fit_nbar_ratio(p_red, p_blue, p, t=None):
    """Invert the red/blue population ratio at time t to nbar.

    t defaults to the blue pi time.  The ratio of thermally averaged
    sideband populations at a fixed time is monotone in nbar; Brent's
    method (brentq) finds it on [0, n_cap], n_cap = n_max / 2, to 1e-6.
    """
    if p_blue <= 0:
        raise ContractViolation("blue-sideband population must be > 0")
    ratio = p_red / p_blue
    if ratio >= 1.0:
        raise UnphysicalRatioError(
            f"red/blue ratio {ratio:.3f} >= 1 is outside the thermal model "
            "(noise floor)")
    if ratio <= 0:
        return 0.0
    model_ratio = _model_ratio(p, t)
    n_cap = p.mode.n_max / 2.0
    if ratio > model_ratio(n_cap)[0]:
        raise InversionRangeError(
            f"ratio {ratio:.3f} exceeds the model at nbar = {n_cap:.1f}; "
            "raise n_max")
    from scipy.optimize import brentq

    return brentq(lambda nbar: model_ratio(nbar)[0] - ratio, 0.0, n_cap,
                  xtol=1e-6)


def ratio_nbar_sigma(nbar, p_red, p_blue, sigma_red, sigma_blue, p, t=None):
    """1-sigma error of a ratio-method nbar estimate (delta method).

    Propagates the measurement errors of the two populations through the
    inverse slope of the model ratio curve at the fitted nbar, taken
    analytically from the thermal weights (nbar = 0 included).
    """
    ratio = p_red / p_blue
    sigma_ratio = np.hypot(sigma_red, ratio * sigma_blue) / p_blue
    return float(sigma_ratio / _model_ratio(p, t)(nbar)[1])


@dataclass
class OdfParams:
    """Spin-echo ODF sequence parameters.

    rabi is the per-ion carrier Rabi frequency (a scalar calibrated on a
    single ion applies to all ions); mu_r is one Raman detuning or an
    array of them.
    """
    rabi: np.ndarray               # Omega_j, rad/s (scalar broadcast)
    mu_r: float                    # Raman detuning(s), rad/s
    tau: float                     # ODF arm duration, s
    tau_pi: float = 0.0            # spin-echo pi time, s
    gamma_d: float = 0.0           # background decoherence, 1/s

    def __post_init__(self):
        self.rabi = np.atleast_1d(np.asarray(self.rabi, dtype=float))
        if self.tau < 0 or self.tau_pi < 0:
            raise ContractViolation("tau and tau_pi must be >= 0")
        if self.gamma_d < 0:
            raise ContractViolation("gamma_d must be >= 0")


def odf_alpha(o, mode, j=0):
    """Residual spin-motion displacement of ion j for one mode.

    mode is (omega_m, b_j) for that ion.  omega_m, b_j and j broadcast
    against each other; the result has shape(o.mu_r) followed by their
    broadcast shape.  The closed form has a removable singularity at
    mu_r = omega_m; within 1e-6 relative of the pole the first-order
    series (which vanishes linearly at resonance, the echo cancelling
    the resonant displacement) is used instead.
    """
    w, b_j = (np.asarray(v, dtype=float) for v in mode)
    if not np.all(w > 0):
        raise ContractViolation("mode frequency must be positive")
    rabi = o.rabi[j] if o.rabi.size > 1 else o.rabi[0]
    amp = rabi * b_j * units.lamb_dicke(w)
    mu = np.reshape(o.mu_r, np.shape(o.mu_r) + (1,) * np.ndim(amp))
    tau, s = o.tau, o.tau + o.tau_pi
    delta = mu - w
    bracket = (0.5 * np.sin(2.0 * w * tau) - w * tau
               + 1j * np.sin(w * tau)**2)
    series = amp * delta * s * bracket / (2.0 * w)
    phi = s * delta
    num = (w * (1.0 - np.cos(phi)) + 1j * mu * np.sin(phi)
           - np.exp(1j * w * tau)
           * (w * (np.cos(mu * tau) - np.cos(mu * tau + phi))
              - 1j * mu * (np.sin(mu * tau) - np.sin(mu * tau + phi))))
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = amp * num / (mu**2 - w**2)
    return np.where(np.abs(delta) < 1e-6 * w, series, closed)[()]


def _odf_alpha2(o, modes):
    """|alpha_jm|^2 over ions x modes (per detuning for an array mu_r)."""
    freqs = np.asarray(modes.frequencies, dtype=float)
    b = np.asarray(modes.b_matrix, dtype=float)
    if o.rabi.size not in (1, b.shape[0]):
        raise ContractViolation("need one Rabi frequency, or one per ion")
    alpha = odf_alpha(o, (freqs, b), np.arange(b.shape[0])[:, None])
    return np.abs(alpha)**2


def odf_signal(o, modes, nbars):
    """Per-ion ODF Ramsey population.

    P_up_j = 1/2 [1 - e^(-2 gamma_d tau)
                  exp(-2 sum_m |alpha_jm|^2 (2 nbar_m + 1))]
    modes is a ModeDecomposition (or anything with .frequencies and
    .b_matrix); nbars is the per-mode occupation.  Returns shape
    (n_ions,) for a scalar o.mu_r and one such row per detuning for an
    array.
    """
    nbars = np.asarray(nbars, dtype=float)
    if nbars.size != np.size(modes.frequencies):
        raise ContractViolation("need one nbar per mode")
    acc = np.sum(_odf_alpha2(o, modes) * (2.0 * nbars + 1.0), axis=-1)
    return 0.5 * (1.0 - np.exp(-2.0 * o.gamma_d * o.tau)
                  * np.exp(-2.0 * acc))


def odf_height_to_nbar(height, o, modes, calibration=None, mode_index=None,
                       ion_index=0, nbar_hi=200.0):
    """Invert one ODF spectrum point to the target-mode occupation.

    The other modes hold the occupations given in calibration (default
    0), so odf_signal's exponent is c + 2 |alpha_t|^2 nbar for target
    mode t (default: the highest-frequency, COM, mode), and
    nbar = (-1/2 ln((1 - 2 h) / e^(-2 gamma_d tau)) - c) / (2 |alpha_t|^2).
    InversionRangeError when the height does not depend on nbar
    (|alpha_t|^2 = 0 to rounding) or lies outside those of [0, nbar_hi].
    """
    if np.ndim(o.mu_r):
        raise ContractViolation("height inversion needs one detuning mu_r")
    a2 = _odf_alpha2(o, modes)[ion_index]
    if mode_index is None:
        mode_index = int(np.argmax(modes.frequencies))
    nb = np.zeros(a2.size)
    for m, v in dict(calibration or {}).items():
        nb[int(m)] = v
    nb[mode_index] = 0.0
    c, target = np.sum(a2 * (2.0 * nb + 1.0)), a2[mode_index]
    background = np.exp(-2.0 * o.gamma_d * o.tau)
    lo_val, hi_val = 0.5 * (1.0 - background * np.exp(
        -2.0 * (c + 2.0 * target * np.array([0.0, nbar_hi]))))
    if not hi_val > lo_val:
        raise InversionRangeError(
            f"mode {mode_index} does not displace ion {ion_index}")
    if not lo_val <= height <= hi_val:
        raise InversionRangeError(
            f"height {height:.4f} outside invertible range "
            f"[{lo_val:.4f}, {hi_val:.4f}]")
    return float((-0.5 * np.log((1.0 - 2.0 * height) / background) - c)
                 / (2.0 * target))


def heating_rate_fit(delays, nbars):
    """Linear fit nbar(t) = n0 + rate * t.

    Returns a FitResult whose params are (n0, rate in quanta/s) with
    1-sigma errors.
    """
    delays = np.asarray(delays, dtype=float)
    nbars = np.asarray(nbars, dtype=float)
    if delays.size < 3:
        raise ContractViolation("need at least 3 delay points")
    span = max(delays.max(), 1e-12)

    def line(x, pr):
        return pr[0] + pr[1] * x, np.column_stack([np.ones_like(x), x])

    guess = [nbars[0], (nbars[-1] - nbars[0]) / span]
    return fit_least_squares(line, (delays, nbars, np.ones_like(nbars)),
                             guess)


def expected_projection_sigma(p_model, shots=200):
    """Expected projection-noise scale of a model probability trace."""
    p_model = np.clip(np.asarray(p_model, dtype=float), 0.0, 1.0)
    return np.sqrt(np.clip(p_model * (1.0 - p_model), 0.25 / shots, None)
                   / shots)

