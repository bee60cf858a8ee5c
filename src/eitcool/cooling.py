"""Double-EIT cooling of one quantized motional mode.

The simulation space is atom (4) x Fock (n_max + 1).  Trajectories use
the shared split propagator and interval loop of lindblad (the exact
no-jump propagator exp(-i H_eff dt), precomputed once per step size,
alternated with a first-order quantum-jump update); the subclass here
only supplies the damped H_eff and a jump update exploiting the block
structure of the decay and heating channels.  That is orders of
magnitude cheaper than explicit stepping at the ~100 MHz rotation scales
of this problem and is cross-validated against the generic Lindblad
integrator in the test suite.
"""

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import units
from .atom4 import (MINUS, PLUS, ZERO, dressed_stark_shift,
                    hamiltonian_rest)
from .lindblad import SplitPropagator, run_intervals
from .numerics import (ContractViolation, DegenerateFitError,
                       fit_least_squares)
from .operators import FockOperators, displacement_exp, thermal_weights


@dataclass
class MotionalMode:
    """One Yb-171 mode seen by counter-propagating 369.5 nm beams along it."""
    nu: float                      # mode angular frequency, rad/s
    n_max: int
    b: np.ndarray = None           # participation vector, unit norm

    def __post_init__(self):
        self.b = np.asarray([1.0] if self.b is None else self.b,
                            dtype=float)
        if abs(np.linalg.norm(self.b) - 1.0) > 1e-10:
            raise ContractViolation("participation vector must be unit norm")
        if not self.nu > 0:
            raise ContractViolation(f"nu must be > 0, got {self.nu!r}")

    @property
    def eta(self):
        """Lamb-Dicke parameter (units.lamb_dicke)."""
        return units.lamb_dicke(self.nu)

    @classmethod
    def from_lab(cls, nu_mhz, n_max, b=None):
        """A mode at nu_mhz, given as nu/(2 pi) in MHz."""
        return cls(nu=units.mhz(nu_mhz), n_max=n_max, b=b)


@dataclass
class CoolingResult:
    times: np.ndarray              # s
    nbar: np.ndarray
    gamma_cool: float              # 1/e rate, 1/s
    tau_cool: float                # 1/e time, s
    n_ss: float                    # fitted limit, clamped to >= 0
    fit_converged: bool
    truncation_flagged: bool
    top_fock_population: float
    max_trace_correction: float    # largest |tr - 1| renormalised away
    n_ss_raw: float                # fitted limit before the clamp


class AllPointsFailedError(RuntimeError):
    """Every point of a detuning scan failed, so it has no minimum."""


# Recoil of each hamiltonian_rest entry for k_d = -k_p along the mode: +1
# for e^(+i k y) (probe absorbed, drive emitted), -1 for e^(-i k y), 0 none.
RECOIL = np.array([[0, -1, +1, -1],
                   [+1, 0, 0, 0],
                   [-1, 0, 0, 0],
                   [+1, 0, 0, 0]])


def hamiltonian_moving(p, m):
    """Moving-ion Hamiltonian on atom x Fock for k_d = -k_p along the mode.

    Each nonzero entry of hamiltonian_rest(p) multiplies the displacement
    operator of its RECOIL, e^(+-i k y) in eta = k sqrt(hbar/2 M nu); the
    free motional term nu a^dag a is added to each diagonal block
    explicitly (the rotating-frame elimination removes only the optical
    frequencies, not the secular motion).
    """
    fock = FockOperators(m.n_max)
    nf = fock.dim
    d_plus = displacement_exp(fock, m.eta)
    disp = {+1: d_plus, -1: d_plus.conj().T, 0: np.eye(nf, dtype=complex)}
    h_rest = hamiltonian_rest(p)
    h = np.zeros((4, nf, 4, nf), dtype=complex)
    for i, j in zip(*np.nonzero(h_rest)):
        h[i, :, j] = h_rest[i, j] * disp[RECOIL[i, j]]
    for i in range(4):
        h[i, :, i] += m.nu * fock.number
    return h.reshape(4 * nf, 4 * nf)


def doppler_initial_state(m, nbar0):
    """Equal internal mixture over {|+>,|0>,|->} times a thermal mode."""
    nf = m.n_max + 1
    w = thermal_weights(m.n_max, nbar0)
    w = w / w.sum()
    rho = np.zeros((4 * nf, 4 * nf), dtype=complex)
    for g in (PLUS, ZERO, MINUS):
        rho[g * nf:(g + 1) * nf, g * nf:(g + 1) * nf] = np.diag(w) / 3.0
    return rho


class _SplitPropagator(SplitPropagator):
    """lindblad.SplitPropagator specialized to the cooling channels.

    Jump channels: three atomic decays (each gamma/3, e-block copied to
    the ground diagonal blocks) and the symmetric heating pair
    sqrt(Gh) a, sqrt(Gh) a^dag, applied via index-shifted views.  Work
    buffers are allocated once, so a step allocates no d x d temporaries.
    """

    def __init__(self, p, m, heating, dt):
        self.nf = nf = m.n_max + 1
        self.gamma = p.gamma
        self.heating = heating
        d = 4 * nf
        # -i/2 sum c^dag c: atomic decay damps the e block
        damp = np.zeros(d)
        damp[:nf] = p.gamma
        if heating > 0:
            fock = FockOperators(m.n_max)
            anti = np.diag(fock.a_dagger @ fock.a + fock.a @ fock.a_dagger)
            damp += heating * np.tile(anti.real, 4)
        super().__init__(hamiltonian_moving(p, m) - 0.5j * np.diag(damp), dt)
        self._decay = np.empty((nf, nf), dtype=complex)
        if heating > 0:
            # On the flattened rho a shift by d + 1 maps (r, c) to
            # (r + 1, c + 1): |n><m| to |n+1><m+1| inside a block pair.  At
            # a block's top Fock level the shift would cross into the next
            # block (or wrap to the next row), so those weights are zero.
            s = np.tile(np.sqrt(np.arange(1, nf + 1, dtype=float)), 4)
            s[nf - 1::nf] = 0.0
            w = (dt * heating * np.outer(s, s)).astype(complex)
            self._heat_w = w.reshape(-1)[:-(d + 1)]
            self._lower = np.empty_like(self._heat_w)
            self._raise = np.empty_like(self._heat_w)

    def jump(self, rho):
        """Decay and heating jumps, in place, both from the no-jump rho."""
        nf = self.nf
        np.multiply(rho[:nf, :nf], self.dt * self.gamma / 3.0,
                    out=self._decay)
        for g in (PLUS, ZERO, MINUS):
            rho[g * nf:(g + 1) * nf, g * nf:(g + 1) * nf] += self._decay
        if self.heating > 0:
            # both terms read the pre-update rho
            flat, k = rho.reshape(-1), rho.shape[0] + 1
            np.multiply(self._heat_w, flat[k:], out=self._lower)
            np.multiply(self._heat_w, flat[:-k], out=self._raise)
            flat[:-k] += self._lower           # a rho a^dag
            flat[k:] += self._raise            # a^dag rho a


def _phonon_stats(rho, nf):
    """(nbar, population of the top two Fock levels) of rho."""
    pops = np.einsum('inin->n', rho.reshape(4, nf, 4, nf)).real
    return float(pops @ np.arange(nf)), float(pops[-2:].sum())


def simulate_cooling(p, m, nbar0, t_list, heating=0.0, dt=2e-9):
    """Cooling trajectory nbar(t) with an exponential-decay fit attached.

    heating is the trap heating rate in quanta/s, modeled as the
    symmetric infinite-temperature pair so dnbar/dt = +heating with the
    beams off.  Each t_list interval is cut into whole steps of about dt
    (lindblad.run_intervals), so every sample lies exactly on its time;
    t_list must be non-decreasing.  The top two Fock populations are
    monitored; the result is flagged when they exceed 1e-3 at any sampled
    time.
    """
    if nbar0 < 0 or heating < 0:
        raise ContractViolation("nbar0 and heating must be >= 0")
    t_list = np.asarray(t_list, dtype=float)
    nf = m.n_max + 1
    stats, worst = run_intervals(
        lambda step: _SplitPropagator(p, m, heating, step),
        doppler_initial_state(m, nbar0), t_list, dt,
        lambda rho: _phonon_stats(rho, nf))
    nbars, tops = np.array(stats).reshape(-1, 2).T
    top_max = float(tops.max(initial=0.0))

    gamma_cool, tau_cool, n_ss_raw, ok = _fit_exponential(t_list, nbars,
                                                          nbar0)
    return CoolingResult(
        times=t_list, nbar=nbars, gamma_cool=gamma_cool, tau_cool=tau_cool,
        n_ss=max(n_ss_raw, 0.0), fit_converged=ok,
        truncation_flagged=top_max > 1e-3, top_fock_population=top_max,
        max_trace_correction=worst, n_ss_raw=n_ss_raw)


def _fit_exponential(t, nbar, nbar0):
    """a exp(-gamma t) + c fit; returns (gamma, tau, c, converged).

    c is the fitted offset as it comes out of the fit, which can be
    negative; without a converged decay it is the last nbar.
    """
    if t.size < 3 or np.ptp(nbar) < 1e-9:
        return 0.0, np.inf, float(nbar[-1]), False
    span = max(t[-1], 1e-12)
    guess = [max(nbar[0] - nbar[-1], 1e-3), span / 5.0, nbar[-1]]

    def model(x, pr):
        a, tau, c = pr
        tau = max(tau, 1e-12)
        e = np.exp(-x / tau)
        return a * e + c, np.column_stack([e, a * x * e / tau**2,
                                           np.ones_like(x)])

    try:
        fr = fit_least_squares(model, (t, nbar, np.ones_like(nbar)), guess)
    except DegenerateFitError:
        # non-decaying trajectory (e.g. heating only): no rate to report
        return 0.0, np.inf, float(nbar[-1]), False
    a, tau, c = fr.params
    if tau <= 0 or not fr.converged:
        return 0.0, np.inf, float(nbar[-1]), False
    return 1.0 / tau, tau, float(c), True


def _openblas_threads(path, suffix):
    """(get, set) thread counts of the OpenBLAS linked into the library at
    path, whose symbols end in suffix, or None if they are not found."""
    lib = ctypes.CDLL(path)
    try:
        return (getattr(lib, "scipy_openblas_get_num_threads" + suffix),
                getattr(lib, "scipy_openblas_set_num_threads" + suffix))
    except AttributeError:
        return None


@functools.cache
def _blas_threads():
    """numpy's OpenBLAS thread counts (_openblas_threads)."""
    return _openblas_threads(np.linalg._umath_linalg.__file__, "64_")


@functools.cache
def _scipy_blas_threads():
    """scipy's own OpenBLAS thread counts (_openblas_threads): expm's."""
    from scipy.linalg import _fblas

    return _openblas_threads(_fblas.__file__, "")


def _workers():
    """One scan run per usable CPU, or 1 where _blas_threads finds none."""
    if _blas_threads() is None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cool_runs(params, m, t_list, nbar0, heating, dt):
    """simulate_cooling at each of params on one thread pool, in order.

    The runs are independent and spend their time in matrix products
    that release the GIL, so they run concurrently on min(_workers(),
    runs) threads, with numpy's and scipy's BLAS (those found) at 1
    thread until the pool is shut down.  Each entry of the returned list
    is the run's CoolingResult or the RuntimeError or LinAlgError it
    raised.  Any other exception propagates, and the runs still queued
    are cancelled.
    """
    blas = [b for b in (_blas_threads(), _scipy_blas_threads()) if b]
    threads = [get_threads() for get_threads, _ in blas]
    for _, set_threads in blas:
        set_threads(1)
    pool = ThreadPoolExecutor(max(1, min(_workers(), len(params))))
    try:
        futures = [pool.submit(simulate_cooling, pi, m, nbar0, t_list,
                               heating=heating, dt=dt) for pi in params]
        outcomes = []
        for fut in futures:
            try:
                outcomes.append(fut.result())
            except (RuntimeError, np.linalg.LinAlgError) as exc:
                outcomes.append(exc)
    finally:
        pool.shutdown(cancel_futures=True)
        for (_, set_threads), n in zip(blas, threads):
            set_threads(n)
    return outcomes


def _at_detunings(p, deltas):
    """p with the drive detuning set to each relative detuning.

    The probe detuning stays fixed and the drive detuning is swept,
    matching how the relative detuning is controlled in the lab.
    """
    return [p.replace(delta_d=p.delta_p - rel) for rel in deltas]


def _finals(outcomes):
    """Final nbar of each of one detuning grid's _cool_runs outcomes.

    A failed point's final nbar is NaN.  Raises AllPointsFailedError,
    chained to the last error, when no point has a finite final nbar.
    """
    errors = [o for o in outcomes if isinstance(o, Exception)]
    finals = np.array([np.nan if isinstance(o, Exception) else o.nbar[-1]
                       for o in outcomes])
    if not np.isfinite(finals).any():
        last_exc = errors[-1] if errors else None
        raise AllPointsFailedError(
            f"all {len(outcomes)} detuning points failed; last error: "
            f"{last_exc!r}") from last_exc
    return finals


def detuning_scan(p, m, deltas, t_fix, nbar0=7.0, heating=0.0, dt=4e-9):
    """Final nbar at t_fix versus relative detuning delta_p - delta_d.

    Returns (deltas, nbar_final, argmin_delta); a point whose run raises
    a RuntimeError or LinAlgError carries NaN, and any other exception
    propagates.  Raises AllPointsFailedError when every point fails.
    """
    deltas = np.asarray(deltas, dtype=float)
    finals = _finals(_cool_runs(_at_detunings(p, deltas), m, [t_fix],
                                nbar0, heating, dt))
    return deltas, finals, float(deltas[np.nanargmin(finals)])


def predicted_optimal_detuning(p, m):
    """delta_B + dressed Stark shift - nu: red sideband on the narrow peak."""
    return p.delta_B + dressed_stark_shift(p) - m.nu


COARSE_HALFWIDTH = units.mhz(0.8)
N_COARSE = 5


def power_scan(p, m, which, powers, nbar0=7.0, heating=0.0,
               t_final=150e-6, n_times=12, dt=4e-9):
    """Cooling rate and limit versus beam power.

    Rabi frequencies scale as sqrt(power), so each power must be finite
    and >= 0.  At each point the relative detuning is re-optimized on
    N_COARSE grid points within COARSE_HALFWIDTH of the dressed
    prediction; the row reports the fit of the grid run with the lowest
    final nbar.  The grid runs of all powers share one task list.
    Returns a list of dicts with keys power, gamma_cool, n_ss, detuning,
    failed; a row is marked failed when its point raises a RuntimeError
    (every grid point failing included) or LinAlgError.  Any other
    exception propagates.
    """
    if which not in ("drive", "probe"):
        raise ContractViolation("which must be 'drive' or 'probe'")
    for s in powers:
        if not (np.isfinite(s) and s >= 0):
            raise ContractViolation(
                f"powers must be finite and >= 0, got {s!r}")
    rows, grids, tasks = [], [], []
    t_list = np.linspace(t_final / n_times, t_final, n_times)
    for s in powers:
        fac = np.sqrt(s)
        if which == "drive":
            pi = p.replace(omega_sigma_plus=p.omega_sigma_plus * fac,
                           omega_sigma_minus=p.omega_sigma_minus * fac)
        else:
            pi = p.replace(omega_pi=p.omega_pi * fac)
        row = {"power": float(s), "gamma_cool": 0.0, "n_ss": np.nan,
               "detuning": np.nan, "failed": False}
        rows.append(row)
        grid = None
        if pi.omega_pi == 0 or (pi.omega_sigma_plus == 0
                                and pi.omega_sigma_minus == 0):
            # no cooling channel at all; rate is zero by construction
            row["n_ss"] = nbar0 + heating * t_final
        else:
            try:
                grid = predicted_optimal_detuning(pi, m) + np.linspace(
                    -COARSE_HALFWIDTH, COARSE_HALFWIDTH, N_COARSE)
                tasks += _at_detunings(pi, grid)
            except (RuntimeError, np.linalg.LinAlgError):
                row["failed"] = True
        grids.append(grid)
    outcomes = _cool_runs(tasks, m, t_list, nbar0, heating, dt)
    start = 0
    for row, grid in zip(rows, grids):
        if grid is None:
            continue
        own = outcomes[start:start + grid.size]
        start += grid.size
        try:
            finals = _finals(own)
        except AllPointsFailedError:
            row["failed"] = True
            continue
        # the grid runs sample the whole t_list, so the argmin's run is
        # the row's trajectory and is not repeated
        best = int(np.nanargmin(finals))
        res = own[best]
        row.update(gamma_cool=res.gamma_cool, n_ss=res.n_ss,
                   detuning=float(grid[best]))
    return rows

