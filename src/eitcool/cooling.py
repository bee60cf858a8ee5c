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
from .operators import (FockOperators, default_n_max, displacement_exp,
                        thermal_weights)


@dataclass
class MotionalMode:
    """One harmonic mode seen by counter-propagating beams along it."""
    nu: float                      # mode angular frequency, rad/s
    mass: float                    # ion mass, kg
    k_mag: float                   # effective wavevector magnitude, 1/m
    n_max: int
    b: np.ndarray = None           # participation vector, unit norm

    def __post_init__(self):
        if self.b is None:
            self.b = np.array([1.0])
        self.b = np.asarray(self.b, dtype=float)
        norm = np.linalg.norm(self.b)
        if abs(norm - 1.0) > 1e-10:
            raise ContractViolation("participation vector must be unit norm")
        if self.nu <= 0 or self.mass <= 0 or self.k_mag <= 0:
            raise ContractViolation("nu, mass, k_mag must be positive")

    @property
    def eta(self):
        """Lamb-Dicke parameter k sqrt(hbar / (2 M nu))."""
        return self.k_mag * np.sqrt(
            units.HBAR / (2.0 * self.mass * self.nu))

    @classmethod
    def from_lab(cls, nu_mhz, mass_amu=units.YB171_MASS_AMU,
                 wavelength_nm=units.YB171_S_P_WAVELENGTH_NM, n_max=None,
                 nbar0=7.0, b=None):
        nu = units.mhz(nu_mhz)
        if n_max is None:
            n_max = default_n_max(nbar0)
        return cls(nu=nu, mass=mass_amu * units.AMU,
                   k_mag=2.0 * np.pi / (wavelength_nm * 1e-9),
                   n_max=n_max, b=b)


@dataclass
class CoolingResult:
    times: np.ndarray              # s
    nbar: np.ndarray
    gamma_cool: float              # 1/e rate, 1/s
    tau_cool: float                # 1/e time, s
    n_ss: float                    # fitted limit, clamped to >= 0
    heating_rate: float            # quanta/s used in the model
    fit_converged: bool = True
    truncation_flagged: bool = False
    top_fock_population: float = 0.0
    max_trace_correction: float = 0.0   # largest |tr - 1| renormalised away
    n_ss_raw: float = np.nan       # fitted limit before the clamp


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
        n_ss=max(n_ss_raw, 0.0), heating_rate=heating, fit_converged=ok,
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
        return pr[0] * np.exp(-x / max(pr[1], 1e-12)) + pr[2]

    try:
        fr = fit_least_squares(model, (t, nbar, np.ones_like(nbar)), guess)
    except DegenerateFitError:
        # non-decaying trajectory (e.g. heating only): no rate to report
        return 0.0, np.inf, float(nbar[-1]), False
    a, tau, c = fr.params
    if tau <= 0 or not fr.converged:
        return 0.0, np.inf, float(nbar[-1]), False
    return 1.0 / tau, tau, float(c), True


def _cpu_count():
    """CPUs this process may run on (all of them where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cool_runs(params, m, t_list, nbar0, heating, dt, jobs):
    """simulate_cooling at each of params on one thread pool, in order.

    The runs are independent and spend their time in matrix products
    that release the GIL, so they run concurrently on min(jobs, runs)
    workers; jobs None means one per CPU.  Each entry of the returned
    list is the run's CoolingResult or the RuntimeError or LinAlgError it
    raised.  Any other exception propagates, and the runs still queued
    are cancelled.
    """
    if jobs is None:
        jobs = _cpu_count()
    if jobs < 1:
        raise ContractViolation(f"jobs must be >= 1, got {jobs}")
    pool = ThreadPoolExecutor(max_workers=max(1, min(jobs, len(params))))
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


def detuning_scan(p, m, deltas, t_fix, nbar0=7.0, heating=0.0, dt=4e-9,
                  jobs=None):
    """Final nbar at t_fix versus relative detuning delta_p - delta_d.

    Returns (deltas, nbar_final, argmin_delta); a point whose run raises
    a RuntimeError or LinAlgError carries NaN, and any other exception
    propagates.  Raises AllPointsFailedError when every point fails.
    The points run on jobs threads (None: one per CPU).
    """
    deltas = np.asarray(deltas, dtype=float)
    finals = _finals(_cool_runs(_at_detunings(p, deltas), m, [t_fix],
                                nbar0, heating, dt, jobs))
    return deltas, finals, float(deltas[np.nanargmin(finals)])


def predicted_optimal_detuning(p, m):
    """delta_B + dressed Stark shift - nu: red sideband on the narrow peak."""
    return p.delta_B + dressed_stark_shift(p) - m.nu


def power_scan(p, m, which, powers, nbar0=7.0, heating=0.0,
               t_final=150e-6, n_times=12, coarse_halfwidth=None,
               n_coarse=5, dt=4e-9, jobs=None):
    """Cooling rate and limit versus beam power.

    Rabi frequencies scale as sqrt(power).  At each point the relative
    detuning is re-optimized on a coarse grid centered on the dressed
    prediction; the row reports the fit of the grid run with the lowest
    final nbar.  The grid runs of all powers share one task list on jobs
    threads (None: one per CPU).  Returns a list of dicts with keys
    power, gamma_cool, n_ss, detuning, failed; a row is marked failed
    when its point raises a RuntimeError (every grid point failing
    included) or LinAlgError.  Any other exception propagates.
    """
    if which not in ("drive", "probe"):
        raise ContractViolation("which must be 'drive' or 'probe'")
    if coarse_halfwidth is None:
        coarse_halfwidth = units.mhz(0.8)
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
                    -coarse_halfwidth, coarse_halfwidth, n_coarse)
                tasks += _at_detunings(pi, grid)
            except (RuntimeError, np.linalg.LinAlgError):
                row["failed"] = True
        grids.append(grid)
    outcomes = _cool_runs(tasks, m, t_list, nbar0, heating, dt, jobs)
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


def com_mode_for_crystal(n_ions, nu_mhz, **kw):
    """COM mode of an N-ion crystal: uniform participation 1/sqrt(N).

    Multi-ion COM cooling reuses the single-ion model: the per-ion
    coupling eta/sqrt(N) and the N independent scatterers cancel in the
    rate (eta^2 N), so rates and limits track the single-ion run.  This
    is a documented approximation, not a derivation.
    """
    b = np.full(n_ions, 1.0 / np.sqrt(n_ions))
    return MotionalMode.from_lab(nu_mhz, b=b, **kw)
