"""Sideband flopping, ratio/trace nbar extraction, and ODF dephasing."""

import functools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from eitcool import thermometry, units
from eitcool.cooling import MotionalMode
from eitcool.crystal import (CrystalConfig, equilibrium_positions,
                             transverse_modes)
from eitcool.lindblad import LindbladSystem, evolve
from eitcool.numerics import ContractViolation
from eitcool.operators import TruncationWarning, thermal_weights
from eitcool.thermometry import (CapacityError, InversionRangeError,
                                 OdfParams, SidebandParams,
                                 UnphysicalRatioError,
                                 expected_projection_sigma, fit_nbar_ratio,
                                 fit_nbar_trace, heating_rate_fit, odf_alpha,
                                 odf_height_to_nbar, odf_signal,
                                 ratio_nbar_sigma, sideband_populations,
                                 thermal_average)


def single_ion(n_max=30, rabi_mhz=0.5):
    mode = MotionalMode.from_lab(2.38, n_max=n_max)
    return SidebandParams(mode=mode, rabi=units.mhz(rabi_mhz))


def com_mode(n_ions, n_max):
    """2.38 MHz mode with uniform participation 1/sqrt(n_ions)."""
    return MotionalMode.from_lab(
        2.38, n_max=n_max, b=np.full(n_ions, 1.0 / np.sqrt(n_ions)))


def unequal_spins(n_spins, n_max):
    """COM-mode register whose Rabi frequencies differ from ion to ion,
    so its couplings are unequal and the table takes the dense path."""
    return SidebandParams(mode=com_mode(n_spins, n_max),
                          rabi=units.mhz(np.linspace(0.4, 0.6, n_spins)))


class TestSidebandBaseCases:
    def test_blue_fock_flop(self):
        p = single_ion()
        g = p.couplings[0]
        t = np.linspace(0.0, 2.0 * np.pi / g, 40)
        tab = sideband_populations(p, "blue", t)
        for n in (0, 1, 3):
            got = tab[n]
            exact = np.sin(np.sqrt(n + 1.0) * g * t / 2.0)**2
            assert np.abs(got - exact).max() < 1e-12

    def test_red_fock_flop(self):
        p = single_ion()
        g = p.couplings[0]
        t = np.linspace(0.0, 2.0 * np.pi / g, 40)
        tab = sideband_populations(p, "red", t)
        for n in (1, 2, 5):
            got = tab[n]
            exact = np.sin(np.sqrt(float(n)) * g * t / 2.0)**2
            assert np.abs(got - exact).max() < 1e-12

    def test_red_from_ground_is_dark(self):
        p = single_ion()
        t = np.linspace(0.0, 1e-4, 20)
        assert np.abs(sideband_populations(p, "red", t)[0]).max() == 0.0

    def test_blue_pi_time(self):
        p = single_ion()
        t_pi = p.blue_pi_time()
        assert abs(sideband_populations(p, "blue", t_pi)[0, 0] - 1.0) < 1e-12

    def test_blue_pi_time_ignores_participation_sign(self):
        # modes whose largest participation entry is negative (non-COM
        # modes of a lattice) flop exactly like their sign-flipped twin
        times = [SidebandParams(mode=MotionalMode.from_lab(2.38, n_max=30,
                                                           b=[sign]),
                                rabi=units.mhz(0.5)).blue_pi_time()
                 for sign in (1.0, -1.0)]
        assert times[0] > 0.0 and times[0] == times[1]

    def test_table_shape(self):
        p = single_ion(n_max=12)
        t = np.linspace(0.0, 1e-5, 7)
        tab = sideband_populations(p, "blue", t)
        assert tab.shape == (13, 7)

    def test_bad_side_rejected(self):
        with pytest.raises(ContractViolation):
            sideband_populations(single_ion(), "green", [1e-6])


class TestMultiSpin:
    def test_symmetric_matches_dense(self):
        # equal couplings take the Dicke path; the oracle is the dense
        # full-space table over all 2^N spin configurations
        mode = com_mode(4, 6)
        p = SidebandParams(mode=mode, rabi=units.mhz(0.5))
        t = np.linspace(0.0, 4.0 * p.blue_pi_time(), 25)
        dense = _reference_table(p, "blue", t, symmetric=False)
        symm = sideband_populations(p, "blue", t)
        assert np.abs(dense - symm).max() < 1e-10

    def test_dense_capacity_guard(self):
        # unequal couplings take the dense path; stacked blocks
        # (n_max + 1) * 4^N exceed the entry limit, and the guard must
        # trip before any of it is allocated
        for n_spins, n_max in ((8, 2000), (8, 1000), (17, 1)):
            p = unequal_spins(n_spins, n_max)
            with pytest.raises(CapacityError):
                sideband_populations(p, "blue", [1e-6])

    def test_default_takes_dicke_path_past_dense_limit(self):
        # 8 uniform spins: dense blocks would be 301 x 256^2 entries, over
        # the limit, but equal couplings build 301 Dicke blocks of 9^2
        mode = com_mode(8, 300)
        p = SidebandParams(mode=mode, rabi=units.mhz(0.5))
        t = np.linspace(0.0, 2.0 * p.blue_pi_time(), 7)
        for side in ("red", "blue"):
            tab = sideband_populations(p, side, t)
            assert tab.shape == (301, 7)
            assert np.all(np.isfinite(tab))

    def test_dense_build_allocates_blocks_only(self):
        # the full space is 2^6 * 61 = 3904 states, a 122 MB Hamiltonian;
        # the 61 stacked 64 x 64 blocks and their eigenvectors are 4 MB
        p = unequal_spins(6, 60)
        for side in ("red", "blue"):
            tracemalloc.start()
            try:
                sideband_populations(p, side, [1e-6])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6

    def test_rabi_broadcast(self):
        # the mode's participation vector fixes the spin count
        mode = com_mode(3, 4)
        p = SidebandParams(mode=mode, rabi=units.mhz(0.5))
        assert p.n_spins == 3
        assert np.all(p.rabi == units.mhz(0.5)) and p.rabi.size == 3
        assert np.ptp(p.couplings) < 1e-12 * p.couplings[0]

    def test_rabi_count_must_match_mode(self):
        with pytest.raises(ContractViolation):
            SidebandParams(mode=com_mode(3, 4),
                           rabi=units.mhz(np.array([0.5, 0.4])))


def _reference_table(p, side, t, symmetric):
    """Full-space sideband table: one eigh of the whole Hamiltonian and
    one (dim x dim) product per Fock state, as the block tables replaced."""
    nf, n = p.mode.n_max + 1, p.n_spins
    a = np.diag(np.sqrt(np.arange(1, nf)), 1)
    mode_op = a.T if side == "blue" else a
    g = p.couplings
    if symmetric:
        jp = np.zeros((n + 1, n + 1))
        for k in range(n):
            jp[k + 1, k] = np.sqrt((k + 1) * (n - k))
        h = 0.5 * g[0] * np.kron(jp, mode_op)
        h = h + h.T
        weight = np.repeat(np.arange(n + 1) / n, nf)
        offset = 0
    else:
        sp = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = np.zeros((2**n * nf,) * 2)
        for j in range(n):
            ops = [np.eye(2)] * n
            ops[j] = sp
            spins = functools.reduce(np.kron, ops)
            h += 0.5 * g[j] * np.kron(spins, mode_op)
        h = h + h.T
        up = np.array([(n - bin(s).count("1")) / n for s in range(2**n)])
        weight = np.repeat(up, nf)
        offset = (2**n - 1) * nf
    evals, v = np.linalg.eigh(h)
    phases = np.exp(-1j * np.outer(evals, t))
    out = np.empty((nf, t.size))
    for k in range(nf):
        amp = v @ (v[offset + k, :].conj()[:, None] * phases)
        out[k] = weight @ (np.abs(amp)**2)
    return out


def _one_ion():
    return single_ion(n_max=30), False


def _three_unequal():
    mode = MotionalMode.from_lab(2.38, n_max=10,
                                 b=np.array([0.6, 0.64, 0.48]))
    return SidebandParams(mode=mode,
                          rabi=units.mhz(np.array([0.5, 0.4, 0.3]))), False


def _ten_symmetric():
    mode = com_mode(10, 20)
    return SidebandParams(mode=mode, rabi=units.mhz(0.5)), True


class TestBlockTables:
    @pytest.mark.parametrize("side", ["red", "blue"])
    @pytest.mark.parametrize("case", [_one_ion, _three_unequal,
                                      _ten_symmetric])
    def test_matches_full_space_table(self, case, side):
        p, symmetric = case()
        t = np.linspace(0.0, 4.0 * p.blue_pi_time(), 30)
        got = sideband_populations(p, side, t)
        ref = _reference_table(p, side, t, symmetric)
        assert np.abs(got - ref).max() < 1e-12


class TestThermalAverage:
    def test_ground_state_returns_first_row(self):
        p = single_ion(n_max=10)
        t = np.linspace(0.0, 1e-5, 9)
        tab = sideband_populations(p, "blue", t)
        assert np.abs(thermal_average(tab, 0.0) - tab[0]).max() == 0.0

    def test_constant_table_normalization(self):
        tab = np.full((8, 5), 0.37)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            avg = thermal_average(tab, 2.0)
        assert np.abs(avg - 0.37).max() < 1e-12

    def test_one_time_column_gives_one_value_array(self):
        tab = sideband_populations(single_ion(n_max=10), "blue", [1e-6])
        avg = thermal_average(tab, 0.5)
        assert isinstance(avg, np.ndarray) and avg.shape == (1,)

    def test_tail_warning(self):
        tab = np.zeros((4, 3))
        with pytest.warns(TruncationWarning):
            thermal_average(tab, 5.0)

    def test_matches_direct_thermal_evolution(self):
        # oracle: evolve spin x mode under the sideband coupling with the
        # generic integrator from a thermal state and compare P_up
        n_max = 30
        p = single_ion(n_max=n_max)
        g = p.couplings[0]
        nbar = 1.3
        nf = n_max + 1
        a = np.diag(np.sqrt(np.arange(1, nf)), 1).astype(complex)
        sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |up><down|
        h = 0.5 * g * (np.kron(sp, a.conj().T)
                       + np.kron(sp.conj().T, a))
        sys = LindbladSystem(h, [])
        w = thermal_weights(n_max, nbar)
        w /= w.sum()
        rho0 = np.kron(np.diag([0.0, 1.0]), np.diag(w)).astype(complex)
        proj_up = np.kron(np.diag([1.0, 0.0]), np.eye(nf))
        t = np.linspace(0.2, 1.0, 4) * p.blue_pi_time()
        direct = [np.real(np.trace(proj_up @ r))
                  for r in evolve(sys, rho0, t)]
        tab = sideband_populations(p, "blue", t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            avg = thermal_average(tab, nbar)
        assert np.abs(np.array(direct) - avg).max() < 1e-6

    def test_red_below_blue(self):
        p = single_ion(n_max=40)
        t = np.linspace(1e-7, 2.0 * p.blue_pi_time(), 15)
        red = sideband_populations(p, "red", t)
        blue = sideband_populations(p, "blue", t)
        for nbar in (0.0, 0.5, 2.0, 6.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                r = thermal_average(red, nbar)
                b = thermal_average(blue, nbar)
            assert np.all(r <= b + 1e-12)


class TestFitters:
    def test_trace_round_trips(self):
        for nbar, n_max in ((0.06, 30), (7.0, 60)):
            p = single_ion(n_max=n_max)
            t = np.linspace(0.0, 3.0 * p.blue_pi_time(), 40)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                y = thermal_average(
                    sideband_populations(p, "blue", t), nbar)
            fr = fit_nbar_trace((t, y), p)
            assert fr.converged
            assert abs(fr.params[0] - nbar) / nbar < 0.05
            assert abs(fr.params[1] - 1.0) < 1e-3

    def test_trace_requires_pi_time_span(self):
        p = single_ion()
        t = np.linspace(0.0, 0.2 * p.blue_pi_time(), 10)
        with pytest.raises(ContractViolation):
            fit_nbar_trace((t, np.zeros_like(t)), p)

    def test_ratio_round_trips(self):
        for nbar, n_max in ((0.06, 30), (1.04, 30), (7.0, 60)):
            p = single_ion(n_max=n_max)
            t = p.blue_pi_time()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                pr = thermal_average(
                    sideband_populations(p, "red", [t]), nbar)[0]
                pb = thermal_average(
                    sideband_populations(p, "blue", [t]), nbar)[0]
            got = fit_nbar_ratio(pr, pb, p)
            assert abs(got - nbar) / nbar < 1e-3

    def test_ratio_unphysical_raises(self):
        p = single_ion()
        with pytest.raises(UnphysicalRatioError):
            fit_nbar_ratio(0.6, 0.5, p)

    def test_ratio_zero_maps_to_ground(self):
        p = single_ion()
        assert fit_nbar_ratio(0.0, 0.9, p) == 0.0

    def test_ratio_above_cap_raises(self):
        # the cap is nbar = n_max / 2 = 0.5
        p = single_ion(n_max=1)
        with pytest.raises(InversionRangeError):
            fit_nbar_ratio(0.90, 0.95, p)

    def test_trace_and_ratio_agree(self):
        for nbar in (0.1, 1.0, 5.0):
            p = single_ion(n_max=60)
            t = np.linspace(0.0, 3.0 * p.blue_pi_time(), 40)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                y_b = thermal_average(
                    sideband_populations(p, "blue", t), nbar)
                pr = thermal_average(
                    sideband_populations(p, "red",
                                         [p.blue_pi_time()]), nbar)[0]
                pb = thermal_average(
                    sideband_populations(p, "blue",
                                         [p.blue_pi_time()]), nbar)[0]
            fr = fit_nbar_trace((t, y_b), p)
            nb_ratio = fit_nbar_ratio(pr, pb, p)
            combined = fr.sigma[0] + 1e-3 * (1.0 + nbar)
            assert abs(fr.params[0] - nb_ratio) < combined

    def test_dicke_com_ratio_inversion(self):
        mode = com_mode(12, 30)
        p = SidebandParams(mode=mode, rabi=units.mhz(0.5))
        t = p.blue_pi_time()
        nbar = 1.04
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            pr = thermal_average(
                sideband_populations(p, "red", [t]), nbar)[0]
            pb = thermal_average(
                sideband_populations(p, "blue", [t]), nbar)[0]
        got = fit_nbar_ratio(pr, pb, p, t=t)
        assert abs(got - nbar) / nbar < 1e-3

    def test_ratio_sigma_positive_and_scales(self):
        p = single_ion()
        t = p.blue_pi_time()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            pr = thermal_average(
                sideband_populations(p, "red", [t]), 0.5)[0]
            pb = thermal_average(
                sideband_populations(p, "blue", [t]), 0.5)[0]
        s1 = ratio_nbar_sigma(0.5, pr, pb, 0.01, 0.01, p, t=t)
        s2 = ratio_nbar_sigma(0.5, pr, pb, 0.02, 0.02, p, t=t)
        assert 0.0 < s1 < s2
        assert abs(s2 / s1 - 2.0) < 1e-6

    def test_ratio_sigma_single_spin_closed_form(self):
        # one spin: red row n equals blue row n - 1 and the top blue row
        # is dark, so the thermal ratio is nbar / (nbar + 1) at any time
        # and its slope is 1 / (nbar + 1)^2, nbar = 0 included
        p = single_ion()
        t = p.blue_pi_time()
        red = sideband_populations(p, "red", [t])
        blue = sideband_populations(p, "blue", [t])
        for nbar in (0.0, 0.06, 1.04, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                pr = thermal_average(red, nbar)[0]
                pb = thermal_average(blue, nbar)[0]
            assert abs(pr / pb - nbar / (nbar + 1.0)) < 1e-12
            sigma_ratio = np.hypot(0.01, pr / pb * 0.02) / pb
            got = ratio_nbar_sigma(nbar, pr, pb, 0.01, 0.02, p, t=t)
            assert abs(got / (sigma_ratio * (nbar + 1.0)**2) - 1.0) < 1e-9


ODF_MODE = SimpleNamespace(
    frequencies=np.array([units.mhz(1.22)]),
    b_matrix=np.array([[1.0 / np.sqrt(12.0)]]))


def odf_at_phi(phi, tau=100e-6, rabi_mhz=0.005, **kw):
    w = ODF_MODE.frequencies[0]
    return OdfParams(rabi=units.mhz(rabi_mhz),
                     mu_r=w + 2.0 * np.pi * phi / tau, tau=tau, **kw)


def _odf_alpha_scalar(amp, mu, tau, tau_pi, w):
    """One ion, one mode, one detuning: the closed form written out."""
    if amp == 0:
        return 0.0 + 0.0j
    s = tau + tau_pi
    delta = mu - w
    if abs(delta) < 1e-6 * w:
        bracket = (0.5 * np.sin(2.0 * w * tau) - w * tau
                   + 1j * np.sin(w * tau)**2)
        return amp * delta * s * bracket / (2.0 * w)
    phi = s * delta
    num = (w * (1.0 - np.cos(phi)) + 1j * mu * np.sin(phi)
           - np.exp(1j * w * tau)
           * (w * (np.cos(mu * tau) - np.cos(mu * tau + phi))
              - 1j * mu * (np.sin(mu * tau) - np.sin(mu * tau + phi))))
    return amp * num / (mu**2 - w**2)


def _odf_signal_loop(rabi, mu, tau, tau_pi, gamma_d, modes, nbars):
    """Reference ODF signal: explicit loops over ions and modes."""
    k_mag = 2.0 * np.pi / (units.YB171_S_P_WAVELENGTH_NM * 1e-9)
    mass = units.YB171_MASS_AMU * units.AMU
    freqs, b = modes.frequencies, modes.b_matrix
    out = np.empty(b.shape[0])
    for j in range(b.shape[0]):
        acc = 0.0
        for m in range(freqs.size):
            eta = k_mag * np.sqrt(units.HBAR / (2.0 * mass * freqs[m]))
            a = _odf_alpha_scalar(rabi[j] * b[j, m] * eta, mu, tau, tau_pi,
                                  freqs[m])
            acc += np.abs(a)**2 * (2.0 * nbars[m] + 1.0)
        out[j] = 0.5 * (1.0 - np.exp(-2.0 * gamma_d * tau)
                        * np.exp(-2.0 * acc))
    return out


def _height_to_nbar_brentq(height, o, modes, calibration, mode_index,
                           ion_index, nbar_hi=200.0):
    """Reference inversion: Brent's method on the forward signal, the
    other modes held at calibration (tighter than its old 1e-4 xtol)."""
    base = np.zeros(modes.frequencies.size)
    for m, v in calibration.items():
        base[m] = v

    def forward(nbar):
        nb = base.copy()
        nb[mode_index] = nbar
        return odf_signal(o, modes, nb)[ion_index]

    return brentq(lambda nbar: forward(nbar) - height, 0.0, nbar_hi,
                  xtol=1e-10)


@pytest.fixture(scope="module")
def fig4_odf():
    """fig4's 12-ion crystal with per-ion Rabi rates and 212 detunings.

    One detuning sits exactly on each mode (the near-pole series) and 200
    span the band.
    """
    c = CrystalConfig.from_mhz(12, 0.34, 1.22, 0.42)
    modes = transverse_modes(c, equilibrium_positions(c))
    f = modes.frequencies
    o = OdfParams(rabi=units.mhz(np.linspace(0.004, 0.006, 12)),
                  mu_r=np.concatenate([f, np.linspace(0.9 * f[0],
                                                      1.1 * f[-1], 200)]),
                  tau=100e-6, tau_pi=2e-6, gamma_d=50.0)
    return modes, o, np.linspace(0.1, 3.0, 12)


class TestOdf:
    def test_nulls_at_detuning_multiples(self):
        for n in range(1, 6):
            o = odf_at_phi(float(n))
            a = odf_alpha(o, (ODF_MODE.frequencies[0],
                              ODF_MODE.b_matrix[0, 0]))
            assert abs(a) < 1e-12

    def test_alpha_linear_near_resonance(self):
        w = ODF_MODE.frequencies[0]
        tau = 100e-6

        def alpha_at(delta):
            o = OdfParams(rabi=units.mhz(0.005), mu_r=w + delta, tau=tau)
            return odf_alpha(o, (w, 1.0))

        a1 = alpha_at(4e-7 * w)      # series branch
        a2 = alpha_at(8e-7 * w)      # series branch
        a3 = alpha_at(4e-6 * w)      # closed-form branch
        assert abs(a2 / a1 - 2.0) < 1e-6
        # the closed-form branch carries genuine second-order terms, so
        # continuity across the switch is only first-order tight
        assert abs(a3 / a1 - 10.0) < 0.5

    def test_eta_is_the_sideband_modes_bit_for_bit(self, monkeypatch):
        # one Lamb-Dicke formula: the eta odf_alpha scales by at each
        # mode frequency is the one a MotionalMode at it reports
        nus = [0.3, 1.22, 2.38, 7.5]
        etas = [MotionalMode.from_lab(nu, n_max=4).eta for nu in nus]
        seen, real = [], units.lamb_dicke
        monkeypatch.setattr(units, "lamb_dicke",
                            lambda w: seen.append(real(w)) or seen[-1])
        o = odf_at_phi(0.37)
        odf_alpha(o, (units.mhz(np.array(nus)), 1.0))
        assert len(seen) == 1
        assert seen[0].tolist() == etas
        for nu, eta in zip(nus, etas):
            odf_alpha(o, (units.mhz(nu), 1.0))
            assert seen[-1] == eta

    def test_zero_rabi_gives_zero(self):
        o = odf_at_phi(0.37, rabi_mhz=0.0)
        assert odf_alpha(o, (ODF_MODE.frequencies[0], 1.0)) == 0.0

    def test_nan_mode_frequency_rejected(self):
        o = OdfParams(rabi=1e5, mu_r=1e7, tau=1e-5)
        with pytest.raises(ContractViolation, match="positive"):
            odf_alpha(o, (np.nan, 1.0))

    @pytest.mark.parametrize("kw", [{"tau": 1e-306}, {"rabi_mhz": 1e300}],
                             ids=["tau", "rabi"])
    def test_overflowing_signal_raises(self, kw):
        # mu_r - omega_m = 2 pi phi / tau, or the displacement amplitude,
        # past float range: the closed form is NaN, not a population
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="overflows"):
            odf_signal(odf_at_phi(np.linspace(-3.0, 3.0, 40), **kw),
                       ODF_MODE, [1.04])

    def test_signal_monotone_in_nbar(self):
        o = odf_at_phi(0.37)
        vals = [odf_signal(o, ODF_MODE, [nb])[0]
                for nb in np.linspace(0.0, 20.0, 41)]
        assert np.all(np.diff(vals) > 0.0)

    def test_height_round_trips(self):
        o = odf_at_phi(0.37)
        for nbar in (0.82, 9.97):
            h = odf_signal(o, ODF_MODE, [nbar])[0]
            got = odf_height_to_nbar(h, o, ODF_MODE)
            assert abs(got - nbar) < 1e-2

    def test_height_needs_one_detuning(self):
        o = odf_at_phi(0.37)
        o.mu_r = np.array([o.mu_r, o.mu_r])
        with pytest.raises(ContractViolation, match="one detuning"):
            odf_height_to_nbar(0.1, o, ODF_MODE)

    def test_height_out_of_range(self):
        o = odf_at_phi(0.37)
        with pytest.raises(InversionRangeError):
            odf_height_to_nbar(0.75, o, ODF_MODE, nbar_hi=5.0)

    def test_background_decoherence_baseline(self):
        o = odf_at_phi(3.0, gamma_d=50.0)   # alpha null: pure background
        got = odf_signal(o, ODF_MODE, [0.0])[0]
        expected = 0.5 * (1.0 - np.exp(-2.0 * 50.0 * o.tau))
        assert abs(got - expected) < 1e-12

    def test_nbar_count_mismatch(self):
        o = odf_at_phi(0.37)
        with pytest.raises(ContractViolation):
            odf_signal(o, ODF_MODE, [0.1, 0.2])

    @pytest.mark.parametrize("n_rabi", [2, 13])
    def test_rabi_count_mismatch(self, fig4_odf, n_rabi):
        modes, o, nbars = fig4_odf
        o = OdfParams(rabi=np.full(n_rabi, o.rabi[0]), mu_r=o.mu_r,
                      tau=o.tau)
        with pytest.raises(ContractViolation, match="per ion"):
            odf_signal(o, modes, nbars)

    def test_signal_matches_ion_mode_loop_on_fig4_crystal(self, fig4_odf):
        modes, o, nbars = fig4_odf
        got = odf_signal(o, modes, nbars)
        assert got.shape == (o.mu_r.size, 12)
        want = np.stack([_odf_signal_loop(o.rabi, mu, o.tau, o.tau_pi,
                                          o.gamma_d, modes, nbars)
                         for mu in o.mu_r])
        # the same expressions, but numpy's vectorised complex product
        # and pairwise sum round differently from the scalar loop in the
        # last bit (7 of these 212 rows, by up to 5.6e-17); P_up <= 1/2
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps

    def test_array_detuning_stacks_scalar_calls(self, fig4_odf):
        modes, o, nbars = fig4_odf
        want = np.stack([
            odf_signal(OdfParams(rabi=o.rabi, mu_r=mu, tau=o.tau,
                                 tau_pi=o.tau_pi, gamma_d=o.gamma_d),
                       modes, nbars) for mu in o.mu_r])
        assert np.array_equal(odf_signal(o, modes, nbars), want)

    def test_height_inversion_matches_brentq_on_fig4_crystal(
            self, fig4_odf, monkeypatch):
        modes, o_all, _ = fig4_odf
        calls = []
        real = thermometry.odf_alpha

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(thermometry, "odf_alpha", counted)
        f = modes.frequencies
        calibration = {m: 0.05 * m for m in range(12)}
        for mode_index, ion_index in ((11, 0), (11, 7), (0, 3), (5, 10)):
            o = OdfParams(rabi=o_all.rabi,
                          mu_r=f[mode_index] + 2.0 * np.pi * 0.37 / o_all.tau,
                          tau=o_all.tau, tau_pi=o_all.tau_pi,
                          gamma_d=o_all.gamma_d)
            cal = {m: v for m, v in calibration.items() if m != mode_index}
            for nbar in (0.0, 0.82, 9.97, 150.0):
                nb = np.array([cal.get(m, nbar) for m in range(12)])
                h = odf_signal(o, modes, nb)[ion_index]
                want = _height_to_nbar_brentq(h, o, modes, cal, mode_index,
                                              ion_index)
                del calls[:]
                got = odf_height_to_nbar(h, o, modes, calibration=cal,
                                         mode_index=mode_index,
                                         ion_index=ion_index)
                assert len(calls) == 1
                assert abs(got - want) < 1e-4
                assert abs(got - nbar) < 1e-4

    def test_height_needs_displaced_target(self, fig4_odf):
        o = odf_at_phi(0.37, rabi_mhz=0.0)
        with pytest.raises(InversionRangeError, match="does not displace"):
            odf_height_to_nbar(0.0, o, ODF_MODE)
        # ion 0 sits on a node of fig4's mode 1 (|b| ~ 1e-15 by symmetry),
        # so its height carries no information on that mode
        modes, o_all, _ = fig4_odf
        assert abs(modes.b_matrix[0, 1]) < 1e-12
        o = OdfParams(rabi=o_all.rabi,
                      mu_r=modes.frequencies[1] + 2.0 * np.pi * 0.37
                      / o_all.tau, tau=o_all.tau, tau_pi=o_all.tau_pi,
                      gamma_d=o_all.gamma_d)
        h = odf_signal(o, modes, np.zeros(12))[0]
        with pytest.raises(InversionRangeError, match="does not displace"):
            odf_height_to_nbar(h, o, modes, mode_index=1)

    def test_heating_rate_recovery(self):
        t = np.array([0.0, 5e-3, 10e-3, 20e-3])
        nbars = 0.4 + 670.0 * t
        fr = heating_rate_fit(t, nbars)
        assert abs(fr.params[0] - 0.4) < 1e-9
        assert abs(fr.params[1] - 670.0) < 1e-6

    def test_heating_fit_needs_three_points(self):
        with pytest.raises(ContractViolation):
            heating_rate_fit(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


class TestNoiseAndIo:
    def test_expected_sigma_floor(self):
        s = expected_projection_sigma(np.array([0.0, 0.5]), shots=100)
        assert abs(s[0] - 0.005) < 1e-12
        assert abs(s[1] - 0.05) < 1e-12
