"""Absorption lineshape: closed form versus steady-state populations."""

import warnings

import numpy as np
import pytest

from eitcool import units
from eitcool import spectrum
from eitcool.atom4 import EitParams, dressed_cubic_coeffs
from eitcool.lindblad import NonUniqueSteadyStateError
from eitcool.numerics import ContractViolation, solve_cubic_real
from eitcool.spectrum import absorption_analytic, absorption_numeric

P = EitParams.from_mhz(17.0, 17.0, 0.5, 55.0, 59.6, 4.6, gamma=21.0)


class TestAnalytic:
    def test_exact_zeros_at_dark_detunings(self):
        grid = np.array([P.delta_sigma_plus, P.delta_sigma_minus])
        res = absorption_analytic(P, grid)
        assert np.abs(res.values).max() == 0.0

    def test_peak_value_at_bright_resonances(self):
        peaks = solve_cubic_real(*dressed_cubic_coeffs(P))
        res = absorption_analytic(P, peaks)
        # the cubic term vanishes there, leaving W = 4 / gamma^2
        assert np.abs(res.values - 4.0 / P.gamma**2).max() \
            < 1e-6 * 4.0 / P.gamma**2

    def test_positive_everywhere(self):
        grid = units.mhz(np.linspace(30.0, 80.0, 500))
        res = absorption_analytic(P, grid)
        assert np.all(res.values >= 0.0)

    def test_single_lambda_lineshape(self):
        # sigma+ off: the (D - ds+) factor cancels from N and the cubic,
        # leaving the sigma- / pi Lambda profile, also at D = ds+ exactly
        p = P.replace(omega_sigma_plus=0.0)
        grid = np.r_[units.mhz(np.linspace(30.0, 80.0, 400)),
                     p.delta_sigma_plus, p.delta_sigma_minus]
        d = grid - p.delta_sigma_minus
        expected = 16.0 * d**2 / (
            4.0 * p.gamma**2 * d**2
            + (4.0 * grid * d - p.omega_sigma_minus**2)**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = absorption_analytic(p, grid).values
        assert np.abs(got - expected).max() < 1e-12 * expected.max()

    def test_drives_off_is_lorentzian(self):
        # also at D = ds+ and ds-, where no drive makes a dark zero
        p = P.replace(omega_sigma_plus=0.0, omega_sigma_minus=0.0)
        grid = np.r_[units.mhz(np.linspace(30.0, 80.0, 400)),
                     p.delta_sigma_plus, p.delta_sigma_minus]
        expected = 4.0 / (p.gamma**2 + 4.0 * grid**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = absorption_analytic(p, grid).values
        assert np.abs(got - expected).max() < 1e-12 * expected.max()


class TestBrightResonances:
    def test_three_real_roots_in_regime(self):
        roots = solve_cubic_real(*dressed_cubic_coeffs(P))
        assert roots.size == 3
        assert np.all(np.diff(roots) > 0)


class TestNumeric:
    def test_matches_analytic_up_to_scale(self):
        grid = units.mhz(np.linspace(30.0, 80.0, 60))
        ana = absorption_analytic(P, grid)
        num = absorption_numeric(P, grid)
        assert not num.failed.any()
        w, r = ana.values, num.values
        scale = (w @ r) / (w @ w)
        rel = np.linalg.norm(scale * w - r) / np.linalg.norm(r)
        assert rel < 0.05

    def test_probe_off_rejected(self):
        with pytest.raises(ContractViolation):
            absorption_numeric(P.replace(omega_pi=0.0),
                               units.mhz(np.array([50.0])))

    def test_population_bounds(self):
        grid = units.mhz(np.linspace(50.0, 70.0, 8))
        num = absorption_numeric(P, grid)
        assert np.all(num.values >= -1e-12)
        assert np.all(num.values <= 1.0 + 1e-12)

    def test_failed_solve_is_flagged(self, monkeypatch):
        real = spectrum.steadystate
        bad = units.mhz(55.0)

        def flaky(system):
            if np.isclose(system.hamiltonian[2, 2].real, bad):   # delta_p
                raise NonUniqueSteadyStateError("forced")
            return real(system)

        monkeypatch.setattr(spectrum, "steadystate", flaky)
        grid = units.mhz(np.array([50.0, 55.0, 60.0]))
        num = absorption_numeric(P, grid)
        assert num.failed.tolist() == [False, True, False]
        assert np.isnan(num.values[1])
        assert np.all(np.isfinite(num.values[[0, 2]]))
        assert num.failure_reasons == {
            1: repr(NonUniqueSteadyStateError("forced"))}

    def test_programming_error_propagates(self, monkeypatch):
        def broken(system):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(spectrum, "steadystate", broken)
        with pytest.raises(TypeError):
            absorption_numeric(P, units.mhz(np.array([50.0, 60.0])))
