"""Numerical kernel contracts: cubic roots, ODE, fitting."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import eitcool
from eitcool.numerics import (ContractViolation, DegenerateFitError,
                              DegenerateOrderError, StiffnessError,
                              fit_least_squares, integrate_ode,
                              solve_cubic_real)


class TestCubic:
    def test_three_distinct_roots(self):
        # (x - 1)(x + 2)(x - 5) = x^3 - 4x^2 - 7x + 10
        roots = solve_cubic_real(1.0, -4.0, -7.0, 10.0)
        assert np.allclose(roots, [-2.0, 1.0, 5.0], atol=1e-10)

    def test_roots_ascending(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = np.sort(rng.uniform(-10, 10, 3))
            c2 = -r.sum()
            c1 = r[0] * r[1] + r[0] * r[2] + r[1] * r[2]
            c0 = -np.prod(r)
            roots = solve_cubic_real(1.0, c2, c1, c0)
            assert np.all(np.diff(roots) >= 0)
            assert np.allclose(roots, r, atol=1e-8 * max(1, np.abs(r).max()))

    def test_single_real_root(self):
        # x^3 + x + 10 has one real root at x = -2
        roots = solve_cubic_real(1.0, 0.0, 1.0, 10.0)
        assert roots.size == 1
        assert abs(roots[0] + 2.0) < 1e-10

    def test_double_root_reported_once_per_value(self):
        # (x - 2)^2 (x + 1) = x^3 - 3x^2 + 4
        roots = solve_cubic_real(1.0, -3.0, 0.0, 4.0)
        assert np.allclose(sorted(roots), [-1.0, 2.0], atol=1e-6)

    def test_triple_root(self):
        # (x - 3)^3
        roots = solve_cubic_real(1.0, -9.0, 27.0, -27.0)
        assert roots.size >= 1
        assert np.allclose(roots, 3.0, atol=1e-5)

    def test_scaled_coefficients(self):
        a = solve_cubic_real(2.0, -8.0, -14.0, 20.0)
        b = solve_cubic_real(1.0, -4.0, -7.0, 10.0)
        assert np.allclose(a, b, atol=1e-9)

    def test_zero_leading_coefficient_raises(self):
        with pytest.raises(DegenerateOrderError):
            solve_cubic_real(0.0, 1.0, 2.0, 3.0)

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            c = rng.uniform(-5, 5, 4)
            c[0] = c[0] if abs(c[0]) > 0.1 else 1.0
            roots = solve_cubic_real(*c)
            scale = np.abs(c).max()
            for x in roots:
                val = ((c[0] * x + c[1]) * x + c[2]) * x + c[3]
                assert abs(val) < 1e-7 * scale * max(1.0, abs(x))**3


class TestIntegrateOde:
    def test_exponential_decay(self):
        k = 3.0
        t = np.linspace(0, 2, 9)
        out = integrate_ode(lambda y: -k * y, t, np.array([1.0]),
                            rel_tol=1e-10, abs_tol=1e-12)
        exact = np.exp(-k * t)
        assert np.abs(out[:, 0].real - exact).max() < 1e-8

    def test_harmonic_oscillator(self):
        w = 2.0 * np.pi

        def rhs(y):
            return np.array([y[1], -w * w * y[0]])

        t = np.linspace(0, 3, 13)
        out = integrate_ode(rhs, t, np.array([1.0, 0.0]), rel_tol=1e-10,
                            abs_tol=1e-12)
        assert np.abs(out[:, 0].real - np.cos(w * t)).max() < 1e-6

    def test_complex_rotation(self):
        out = integrate_ode(lambda y: 1j * y, np.array([0.0, np.pi]),
                            np.array([1.0 + 0j]))
        assert abs(out[-1, 0] + 1.0) < 1e-6

    def test_nonmonotone_times_rejected(self):
        with pytest.raises(ContractViolation):
            integrate_ode(lambda y: y, np.array([0.0, 2.0, 1.0]),
                          np.array([1.0]))

    def test_nonpositive_tolerance_rejected(self):
        for tols in ((0.0, 1e-10), (1e-8, -1e-10)):
            with pytest.raises(ContractViolation):
                integrate_ode(lambda y: y, np.array([0.0, 1.0]),
                              np.array([1.0]), *tols)

    def test_nonfinite_initial_state_rejected(self):
        with pytest.raises(ContractViolation):
            integrate_ode(lambda y: y, np.array([0.0, 1.0]),
                          np.array([np.nan]))

    def test_blow_up_raises_stiffness_with_last_time(self):
        # y' = y^2, y(0) = 1 is 1 / (1 - t): the step size underflows at 1
        with pytest.raises(StiffnessError) as info:
            integrate_ode(lambda y: y * y, [0.0, 2.0], [1.0])
        assert abs(info.value.t_last - 1.0) < 1e-6


class TestStartUp:
    """scipy is imported where it is called: the CLI's start-up cost is
    what `eitcool run` pays per preset, and the spectrum, sideband and
    ODF kinds never call it.  Each case runs in a fresh interpreter."""

    TINY = {
        "fig1b": ["params.n_points=12"],
        "fig5": ["params.n_points=12"],
        "fig2d": ["params.n_points=20", "params.n_max=10",
                  "params.t_max_us=10"],
        "fig4d": ["params.n_points=30"],
        "fig2b": ["params.t_final_us=4", "params.n_times=2",
                  "params.n_max=6", "params.dt_ns=8"],
    }

    @pytest.mark.parametrize("module", ["eitcool", "eitcool.cli"])
    def test_import_loads_no_scipy(self, module):
        assert scipy_modules_after(f"import {module}") == []

    def test_validate_every_preset_loads_no_scipy(self):
        code = ("from eitcool import cli\n"
                "for name in cli.list_presets():\n"
                "    assert cli.main(['validate', name]) == 0\n")
        assert scipy_modules_after(code) == []

    @pytest.mark.parametrize("name", ["fig1b", "fig5", "fig2d", "fig4d"])
    def test_spectrum_sideband_odf_runs_load_no_scipy(self, name, tmp_path):
        assert scipy_modules_after(self._run(name, tmp_path)) == []

    def test_cooling_run_loads_scipy_linalg_at_its_first_step(self,
                                                              tmp_path):
        assert "scipy.linalg" in scipy_modules_after(
            self._run("fig2b", tmp_path))

    def _run(self, name, tmp_path):
        argv = ["run", name]
        for pair in self.TINY[name] + [f"output_dir={tmp_path}"]:
            argv += ["--set", pair]
        return ("from eitcool import cli\n"
                f"assert cli.main({argv!r}) == 0\n")


def scipy_modules_after(code):
    """Sorted names of the scipy modules loaded once code has run in a
    fresh interpreter."""
    src = os.path.dirname(os.path.dirname(eitcool.__file__))
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.split('.')[0] == 'scipy')))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout.splitlines()[-1])


def proportional(x, p):
    return p[0] * x, x[:, None]


def exponential(x, p):
    e = np.exp(-p[1] * x)
    return p[0] * e + p[2], np.column_stack([e, -p[0] * x * e,
                                             np.ones_like(x)])


class TestFitLeastSquares:
    def test_recovers_exponential(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0, 5, 40)
        true = np.array([2.0, 0.7, 0.3])
        y = exponential(t, true)[0]
        fr = fit_least_squares(exponential, (t, y, np.full_like(t, 1e-3)),
                               [1.0, 1.0, 0.0])
        assert fr.converged
        assert np.abs(fr.params - true).max() < 1e-8

    def test_sigma_scales_with_noise(self):
        rng = np.random.default_rng(4)
        t = np.linspace(0, 1, 100)

        def line(x, p):
            return p[0] + p[1] * x, np.column_stack([np.ones_like(x), x])

        noise = 0.05
        y = line(t, [1.0, 2.0])[0] + noise * rng.standard_normal(t.size)
        fr = fit_least_squares(line, (t, y, np.full_like(t, noise)),
                               [0.0, 0.0])
        # analytic 1-sigma on the slope of a weighted linear fit
        expected = noise / np.sqrt(np.sum((t - t.mean())**2))
        assert abs(fr.sigma[1] - expected) / expected < 1e-6

    def test_sigma_matches_analytic_jacobian_nonlinear(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0, 5, 60)
        noise = 0.02
        y = (exponential(t, [2.0, 0.7, 0.3])[0]
             + noise * rng.standard_normal(t.size))
        sig = np.full_like(t, noise)
        fr = fit_least_squares(exponential, (t, y, sig), [1.0, 1.0, 0.0])
        a, b, _ = fr.params
        e = np.exp(-b * t)
        J = np.column_stack([e, -a * t * e, np.ones_like(t)]) / sig[:, None]
        expected = np.sqrt(np.diag(np.linalg.inv(J.T @ J)))
        assert fr.converged
        assert np.abs(fr.sigma / expected - 1.0).max() < 1e-5

    def test_degenerate_parameters_raise(self):
        t = np.linspace(0, 1, 10)

        def model(x, p):
            # only the sum is identifiable
            return (p[0] + p[1]) * x, np.column_stack([x, x])

        y = model(t, [1.0, 1.0])[0]
        with pytest.raises(DegenerateFitError) as info:
            fit_least_squares(model, (t, y, np.ones_like(t)), [1.0, 1.0])
        assert info.value.condition > 1e14

    def test_nonpositive_sigma_rejected(self):
        t = np.linspace(0, 1, 10)
        bad = t.copy()
        bad[3] = np.nan
        for y, sig, p0 in ((t, np.zeros_like(t), [1.0]),
                           (bad, np.ones_like(t), [1.0]),
                           (t, bad, [1.0]),
                           (t, np.ones_like(t), [np.nan])):
            with pytest.raises(ContractViolation):
                fit_least_squares(proportional, (t, y, sig), p0)

    def test_model_runs_once_per_parameter_vector(self):
        # MINPACK asks again only for its current iterate: after a
        # rejected last trial, at the returned parameters (seed 85 ends
        # that way; a cache of the latest point alone re-runs the model)
        t = np.linspace(0, 5, 30)
        for seed in range(80, 90):
            rng = np.random.default_rng(seed)
            y = exponential(t, [2.0, 0.7, 0.3])[0]
            y = y + 0.02 * rng.standard_normal(t.size)
            keys = []

            def model(x, p):
                keys.append(p.tobytes())
                return exponential(x, p)

            fr = fit_least_squares(model, (t, y, np.full_like(t, 0.02)),
                                   [1.0, 1.0, 0.0])
            assert fr.converged
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("bad, message", [
        (lambda x: np.ones((x.size, 2)), "shape"),
        (lambda x: np.ones(x.size), "shape"),
        (lambda x: np.full((x.size, 1), np.inf), "not finite"),
        (lambda x: np.where(x[:, None] > 0.5, np.nan, x[:, None]),
         "not finite")], ids=["columns", "one-d", "inf", "nan"])
    def test_bad_model_jacobian_rejected(self, bad, message):
        t = np.linspace(0, 1, 10)
        with pytest.raises(ContractViolation, match=message):
            fit_least_squares(lambda x, p: (p[0] * x, bad(x)),
                              (t, 2.0 * t, np.ones_like(t)), [1.0])

    def test_more_params_than_points_rejected(self):
        with pytest.raises(ContractViolation):
            fit_least_squares(proportional,
                              (np.array([1.0]), np.array([1.0]),
                               np.array([1.0])), [1.0, 2.0])
