"""Quantized-mode cooling dynamics and scan drivers."""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from eitcool import cooling, units
from eitcool.atom4 import (E, MINUS, PLUS, ZERO, EitParams,
                          dressed_stark_shift)
from eitcool.cooling import (AllPointsFailedError, MotionalMode,
                             detuning_scan, doppler_initial_state,
                             hamiltonian_moving,
                             power_scan, predicted_optimal_detuning,
                             simulate_cooling)
from eitcool.lindblad import LindbladSystem, SplitPropagator, evolve
from eitcool.numerics import ContractViolation
from eitcool.operators import (DensityMatrix, FockOperators,
                               displacement_exp)

P = EitParams.from_mhz(18.03, 16.74, 6.67, 51.95, 55.6, 4.6)


class TestMotionalMode:
    def test_lamb_dicke_value(self):
        m = MotionalMode.from_lab(2.38, n_max=25)
        assert abs(m.eta - 0.059933322845275694) < 1e-12

    def test_eta_scales_inverse_sqrt_nu(self):
        a = MotionalMode.from_lab(1.0, n_max=10)
        b = MotionalMode.from_lab(4.0, n_max=10)
        assert abs(a.eta / b.eta - 2.0) < 1e-12

    def test_non_unit_participation_rejected(self):
        with pytest.raises(ContractViolation):
            MotionalMode.from_lab(2.38, n_max=10, b=np.array([0.5, 0.5]))


def _hamiltonian_moving_blocks(p, m):
    """Reference moving-ion Hamiltonian written block by block."""
    fock = FockOperators(m.n_max)
    nf = fock.dim
    d_plus = displacement_exp(fock, m.eta)      # e^(+i k y), probe side
    d_minus = d_plus.conj().T                   # e^(-i k y), drive side
    eye_f = np.eye(nf, dtype=complex)
    h = np.zeros((4 * nf, 4 * nf), dtype=complex)

    def block(i, j, mat):
        h[i * nf:(i + 1) * nf, j * nf:(j + 1) * nf] += mat

    block(E, PLUS, p.omega_sigma_minus / 2 * d_minus)
    block(PLUS, E, p.omega_sigma_minus / 2 * d_plus)
    block(E, ZERO, -p.omega_pi / 2 * d_plus)
    block(ZERO, E, -p.omega_pi / 2 * d_minus)
    block(E, MINUS, p.omega_sigma_plus / 2 * d_minus)
    block(MINUS, E, p.omega_sigma_plus / 2 * d_plus)
    block(PLUS, PLUS, (p.delta_d + p.delta_B) * eye_f)
    block(ZERO, ZERO, p.delta_p * eye_f)
    block(MINUS, MINUS, (p.delta_d - p.delta_B) * eye_f)
    for i in range(4):
        block(i, i, m.nu * fock.number)
    return h


class TestHamiltonianMoving:
    def test_hermitian(self):
        m = MotionalMode.from_lab(2.38, n_max=8)
        h = hamiltonian_moving(P, m)
        assert np.abs(h - h.conj().T).max() < 1e-10 * np.abs(h).max()

    def test_matches_block_construction(self):
        rng = np.random.default_rng(11)
        for n_max in (8, 25, 40):
            for _ in range(10):
                p = EitParams.from_mhz(*rng.uniform(0.0, 30.0, 3),
                                       *rng.uniform(-60.0, 60.0, 3))
                m = MotionalMode.from_lab(rng.uniform(0.5, 3.0),
                                          n_max=n_max)
                assert np.array_equal(hamiltonian_moving(p, m),
                                      _hamiltonian_moving_blocks(p, m))

    def test_reduces_to_rest_at_zero_coupling(self):
        # with all Rabi rates off only the detuning and nu a^dag a
        # diagonals remain
        m = MotionalMode.from_lab(2.38, n_max=5)
        p0 = P.replace(omega_sigma_plus=0.0, omega_sigma_minus=0.0,
                       omega_pi=0.0)
        h = hamiltonian_moving(p0, m)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
        nf = m.n_max + 1
        assert abs(h[nf, nf] - (P.delta_d + P.delta_B)) < 1e-9
        assert abs(h[1, 1] - m.nu) < 1e-9


class TestInitialState:
    def test_trace_one_equal_ground_mixture(self):
        m = MotionalMode.from_lab(2.38, n_max=20)
        rho = doppler_initial_state(m, 3.0)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        nf = m.n_max + 1
        # excited block empty, ground blocks equal
        assert np.abs(rho[:nf, :nf]).max() == 0.0
        b1 = rho[nf:2 * nf, nf:2 * nf]
        b2 = rho[2 * nf:3 * nf, 2 * nf:3 * nf]
        assert np.abs(b1 - b2).max() == 0.0

    def test_thermal_mean(self):
        m = MotionalMode.from_lab(2.38, n_max=60)
        rho = doppler_initial_state(m, 2.0)
        nf = m.n_max + 1
        n_op = np.kron(np.eye(4), np.diag(np.arange(nf)))
        nbar = np.real(np.trace(n_op @ rho))
        assert abs(nbar - 2.0) < 1e-6


class TestSimulate:
    def test_heating_only_linear_growth(self):
        m = MotionalMode.from_lab(2.38, n_max=15)
        p0 = P.replace(omega_sigma_plus=0.0, omega_sigma_minus=0.0,
                       omega_pi=0.0)
        heating = 2.0e3                     # quanta/s
        t = np.array([2e-5, 4e-5, 6e-5])
        res = simulate_cooling(p0, m, 1.0, t, heating=heating, dt=1e-8)
        expected = 1.0 + heating * t
        assert np.abs(res.nbar - expected).max() < 2e-3

    @pytest.mark.parametrize("heating", [0.0, 1e5])
    def test_split_matches_generic_integrator(self, heating):
        m = MotionalMode.from_lab(2.38, n_max=3)
        h = hamiltonian_moving(P, m)
        nf = m.n_max + 1
        rate = np.sqrt(P.gamma / 3.0)
        cops = []
        for g in (1, 2, 3):
            c = np.zeros((4 * nf, 4 * nf), dtype=complex)
            c[g * nf:(g + 1) * nf, :nf] = rate * np.eye(nf)
            cops.append(c)
        if heating > 0:
            fock = FockOperators(m.n_max)
            for op in (fock.a, fock.a_dagger):
                cops.append(np.sqrt(heating) * np.kron(np.eye(4), op))
        sys = LindbladSystem(h, cops)
        rho0 = doppler_initial_state(m, 0.5)
        t = np.array([2e-6])
        ref = evolve(sys, rho0, t)[-1].matrix
        n_op = np.kron(np.eye(4), np.diag(np.arange(nf)))
        nbar_ref = np.real(np.trace(n_op @ ref))
        res = simulate_cooling(P, m, 0.5, t, heating=heating, dt=2e-9)
        assert abs(res.nbar[-1] - nbar_ref) < 1e-3

    def test_cooling_reduces_nbar(self):
        m = MotionalMode.from_lab(2.38, n_max=12)
        best = P.replace(delta_d=P.delta_p - predicted_optimal_detuning(
            P, m))
        t = np.array([1e-5, 3e-5])
        res = simulate_cooling(best, m, 1.0, t, dt=4e-9)
        assert res.nbar[-1] < res.nbar[0] < 1.0

    def test_negative_inputs_rejected(self):
        m = MotionalMode.from_lab(2.38, n_max=5)
        with pytest.raises(ContractViolation):
            simulate_cooling(P, m, -1.0, [1e-6])
        with pytest.raises(ContractViolation):
            simulate_cooling(P, m, 1.0, [1e-6], heating=-1.0)
        with pytest.raises(ContractViolation):
            simulate_cooling(P, m, 1.0, [2e-6, 1e-6])

    @pytest.mark.parametrize("dt", [-4e-9, 0.0, np.nan])
    def test_nonpositive_step_rejected(self, dt):
        m = MotionalMode.from_lab(2.38, n_max=5)
        with pytest.raises(ContractViolation, match="dt_target"):
            simulate_cooling(P, m, 1.0, [1e-6], dt=dt)

    def test_samples_land_on_t_list(self):
        # 0.5 us is 62.5 steps of 8 ns: the steps are shortened to fit
        # whole steps into each interval, so every sample sits on its time
        # and agrees with a run whose steps divide the intervals exactly
        m = MotionalMode.from_lab(2.38, n_max=10)
        best = P.replace(delta_d=P.delta_p - predicted_optimal_detuning(
            P, m))
        t = np.array([0.5e-6, 1.0e-6, 1.5e-6, 2.0e-6])
        rounded = simulate_cooling(best, m, 1.0, t, dt=8e-9).nbar
        exact = simulate_cooling(best, m, 1.0, t, dt=0.5e-6 / 63).nbar
        assert np.abs(rounded / exact - 1.0).max() < 1e-5


def _reference_step(prop, rho):
    """The split step as first written, with its temporaries: the oracle."""
    nf, dt = prop.nf, prop.dt
    rho = prop.m1 @ rho @ prop.m1.conj().T
    ee = rho[:nf, :nf]
    w = dt * prop.gamma / 3.0
    for g in (PLUS, ZERO, MINUS):
        rho[g * nf:(g + 1) * nf, g * nf:(g + 1) * nf] += w * ee
    if prop.heating > 0:
        g = dt * prop.heating
        r4 = rho.reshape(4, nf, 4, nf)
        s = np.sqrt(np.arange(1, nf))
        low = r4[:, 1:, :, 1:] * s[:, None, None] * s[None, None, :]
        up = r4[:, :-1, :, :-1] * s[:, None, None] * s[None, None, :]
        r4[:, :-1, :, :-1] += g * low      # a rho a^dag
        r4[:, 1:, :, 1:] += g * up         # a^dag rho a
    tr = np.trace(rho).real
    rho /= tr
    return rho, tr


class TestSplitStep:
    @pytest.mark.parametrize("heating", [0.0, 1e5])
    def test_matches_reference_step(self, heating):
        # nbar0 2 puts ~3% of the population on the top Fock level, so a
        # heating weight leaking across a block boundary shows at once
        m = MotionalMode.from_lab(2.38, n_max=6)
        prop = cooling._SplitPropagator(P, m, heating, 4e-9)
        ref = doppler_initial_state(m, 2.0)
        rho = ref.copy()
        worst = 0.0
        for _ in range(200):
            ref, tr = _reference_step(prop, ref)
            worst = max(worst, abs(tr - 1.0))
            assert prop.step(rho) is rho
        assert np.abs(rho - ref).max() < 1e-13
        assert abs(prop.max_trace_correction - worst) < 1e-13

    @pytest.mark.parametrize("heating, bound", [(0.0, 1e-13), (1e5, 1e-4)])
    def test_same_mechanism_as_generic_propagator(self, heating, bound):
        # the structured jump equals the generic sequential one; with
        # heating only the a / a^dag order differs, O((dt Gh)^2) per step
        m = MotionalMode.from_lab(2.38, n_max=6)
        prop = cooling._SplitPropagator(P, m, heating, 4e-9)
        nf = prop.nf
        rate = np.sqrt(P.gamma / 3.0)
        cops = []
        for g in (PLUS, ZERO, MINUS):
            c = np.zeros((4 * nf, 4 * nf), dtype=complex)
            c[g * nf:(g + 1) * nf, :nf] = rate * np.eye(nf)
            cops.append(c)
        if heating > 0:
            fock = FockOperators(m.n_max)
            for op in (fock.a, fock.a_dagger):
                cops.append(np.sqrt(heating) * np.kron(np.eye(4), op))
        heff = hamiltonian_moving(P, m) - 0.5j * sum(c.conj().T @ c
                                                     for c in cops)
        generic = SplitPropagator(heff, 4e-9, cops)
        rho = doppler_initial_state(m, 2.0)
        ref = rho.copy()
        for _ in range(200):
            prop.step(rho)
            generic.step(ref)
        assert np.abs(rho - ref).max() < bound


@pytest.fixture
def every_run_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")
    monkeypatch.setattr(cooling, "simulate_cooling", fail)


@pytest.fixture
def every_run_has_a_bug(monkeypatch):
    def fail(*args, **kwargs):
        raise TypeError("programming error")
    monkeypatch.setattr(cooling, "simulate_cooling", fail)


class TestScans:
    def test_predicted_optimal_detuning(self):
        m = MotionalMode.from_lab(2.38, n_max=10)
        pred = predicted_optimal_detuning(P, m)
        assert abs(pred - (P.delta_B + dressed_stark_shift(P) - m.nu)) \
            < 1e-12 * abs(pred)

    def test_detuning_scan_shapes_and_argmin(self):
        m = MotionalMode.from_lab(2.38, n_max=8)
        grid = units.mhz(np.array([2.6, 3.6, 4.6]))
        deltas, finals, argmin = detuning_scan(P, m, grid, 5e-6,
                                               nbar0=1.0, dt=8e-9)
        assert deltas.size == finals.size == 3
        assert argmin in deltas
        assert finals[list(deltas).index(argmin)] == np.nanmin(finals)

    def test_power_scan_zero_power_has_no_cooling(self):
        m = MotionalMode.from_lab(2.38, n_max=8)
        rows = power_scan(P, m, "probe", [0.0], nbar0=2.0,
                          heating=1.0e3, t_final=1e-5, n_times=3, dt=8e-9)
        assert rows[0]["gamma_cool"] == 0.0
        assert abs(rows[0]["n_ss"] - (2.0 + 1.0e3 * 1e-5)) < 1e-12

    def test_detuning_scan_all_points_failed(self, every_run_fails):
        m = MotionalMode.from_lab(2.38, n_max=4)
        with pytest.raises(AllPointsFailedError, match="all 3 .* failed"):
            detuning_scan(P, m, units.mhz(np.array([2.6, 3.6, 4.6])), 1e-7)

    def test_power_scan_marks_all_failed_row(self, every_run_fails):
        m = MotionalMode.from_lab(2.38, n_max=4)
        rows = power_scan(P, m, "drive", [1.0], t_final=1e-7, n_times=3)
        assert rows[0]["failed"]
        assert np.isnan(rows[0]["n_ss"]) and np.isnan(rows[0]["detuning"])

    def test_detuning_scan_programming_error_propagates(
            self, every_run_has_a_bug):
        m = MotionalMode.from_lab(2.38, n_max=4)
        with pytest.raises(TypeError, match="programming error"):
            detuning_scan(P, m, units.mhz(np.array([2.6, 3.6])), 1e-7)

    def test_power_scan_programming_error_propagates(
            self, every_run_has_a_bug):
        m = MotionalMode.from_lab(2.38, n_max=4)
        with pytest.raises(TypeError, match="programming error"):
            power_scan(P, m, "drive", [1.0], t_final=1e-7, n_times=3)

    def test_power_scan_row_equals_scan_then_rerun(self):
        # the row reuses the coarse grid's argmin run; it must equal a
        # detuning scan on that grid followed by a fresh run at its argmin
        m = MotionalMode.from_lab(2.38, n_max=8)
        t_final, n_times, dt, heating = 2e-6, 4, 8e-9, 670.0
        row, = power_scan(P, m, "drive", [0.5], heating=heating,
                          t_final=t_final, n_times=n_times, dt=dt)
        pi = P.replace(omega_sigma_plus=P.omega_sigma_plus * np.sqrt(0.5),
                       omega_sigma_minus=P.omega_sigma_minus * np.sqrt(0.5))
        grid = predicted_optimal_detuning(pi, m) + np.linspace(
            -units.mhz(0.8), units.mhz(0.8), 5)
        _, _, best = detuning_scan(pi, m, grid, t_final, heating=heating,
                                   dt=dt)
        res = simulate_cooling(pi.replace(delta_d=pi.delta_p - best), m, 7.0,
                               np.linspace(t_final / n_times, t_final,
                                           n_times),
                               heating=heating, dt=dt)
        assert not row["failed"]
        assert row["detuning"] == best
        assert row["gamma_cool"] == res.gamma_cool
        assert row["n_ss"] == res.n_ss

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_power_scan_bad_power_rejected_before_any_run(self, bad,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(cooling, "simulate_cooling",
                            lambda *a, **k: calls.append(1))
        m = MotionalMode.from_lab(2.38, n_max=5)
        with pytest.raises(ContractViolation, match=repr(bad)):
            power_scan(P, m, "drive", [1.0, bad])
        assert calls == []

    def test_power_scan_bad_beam_name(self):
        m = MotionalMode.from_lab(2.38, n_max=5)
        with pytest.raises(ContractViolation):
            power_scan(P, m, "repump", [1.0])


def on_workers(monkeypatch, n):
    monkeypatch.setattr(cooling, "_workers", lambda: n)


class TestScanWorkers:
    M = MotionalMode.from_lab(2.38, n_max=8)
    GRID = units.mhz(np.array([2.6, 3.1, 3.6, 4.1, 4.6]))

    def scan(self, monkeypatch, workers):
        on_workers(monkeypatch, workers)
        return detuning_scan(P, self.M, self.GRID, 2e-6, nbar0=1.0,
                             dt=8e-9)

    def test_detuning_scan_same_for_any_worker_count(self, monkeypatch):
        one, two = self.scan(monkeypatch, 1), self.scan(monkeypatch, 2)
        assert np.array_equal(one[1], two[1]) and one[2] == two[2]

    def test_power_scan_same_for_any_worker_count(self, monkeypatch):
        def scan(workers):
            on_workers(monkeypatch, workers)
            return power_scan(P, self.M, "probe", [0.0, 0.5, 1.0],
                              nbar0=1.0, heating=670.0, t_final=2e-6,
                              n_times=4, dt=8e-9)
        one, two = scan(1), scan(2)
        np.testing.assert_equal(one, two)
        assert not any(r["failed"] for r in one)
        assert one[0]["gamma_cool"] == 0.0

    def test_first_scipy_import_on_worker_threads(self):
        # a fresh interpreter, so the scan pool's threads are the first
        # to import scipy.linalg (SplitPropagator's expm)
        code = """
import json, sys
import numpy as np
from eitcool import cooling, units
from eitcool.atom4 import EitParams
p = EitParams.from_mhz(18.03, 16.74, 6.67, 51.95, 55.6, 4.6)
m = cooling.MotionalMode.from_lab(2.38, n_max=6)
grid = units.mhz(np.array([3.1, 4.1]))
before = 'scipy.linalg' in sys.modules
out = []
for workers in (2, 1):
    cooling._workers = lambda: workers
    _, finals, argmin = cooling.detuning_scan(p, m, grid, 1e-6, nbar0=1.0,
                                              dt=8e-9)
    out.append([float(f).hex() for f in finals] + [argmin.hex()])
print(json.dumps([before] + out))
"""
        src = os.path.dirname(os.path.dirname(cooling.__file__))
        res = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        before, two, one = json.loads(res.stdout)
        assert not before
        assert two == one

    def test_failed_point_marks_only_its_index(self, monkeypatch):
        _, ref, argmin = self.scan(monkeypatch, 1)
        real, bad = cooling.simulate_cooling, P.delta_p - self.GRID[1]

        def flaky(p, *args, **kwargs):
            if p.delta_d == bad:
                raise np.linalg.LinAlgError("forced")
            return real(p, *args, **kwargs)

        monkeypatch.setattr(cooling, "simulate_cooling", flaky)
        _, finals, got = self.scan(monkeypatch, 2)
        assert np.isnan(finals).tolist() == [False, True, False, False,
                                              False]
        assert np.array_equal(np.delete(finals, 1), np.delete(ref, 1))
        assert got == argmin

    def test_failed_power_marks_only_its_row(self, monkeypatch):
        kw = dict(nbar0=1.0, t_final=2e-6, n_times=4, dt=8e-9)
        on_workers(monkeypatch, 1)
        good, = power_scan(P, self.M, "probe", [0.5], **kw)
        real, bad = cooling.simulate_cooling, P.omega_pi

        def flaky(p, *args, **kwargs):
            if p.omega_pi == bad:
                raise np.linalg.LinAlgError("forced")
            return real(p, *args, **kwargs)

        monkeypatch.setattr(cooling, "simulate_cooling", flaky)
        on_workers(monkeypatch, 2)
        rows = power_scan(P, self.M, "probe", [0.5, 1.0], **kw)
        assert rows[0] == good
        assert rows[1]["failed"] and np.isnan(rows[1]["n_ss"])

    def test_programming_error_cancels_queued_points(self, monkeypatch):
        calls, lock = [], threading.Lock()

        def slow_bug(*args, **kwargs):
            with lock:
                calls.append(1)
            time.sleep(0.05)
            raise TypeError("programming error")

        monkeypatch.setattr(cooling, "simulate_cooling", slow_bug)
        on_workers(monkeypatch, 2)
        grid = units.mhz(np.linspace(2.0, 5.0, 12))
        with pytest.raises(TypeError, match="programming error"):
            detuning_scan(P, self.M, grid, 1e-7)
        assert len(calls) < grid.size


class TestWorkers:
    @pytest.mark.parametrize("env, workers", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"GOTO_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "x"}, 1),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"MKL_NUM_THREADS": "1"}, 1),
    ])
    def test_cpus_over_blas_threads(self, monkeypatch, env, workers):
        monkeypatch.setattr(cooling.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2, 3})
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert cooling._workers() == workers


class TestFitExponential:
    # decay to an offset below 0, as a fit on a window that ends inside
    # a fast transient can report
    T = np.linspace(1e-6, 40e-6, 12)
    NBAR = 2.0 * np.exp(-T / 5e-6) - 0.05

    def test_negative_offset_returned_raw(self):
        gamma, tau, c, ok = cooling._fit_exponential(self.T, self.NBAR, 2.0)
        assert ok
        assert abs(tau - 5e-6) < 1e-9 * 5e-6
        assert abs(c + 0.05) < 1e-9

    def test_result_keeps_raw_beside_clamped(self, monkeypatch):
        fit = cooling._fit_exponential(self.T, self.NBAR, 2.0)
        monkeypatch.setattr(cooling, "_fit_exponential", lambda *a: fit)
        m = MotionalMode.from_lab(2.38, n_max=4)
        res = simulate_cooling(P, m, 1.0, [1e-7, 2e-7, 3e-7], dt=1e-8)
        assert res.n_ss == 0.0
        assert res.n_ss_raw == fit[2] < 0.0
