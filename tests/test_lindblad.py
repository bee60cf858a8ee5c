"""Master-equation engine against closed-form two-level results."""

import numpy as np
import pytest

from eitcool import spectrum, units
from eitcool.atom4 import EitParams
from eitcool.lindblad import (LindbladSystem, NonUniqueSteadyStateError,
                              SplitPropagator, evolve, run_intervals,
                              steadystate)
from eitcool.numerics import ContractViolation
from eitcool.operators import check_density_matrix

SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # |g><e|


def two_level(omega, delta, gamma):
    h = np.array([[delta, omega / 2.0], [omega / 2.0, 0.0]], dtype=complex)
    # basis order (|e>, |g>)
    c = np.sqrt(gamma) * np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    return LindbladSystem(h, [c])


def kron_liouvillian(sys):
    """Reference superoperator, one np.kron per term (row-major vec)."""
    h = sys.hamiltonian
    d = len(h)
    eye = np.eye(d)
    L = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in sys.collapse:
        cdc = c.conj().T @ c
        L += np.kron(c, c.conj())
        L -= 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return L


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_systems(seed=7):
    """Seeded Hermitian H at d = 2..6 with 0..3 non-normal collapse ops."""
    rng = np.random.default_rng(seed)
    for d in range(2, 7):
        for k in range(4):
            a = random_matrix(rng, d)
            cops = [random_matrix(rng, d) for _ in range(k)]
            yield LindbladSystem(a + a.conj().T, cops)


class TestConstruction:
    def test_non_hermitian_hamiltonian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ContractViolation):
            LindbladSystem(h, [])

    def test_bad_hamiltonian_shape_rejected(self):
        # the dimension is read from the Hamiltonian, which must be square
        for h in (np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(4)):
            with pytest.raises(ContractViolation):
                LindbladSystem(h, [])

    def test_dim_mismatch_rejected(self):
        for c in (np.eye(3), np.ones((2, 3))):
            with pytest.raises(ContractViolation):
                LindbladSystem(np.eye(2), [np.eye(2), c])

    def test_liouvillian_matches_rhs(self):
        rng = np.random.default_rng(0)
        sys = two_level(1.3, 0.4, 0.8)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        lhs = (sys.liouvillian_matrix() @ rho.ravel()).reshape(2, 2)
        assert np.abs(lhs - sys.rhs_matrix(rho)).max() < 1e-12

    def test_liouvillian_matches_kron_reference(self):
        for sys in random_systems():
            ref = kron_liouvillian(sys)
            err = np.abs(sys.liouvillian_matrix() - ref).max()
            assert err <= 1e-13 * np.abs(ref).max()

    def test_rhs_is_liouvillian_on_random_systems(self):
        rng = np.random.default_rng(8)
        for sys in random_systems():
            d = len(sys.hamiltonian)
            rho = random_matrix(rng, d)
            L = sys.liouvillian_matrix()
            lhs = (L @ rho.ravel()).reshape(d, d)
            scale = np.abs(L).max() * np.abs(rho).max()
            assert np.abs(sys.rhs_matrix(rho) - lhs).max() <= 1e-13 * scale

    def test_dense_liouvillian_refused_above_limit(self):
        d = 65
        sys = LindbladSystem(np.zeros((d, d)), [])
        with pytest.raises(ContractViolation):
            sys.liouvillian_matrix()


class TestEvolution:
    def test_pure_decay(self):
        gamma = 2.0
        sys = two_level(0.0, 0.0, gamma)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        t = np.linspace(0.0, 2.0, 7)
        traj = evolve(sys, rho0, t)
        pe = np.array([r[0, 0].real for r in traj])
        assert np.abs(pe - np.exp(-gamma * t)).max() < 1e-7

    def test_coherence_decays_at_half_rate(self):
        gamma = 1.5
        sys = two_level(0.0, 0.0, gamma)
        rho0 = 0.5 * np.ones((2, 2), dtype=complex)
        t = np.array([0.0, 0.7, 1.4])
        traj = evolve(sys, rho0, t)
        coh = np.array([r[0, 1].real for r in traj])
        assert np.abs(coh - 0.5 * np.exp(-0.5 * gamma * t)).max() < 1e-7

    def test_trace_and_positivity_preserved(self):
        sys = two_level(2.0, 0.5, 1.0)
        rho0 = np.diag([0.3, 0.7]).astype(complex)
        for r in evolve(sys, rho0, np.linspace(0.0, 5.0, 6)):
            check_density_matrix(r)

    def test_split_matches_rk45_with_heating(self):
        # 3-level ladder with decay plus a weak symmetric heating pair
        n = 3
        a = np.diag(np.sqrt(np.arange(1, n)), 1).astype(complex)
        h = 1.0 * (a + a.conj().T) + 3.0 * np.diag(np.arange(n))
        cops = [np.sqrt(0.8) * a, np.sqrt(0.05) * a,
                np.sqrt(0.05) * a.conj().T]
        sys = LindbladSystem(h, cops)
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        t = np.array([0.4, 0.9])
        r_rk = evolve(sys, rho0, t)
        heff = h - 0.5j * sum(c.conj().T @ c for c in cops)
        r_sp, _ = run_intervals(
            lambda dt: SplitPropagator(heff, dt, sys.collapse),
            rho0.copy(), t, 2e-4, lambda r: r.copy())
        for a_, b_ in zip(r_rk, r_sp):
            assert np.abs(a_ - b_).max() < 1e-3


class TestSteadyState:
    def test_bloch_equation_excited_population(self):
        for omega, delta, gamma in ((1.0, 0.0, 1.0), (2.5, 1.2, 0.7),
                                    (0.3, -0.8, 2.0)):
            sys = two_level(omega, delta, gamma)
            ss = steadystate(sys)
            expected = (omega**2 / 4.0) / (delta**2 + gamma**2 / 4.0
                                           + omega**2 / 2.0)
            assert abs(ss[0, 0].real - expected) < 1e-10

    def test_null_space_matches_long_time(self):
        sys = two_level(1.7, 0.4, 1.1)
        a = steadystate(sys)
        b = evolve(sys, np.diag([1.0, 0.0]).astype(complex), [50.0])[-1]
        assert np.abs(a - b).max() < 1e-6

    def test_generator_annihilates_steady_state(self):
        sys = two_level(2.0, -0.3, 0.9)
        ss = steadystate(sys)
        resid = np.abs(sys.rhs_matrix(ss)).max()
        assert resid < 1e-8 * max(np.abs(sys.hamiltonian).max(), 1.0)

    def test_decoupled_sector_flagged_non_unique(self):
        # |1> decays to |0>, |2> is totally decoupled: two steady states
        c = np.zeros((3, 3), dtype=complex)
        c[0, 1] = 1.0
        sys = LindbladSystem(np.zeros((3, 3)), [c])
        with pytest.raises(NonUniqueSteadyStateError):
            steadystate(sys)


class TestSpectrumSolves:
    def test_one_solve_per_point_without_kron(self, monkeypatch):
        # perfbench's lindblad.steadystate.calls counts one call per point
        def no_kron(*args, **kwargs):
            raise AssertionError("np.kron called on the spectrum path")

        calls = []

        def counted(system):
            calls.append(system)
            return steadystate(system)

        monkeypatch.setattr(np, "kron", no_kron)
        monkeypatch.setattr(spectrum, "steadystate", counted)
        p = EitParams.from_mhz(17.0, 17.0, 0.5, 55.0, 59.6, 4.6, gamma=21.0)
        grid = units.mhz(np.linspace(40.0, 70.0, 7))
        res = spectrum.absorption_numeric(p, grid)
        assert len(calls) == grid.size
        assert not res.failed.any()
