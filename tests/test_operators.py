"""Operator algebra: states, ladder operators, thermal weights,
displacements."""

import numpy as np
import pytest

from eitcool.numerics import ContractViolation
from eitcool.operators import (FockOperators, TruncationError,
                               check_density_matrix, displacement_exp,
                               thermal_weights)


class TestDensityMatrix:
    def test_validate_accepts_physical_state(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        check_density_matrix(rho)

    def test_validate_rejects_bad_trace(self):
        rho = np.diag([0.5, 0.6]).astype(complex)
        with pytest.raises(ContractViolation):
            check_density_matrix(rho)

    def test_validate_rejects_negative_eigenvalue(self):
        rho = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(ContractViolation):
            check_density_matrix(rho)

    def test_validate_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ContractViolation):
            check_density_matrix(rho)

    def test_shape_mismatch_rejected(self):
        # the dimension is the matrix's own: empty, non-square or 1-D fail
        for m in (np.zeros((0, 0)), np.ones((2, 3)), np.ones(4)):
            with pytest.raises(ContractViolation, match="shape"):
                check_density_matrix(m)


class TestFockOperators:
    def test_commutator_on_interior(self):
        f = FockOperators(10)
        comm = f.a @ f.a_dagger - f.a_dagger @ f.a
        # [a, a^dag] = 1 except on the truncation edge
        assert np.abs(comm[:-1, :-1] - np.eye(10)).max() < 1e-14

    def test_number_operator(self):
        f = FockOperators(6)
        assert np.allclose(np.diag(f.number).real, np.arange(7))

    def test_negative_n_max_rejected(self):
        with pytest.raises(ContractViolation):
            FockOperators(-1)


class TestThermal:
    def test_weights_geometric(self):
        w = thermal_weights(5, 2.0)
        ratio = w[1:] / w[:-1]
        assert np.allclose(ratio, 2.0 / 3.0)

    def test_zero_nbar_is_ground(self):
        w = thermal_weights(4, 0.0)
        assert w[0] == 1.0 and np.all(w[1:] == 0.0)

    def test_negative_nbar_rejected(self):
        with pytest.raises(ContractViolation):
            thermal_weights(4, -0.1)

    def test_state_trace_one_and_deficit(self):
        w = thermal_weights(40, 2.0)
        check_density_matrix(np.diag(w / w.sum()))
        # the weight held is 1 minus the geometric tail beyond n_max
        assert abs((1.0 - w.sum()) - (2.0 / 3.0)**41) < 1e-12

    def test_mean_occupation(self):
        nbar = 1.3
        w = thermal_weights(200, nbar)
        assert abs(np.arange(201) @ w / w.sum() - nbar) < 1e-9


class TestDisplacement:
    def test_unitary_within_precondition(self):
        f = FockOperators(60)
        for eta in (0.01, 0.06, 0.15):
            d = displacement_exp(f, eta)
            assert np.abs(d @ d.conj().T - np.eye(f.dim)).max() < 1e-12

    def test_inverse_is_conjugate(self):
        f = FockOperators(40)
        d = displacement_exp(f, 0.1)
        dm = displacement_exp(f, -0.1)
        assert np.abs(d @ dm - np.eye(f.dim)).max() < 1e-12

    def test_small_eta_series(self):
        f = FockOperators(50)
        eta = 1e-4
        d = displacement_exp(f, eta)
        x = f.a + f.a_dagger
        series = np.eye(f.dim) + 1j * eta * x - 0.5 * eta**2 * (x @ x)
        # truncation of the series is third order: eta^3 |x^3| / 6
        bound = eta**3 * np.abs(np.linalg.matrix_power(x, 3)).max() / 6.0
        assert np.abs(d - series).max() < 2.0 * bound

    def test_precondition_violation_raises(self):
        f = FockOperators(100)
        with pytest.raises(TruncationError):
            displacement_exp(f, 0.5)
