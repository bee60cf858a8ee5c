"""Planar crystal structure and transverse normal modes."""

import numpy as np
import pytest

from eitcool import crystal
from eitcool.crystal import (CrystalConfig, PlanarInstabilityError,
                             equilibrium_positions, transverse_modes)
from eitcool.numerics import ContractViolation


def make(n, wx=0.34, wy=1.22, wz=0.42, seed=0):
    return CrystalConfig.from_mhz(n, wx, wy, wz, seed=seed)


class TestConfig:
    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ContractViolation):
            make(3, wx=0.0)

    def test_zero_ions_rejected(self):
        with pytest.raises(ContractViolation):
            make(0)

    @pytest.mark.parametrize("mass_amu", [0.0, -1.0])
    def test_nonpositive_mass_rejected(self, mass_amu):
        with pytest.raises(ContractViolation, match="mass"):
            CrystalConfig.from_mhz(3, 1.22, 0.42, 1.22, mass_amu=mass_amu)

    def test_length_scale_magnitude(self):
        # micrometer scale for MHz traps and Yb mass
        c = make(2)
        assert 1e-6 < c.length_scale < 1e-5


class TestEquilibrium:
    def test_single_ion_at_origin(self):
        c = make(1)
        assert np.abs(equilibrium_positions(c)).max() == 0.0

    def test_two_ion_closed_form(self):
        c = make(2)
        pos = equilibrium_positions(c)
        # the pair aligns along the softer in-plane axis (x here) with
        # separation (2 / alpha)^(1/3) in scaled units
        alpha = (c.omega_x / c.omega_z)**2
        s_expected = (2.0 / alpha)**(1.0 / 3.0) * c.length_scale
        s = np.linalg.norm(pos[0] - pos[1])
        assert abs(s - s_expected) < 1e-9 * s_expected
        assert np.abs(pos[:, 1]).max() < 1e-9 * s_expected

    def test_center_of_charge_at_origin(self):
        c = make(7)
        pos = equilibrium_positions(c)
        assert np.abs(pos.mean(axis=0)).max() < 1e-12 * np.abs(pos).max()

    def test_single_restart_reaches_gradient_tolerance(self, monkeypatch):
        # descent alone stops above GRAD_TOL on energy round-off in most
        # restarts; each one must still end at a stationary point
        monkeypatch.setattr(crystal, "N_RESTARTS", 1)
        for seed in range(8):
            equilibrium_positions(make(12, seed=seed))

    def test_deterministic_given_seed(self):
        a = equilibrium_positions(make(5, seed=3))
        b = equilibrium_positions(make(5, seed=3))
        assert np.abs(a - b).max() == 0.0

    def test_each_restart_descends_through_the_module_minimize(
            self, monkeypatch):
        # the benchmark harness counts descents by wrapping
        # crystal.minimize, so the search must look the name up there; all
        # restarts descend together in one call
        calls, real = [], crystal.minimize

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(crystal, "N_RESTARTS", 4)
        monkeypatch.setattr(crystal, "minimize", spy)
        ref = equilibrium_positions(make(5, seed=3))
        assert len(calls) == 1
        assert np.size(calls[0][1]) == 4 * 2 * 5
        monkeypatch.setattr(crystal, "minimize", real)
        assert np.array_equal(ref, equilibrium_positions(make(5, seed=3)))


def per_restart_search(c, n_restarts=20, grad_tol=1e-10):
    """The search with one descent per restart: (best energy, positions).

    The oracle for the stacked descent of equilibrium_positions: same
    seeds, polish, acceptance and selection, each restart descending
    alone.
    """
    from scipy.optimize import minimize, root

    n = c.n_ions
    alpha = (c.omega_x / c.omega_z)**2
    rng = np.random.default_rng(c.seed)
    best, best_v = None, np.inf
    for _ in range(n_restarts):
        u = minimize(crystal._potential_and_grad, crystal._hex_seed(n, rng),
                     args=(alpha,), jac=True,
                     hess=crystal._hessian_inplane, method="trust-ncg",
                     options={"gtol": grad_tol, "maxiter": 2000}).x
        u = root(lambda w: crystal._potential_and_grad(w, alpha)[1], u,
                 jac=lambda w: crystal._hessian_inplane(w, alpha)).x
        v, g = crystal._potential_and_grad(u, alpha)
        if np.abs(g).max() < grad_tol and v < best_v - 1e-12:
            best_v, best = v, u
    x, z = best[:n] - best[:n].mean(), best[n:] - best[n:].mean()
    return best_v, np.column_stack([x, z]) * c.length_scale


@pytest.mark.parametrize("n", [2, 3, 7, 12, 20])
def test_stacked_descent_matches_per_restart_oracle(n, monkeypatch):
    import scipy.optimize

    polished, real_root = [], scipy.optimize.root

    def spy(*args, **kwargs):
        res = real_root(*args, **kwargs)
        polished.append(res.x)
        return res

    for seed in range(3):
        c = make(n, seed=seed)
        alpha = (c.omega_x / c.omega_z)**2
        v_ref, pos_ref = per_restart_search(c)
        polished.clear()
        monkeypatch.setattr(scipy.optimize, "root", spy)
        pos = equilibrium_positions(c)
        monkeypatch.undo()
        assert len(polished) == 20
        for u in polished:
            assert np.abs(crystal._potential_and_grad(u, alpha)[1]).max() \
                < 1e-10
        u = np.concatenate([pos[:, 0], pos[:, 1]]) / c.length_scale
        v = crystal._potential_and_grad(u, alpha)[0]
        assert abs(v - v_ref) <= 1e-12 * abs(v_ref)
        assert np.abs(pos - pos_ref).max() <= 1e-9 * c.length_scale


class TestModes:
    def test_single_ion_mode_at_trap_frequency(self):
        c = make(1)
        modes = transverse_modes(c, equilibrium_positions(c))
        assert modes.frequencies.size == 1
        assert abs(modes.frequencies[0] - c.omega_y) < 1e-9 * c.omega_y
        assert modes.b_matrix.tolist() == [[1.0]]
        assert modes.hessian_trace == c.omega_y**2

    def test_com_mode_exact(self):
        c = make(5)
        modes = transverse_modes(c, equilibrium_positions(c))
        i = np.argmin(np.abs(modes.frequencies - c.omega_y))
        assert abs(modes.frequencies[i] - c.omega_y) < 1e-9 * c.omega_y
        b = modes.b_matrix[:, i]
        assert np.abs(np.abs(b) - 1.0 / np.sqrt(5.0)).max() < 1e-9

    def test_com_is_highest_transverse_mode(self):
        c = make(6)
        modes = transverse_modes(c, equilibrium_positions(c))
        assert abs(modes.frequencies[-1] - c.omega_y) < 1e-9 * c.omega_y

    def test_trace_identity(self):
        c = make(6)
        modes = transverse_modes(c, equilibrium_positions(c))
        lhs = np.sum(modes.frequencies**2)
        assert abs(lhs - modes.hessian_trace) < 1e-9 * lhs

    def test_mode_vectors_orthonormal(self):
        c = make(6)
        modes = transverse_modes(c, equilibrium_positions(c))
        b = modes.b_matrix
        assert np.abs(b.T @ b - np.eye(6)).max() < 1e-10

    def test_mode_signs_survive_rounding(self):
        # the fig4 crystal: its symmetric modes have near-tied largest
        # components, so a 1e-12 change of the positions must not flip a
        # column's sign
        c = make(12)
        pos = equilibrium_positions(c)
        ref = transverse_modes(c, pos).b_matrix
        rng = np.random.default_rng(4)
        for _ in range(10):
            moved = pos * (1.0 + 1e-12 * rng.standard_normal(pos.shape))
            b = transverse_modes(c, moved).b_matrix
            assert np.abs(b - ref).max() < 1e-6

    def test_degenerate_mode_basis_survives_rounding(self):
        # in-plane rotational symmetry (omega_x = omega_z) gives exactly
        # degenerate mode pairs; their vectors must not follow rounding
        c = make(7, wx=0.42, wz=0.42)
        pos = equilibrium_positions(c)
        modes = transverse_modes(c, pos)
        w2 = modes.frequencies**2
        assert np.sum(np.diff(w2) < 1e-10 * w2[1:]) == 2
        ref = modes.b_matrix
        assert np.abs(ref.T @ ref - np.eye(7)).max() < 1e-12
        rng = np.random.default_rng(4)
        for _ in range(10):
            moved = pos * (1.0 + 1e-12 * rng.standard_normal(pos.shape))
            b = transverse_modes(c, moved).b_matrix
            assert np.abs(b - ref).max() < 1e-9

    def test_nonequilibrium_positions_rejected(self):
        c = make(4)
        pos = equilibrium_positions(c)
        with pytest.raises(ContractViolation):
            transverse_modes(c, pos * 1.5)

    def test_wrong_ion_count_rejected(self):
        c = make(4)
        pos = equilibrium_positions(make(3))
        with pytest.raises(ContractViolation):
            transverse_modes(c, pos)

    def test_soft_transverse_confinement_unstable(self):
        c = make(8, wy=0.12)
        pos = equilibrium_positions(c)
        with pytest.raises(PlanarInstabilityError) as exc:
            transverse_modes(c, pos)
        assert exc.value.mode_index == 0
