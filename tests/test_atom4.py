"""Four-level system: Hamiltonians, dark states, dressed levels."""

import numpy as np
import pytest

from eitcool import units
from eitcool.atom4 import (AmbiguityError, DegenerateParameterError, E,
                           EitParams, collapse_ops, dark_states,
                           dressed_cubic_coeffs, dressed_energies,
                           dressed_hamiltonian, dressed_stark_shift,
                           hamiltonian_rest)
from eitcool.numerics import ContractViolation, solve_cubic_real


def two_level_stark_shift(p):
    """Two-level estimate lumping both drive components into one Rabi rate.

    (sqrt(D^2 + Osp^2 + Osm^2) - D)/2 with D = delta_d + delta_B.  This is
    the closed-form number usually quoted for the peak-to-dark-state
    distance; it overestimates the exact four-level shift of
    dressed_stark_shift because the Zeeman splitting partially decouples
    the two drive components.
    """
    d = p.delta_d + p.delta_B
    om2 = p.omega_sigma_plus**2 + p.omega_sigma_minus**2
    return 0.5 * (np.sqrt(d * d + om2) - d)


def random_params(rng):
    return EitParams.from_mhz(
        rng.uniform(2.0, 25.0), rng.uniform(2.0, 25.0),
        rng.uniform(0.5, 10.0), rng.uniform(30.0, 80.0),
        rng.uniform(30.0, 80.0), rng.uniform(1.0, 8.0))


REF = EitParams.from_mhz(17.0, 17.0, 4.0, 55.6, 60.2, 4.6)


class TestParams:
    def test_detuning_labels(self):
        p = EitParams.from_mhz(1, 1, 1, 10.0, 12.0, 3.0)
        assert abs(units.to_mhz(p.delta_sigma_plus) - 7.0) < 1e-12
        assert abs(units.to_mhz(p.delta_sigma_minus) - 13.0) < 1e-12

    def test_negative_rabi_rejected(self):
        with pytest.raises(ContractViolation):
            EitParams.from_mhz(-1, 1, 1, 10, 10, 1)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ContractViolation):
            EitParams.from_mhz(1, 1, 1, 10, 10, 1, gamma=0.0)

    def test_replace_preserves_others(self):
        q = REF.replace(delta_p=units.mhz(61.0))
        assert q.omega_pi == REF.omega_pi
        assert abs(units.to_mhz(q.delta_p) - 61.0) < 1e-12

    def test_replace_validates(self):
        with pytest.raises(ContractViolation):
            REF.replace(gamma=0.0)
        with pytest.raises(TypeError):
            REF.replace(delta_x=1.0)


class TestHamiltonians:
    def test_rest_hermitian(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = hamiltonian_rest(random_params(rng))
            assert np.abs(h - h.conj().T).max() == 0.0

    def test_diagonal_detunings(self):
        h = hamiltonian_rest(REF)
        assert h[0, 0] == 0.0
        assert abs(h[1, 1] - (REF.delta_d + REF.delta_B)) < 1e-9
        assert abs(h[2, 2] - REF.delta_p) < 1e-9
        assert abs(h[3, 3] - (REF.delta_d - REF.delta_B)) < 1e-9

    def test_dressed_is_rest_with_probe_off(self):
        p = REF.replace(omega_pi=0.0, delta_p=0.0)
        assert np.abs(dressed_hamiltonian(REF)
                      - hamiltonian_rest(p)).max() < 1e-12


class TestDarkStates:
    def test_orthogonal_to_excited(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d1, d2 = dark_states(random_params(rng))
            assert abs(d1[E]) == 0.0
            assert abs(d2[E]) == 0.0

    def test_eigenstate_at_matching_probe_detuning(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = random_params(rng)
            d1, d2 = dark_states(p)
            for d, delta_p in ((d1, p.delta_d + p.delta_B),
                               (d2, p.delta_d - p.delta_B)):
                h = hamiltonian_rest(p.replace(delta_p=delta_p))
                lam = np.real(d.conj() @ h @ d)
                resid = np.abs(h @ d - lam * d).max()
                assert resid < 1e-12 * np.abs(h).max()

    def test_zero_norm_raises(self):
        p = REF.replace(omega_pi=0.0, omega_sigma_minus=0.0)
        with pytest.raises(DegenerateParameterError):
            dark_states(p)


class TestCollapse:
    def test_three_channels_total_gamma(self):
        ops = collapse_ops(REF)
        assert len(ops) == 3
        total = sum(c.conj().T @ c for c in ops)
        # total decay out of |e> is gamma
        assert abs(total[E, E] - REF.gamma) < 1e-9 * REF.gamma
        assert np.abs(total - np.diag(np.diag(total))).max() == 0.0

    def test_channels_feed_distinct_ground_states(self):
        ops = collapse_ops(REF)
        targets = {int(np.argwhere(np.abs(c) > 0)[0][0]) for c in ops}
        assert targets == {1, 2, 3}


class TestDressed:
    def test_contains_exact_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            vals = dressed_energies(random_params(rng))
            assert np.any(vals == 0.0)

    def test_cubic_roots_match_nonzero_energies(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_params(rng)
            vals = dressed_energies(p)
            nonzero = np.sort(vals[vals != 0.0])
            roots = solve_cubic_real(*dressed_cubic_coeffs(p))
            assert roots.size == nonzero.size == 3
            assert np.abs(roots - nonzero).max() < 2.0 * np.pi

    def test_stark_shift_reference_values(self):
        assert abs(units.to_mhz(dressed_stark_shift(REF))
                   - 1.3219210999048905) < 1e-9
        assert abs(units.to_mhz(two_level_stark_shift(REF))
                   - 2.3115720075407618) < 1e-9

    def test_two_level_upper_bounds_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_params(rng)
            exact = dressed_stark_shift(p)
            lumped = two_level_stark_shift(p)
            assert exact <= lumped + 1e-9

    def test_zero_sigma_plus_rejected(self):
        with pytest.raises(ContractViolation):
            dressed_stark_shift(REF.replace(omega_sigma_plus=0.0))

    def test_equidistant_levels_flagged(self):
        # delta_d = 0 and Omega = sqrt(6) delta_B put the dressed levels
        # at {0, +-2 delta_B}, both nonzero ones 2 delta_B away from the
        # delta_d + delta_B reference
        om = 2.0 * np.sqrt(6.0)
        p = EitParams.from_mhz(om, om, 1.0, 0.0, 0.0, 2.0)
        with pytest.raises(AmbiguityError):
            dressed_stark_shift(p)
