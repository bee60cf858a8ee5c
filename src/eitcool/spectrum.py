"""Probe absorption spectra of the four-level system.

Two routes to the same lineshape: the closed-form scattering-amplitude
profile W(Delta_pi) and the steady-state excited population of the
master equation.
"""

from dataclasses import dataclass, field

import numpy as np

from .atom4 import collapse_ops, hamiltonian_rest
from .lindblad import LindbladSystem, steadystate
from .numerics import ContractViolation


@dataclass
class SpectrumResult:
    values: np.ndarray             # analytic W (arb. units) or rho_ee
    failed: np.ndarray = None      # bool mask of failed numeric points
    failure_reasons: dict = field(default_factory=dict)   # index -> repr


def absorption_analytic(p, grid):
    """Scattering-amplitude profile W(Delta_pi), arbitrary units.

    W = 16 N^2 / Z with N = (D - ds+)(D - ds-) and
    Z = 4 Gamma^2 N^2 + C^2, C the bright-resonance cubic.  The published
    denominator repeats the (D - ds-) factor where the mixed product
    belongs; only the mixed form reduces to |T|^2 of the projected
    three-level scattering matrix, so that is what is evaluated here,
    with N cancelled: W = 16 / (4 Gamma^2 + S^2),
    S = C / N = 4 D - sum Omega_s^2 / (D - ds) over the sigma drives that
    are on.  At D = ds of a drive that is on, S is infinite and W the
    exact dark zero; with one drive off W is the single-Lambda profile,
    with both off the Lorentzian 4 / (Gamma^2 + 4 D^2).
    """
    grid = np.asarray(grid, dtype=float)
    s = 4.0 * grid
    with np.errstate(divide="ignore"):
        for omega, ds in ((p.omega_sigma_plus, p.delta_sigma_plus),
                          (p.omega_sigma_minus, p.delta_sigma_minus)):
            if omega > 0:
                s = s - omega**2 / (grid - ds)
    return SpectrumResult(values=16.0 / (4.0 * p.gamma**2 + s**2))


def absorption_numeric(p, grid):
    """Steady-state rho_ee versus swept probe detuning.

    Each grid point is an independent dim-4 null-space solve; a point
    whose solve fails numerically (RuntimeError, e.g. a non-unique
    steady state, or LinAlgError) is flagged in the result mask instead
    of being dropped, with repr(exc) kept in failure_reasons under its
    index.  Any other exception propagates.
    """
    if p.omega_pi <= 0:
        raise ContractViolation("probe must be on (omega_pi > 0)")
    grid = np.asarray(grid, dtype=float)
    cops = collapse_ops(p)
    values = np.empty(grid.size)
    failed = np.zeros(grid.size, dtype=bool)
    reasons = {}

    for i, delta_p in enumerate(grid):
        try:
            h = hamiltonian_rest(p.replace(delta_p=delta_p))
            ss = steadystate(LindbladSystem(h, cops))
            values[i] = ss.matrix[0, 0].real
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            values[i] = np.nan
            failed[i] = True
            reasons[i] = repr(exc)

    return SpectrumResult(values=values, failed=failed,
                          failure_reasons=reasons)
