"""Probe absorption spectra of the four-level system.

Two routes to the same lineshape: the closed-form scattering-amplitude
profile W(Delta_pi) and the steady-state excited population of the
master equation.
"""

from dataclasses import dataclass, field

import numpy as np

from .atom4 import collapse_ops, dressed_cubic_coeffs, hamiltonian_rest
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
    three-level scattering matrix, so that is what is evaluated here.
    """
    grid = np.asarray(grid, dtype=float)
    dsp, dsm = p.delta_sigma_plus, p.delta_sigma_minus
    num = (grid - dsp) * (grid - dsm)
    c3, c2, c1, c0 = dressed_cubic_coeffs(p)
    cubic = ((c3 * grid + c2) * grid + c1) * grid + c0
    z = 4.0 * p.gamma**2 * num**2 + cubic**2
    return SpectrumResult(values=16.0 * num**2 / z)


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
