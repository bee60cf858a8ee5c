"""Probe absorption spectra of the four-level system.

Two routes to the same lineshape: the closed-form scattering-amplitude
profile W(Delta_pi) and the steady-state excited population of the
master equation, plus extraction of the null points and the three
bright-resonance peaks.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import units
from .atom4 import (collapse_ops, dressed_cubic_coeffs, dressed_stark_shift,
                    hamiltonian_rest)
from .lindblad import LindbladSystem, steadystate
from .numerics import ContractViolation, solve_cubic_real
from .operators import HilbertSpace


@dataclass
class SpectrumResult:
    detunings: np.ndarray          # probe detuning grid, rad/s
    values: np.ndarray             # analytic W (arb. units) or rho_ee
    nulls: tuple                   # (delta_sigma_plus, delta_sigma_minus)
    peaks: np.ndarray              # bright-resonance positions, rad/s
    failed: np.ndarray = None      # bool mask of failed numeric points
    failure_reasons: dict = field(default_factory=dict)   # index -> repr
    annotations: dict = field(default_factory=dict)


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
    return _result(p, grid, 16.0 * num**2 / z)


def absorption_numeric(p, grid, jobs=None):
    """Steady-state rho_ee versus swept probe detuning.

    Each grid point is an independent dim-4 null-space solve; a point
    whose solve fails numerically (RuntimeError, e.g. a non-unique
    steady state, or LinAlgError) is flagged in the result mask instead
    of being dropped, with repr(exc) kept in failure_reasons under its
    index.  Any other exception propagates.  jobs is accepted and unused:
    the small solves hold the GIL, so the points run in one loop.
    """
    if p.omega_pi <= 0:
        raise ContractViolation("probe must be on (omega_pi > 0)")
    grid = np.asarray(grid, dtype=float)
    space = HilbertSpace((4,))
    cops = collapse_ops(p)
    values = np.empty(grid.size)
    failed = np.zeros(grid.size, dtype=bool)
    reasons = {}

    for i, delta_p in enumerate(grid):
        try:
            h = hamiltonian_rest(p.replace(delta_p=delta_p))
            ss = steadystate(LindbladSystem(h, cops, space))
            values[i] = ss.matrix[0, 0].real
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            values[i] = np.nan
            failed[i] = True
            reasons[i] = repr(exc)

    return _result(p, grid, values, failed=failed, failure_reasons=reasons)


@dataclass
class BrightResonances:
    roots: np.ndarray        # ascending, rad/s
    cooling_peak: float      # the narrow peak used for cooling
    all_real: bool


def bright_resonances(p):
    """Real roots of the bright-resonance cubic, ascending.

    The cooling peak is the root adjacent to the dark resonance at
    delta_d + delta_B (the probe parking point of the cooling scheme).
    """
    if p.omega_sigma_plus == 0 and p.omega_sigma_minus == 0:
        raise ContractViolation("at least one drive component must be on")
    roots = solve_cubic_real(*dressed_cubic_coeffs(p))
    all_real = len(roots) == 3
    ref = p.delta_d + p.delta_B
    cooling_peak = float(roots[np.argmin(np.abs(roots - ref))])
    return BrightResonances(roots=roots, cooling_peak=cooling_peak,
                            all_real=all_real)


def _result(p, grid, values, **kw):
    """SpectrumResult of p, solving the bright-resonance cubic once."""
    br = bright_resonances(p)
    return SpectrumResult(
        detunings=grid, values=values,
        nulls=(p.delta_sigma_plus, p.delta_sigma_minus), peaks=br.roots,
        annotations={"carrier": p.delta_d + p.delta_B,
                     "cooling_peak": br.cooling_peak,
                     "stark_shift": dressed_stark_shift(p)}, **kw)


def write_csv(path, analytic, numeric=None):
    """CSV columns: delta_pi_MHz, W_analytic, rho_ee_numeric."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["delta_pi_MHz", "W_analytic", "rho_ee_numeric"])
        for i, d in enumerate(analytic.detunings):
            num = "" if numeric is None else repr(float(numeric.values[i]))
            wr.writerow([repr(float(units.to_mhz(d))),
                         repr(float(analytic.values[i])), num])
