"""The four-level Yb+ double-EIT system.

Basis order is fixed as {|e>, |+>, |0>, |->}: the P1/2 excited state
followed by the S1/2 F=1 Zeeman triplet.  The sigma+/- detuning labels
follow delta_sigma_plus = delta_d - delta_B and
delta_sigma_minus = delta_d + delta_B, which is the only assignment
consistent with the bundled spectrum presets (see README, "Detuning
label convention").
"""

from dataclasses import dataclass, replace

import numpy as np

from . import units
from .numerics import ContractViolation

E, PLUS, ZERO, MINUS = 0, 1, 2, 3


class DegenerateParameterError(ValueError):
    """A requested state has zero norm for these parameters."""


class AmbiguityError(RuntimeError):
    """Two dressed levels are equidistant from the reference level."""


@dataclass
class EitParams:
    """Laser and atom parameters, all angular frequencies in rad/s."""
    omega_sigma_plus: float
    omega_sigma_minus: float
    omega_pi: float
    delta_d: float
    delta_p: float
    delta_B: float
    gamma: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ContractViolation("gamma must be positive")
        if min(self.omega_sigma_plus, self.omega_sigma_minus,
               self.omega_pi) < 0:
            raise ContractViolation("Rabi frequencies must be >= 0")

    @property
    def delta_sigma_plus(self):
        return self.delta_d - self.delta_B

    @property
    def delta_sigma_minus(self):
        return self.delta_d + self.delta_B

    @classmethod
    def from_mhz(cls, omega_sigma_plus, omega_sigma_minus, omega_pi,
                 delta_d, delta_p, delta_B, gamma=units.YB171_GAMMA_MHZ):
        return cls(*(units.mhz(v) for v in
                     (omega_sigma_plus, omega_sigma_minus, omega_pi,
                      delta_d, delta_p, delta_B, gamma)))

    def replace(self, **kw):
        return replace(self, **kw)


def hamiltonian_rest(p):
    """Rest-frame rotating-frame Hamiltonian, 4x4 on {|e>,|+>,|0>,|->}.

    The minus sign on the pi coupling is kept even though it is a pure
    phase convention; it makes the matrix textually comparable with the
    bundled presets and docs.
    """
    osp, osm, op_ = p.omega_sigma_plus, p.omega_sigma_minus, p.omega_pi
    return np.array([
        [0.0,       osm / 2,             -op_ / 2,  osp / 2],
        [osm / 2,   p.delta_d + p.delta_B, 0.0,     0.0],
        [-op_ / 2,  0.0,                 p.delta_p, 0.0],
        [osp / 2,   0.0,                 0.0,       p.delta_d - p.delta_B],
    ], dtype=complex)


def dark_states(p):
    """The two dark states d1 ~ Om_pi|+> + Om_sm|0>, d2 ~ Om_sp|0> + Om_pi|->.

    d1 (d2) is an exact eigenstate of hamiltonian_rest when
    delta_p = delta_d + delta_B (delta_p = delta_d - delta_B); in both
    cases <e|d> = 0 identically.
    """
    d1 = np.zeros(4, dtype=complex)
    d1[PLUS], d1[ZERO] = p.omega_pi, p.omega_sigma_minus
    d2 = np.zeros(4, dtype=complex)
    d2[ZERO], d2[MINUS] = p.omega_sigma_plus, p.omega_pi
    n1, n2 = np.linalg.norm(d1), np.linalg.norm(d2)
    if n1 == 0 or n2 == 0:
        raise DegenerateParameterError(
            "dark state has zero norm; need omega_pi or the matching "
            "sigma component nonzero")
    return d1 / n1, d2 / n2


def collapse_ops(p):
    """Spontaneous decay channels |e> -> {|+>,|0>,|->}, each at gamma/3."""
    rate = np.sqrt(p.gamma / 3.0)
    ops = []
    for g in (PLUS, ZERO, MINUS):
        c = np.zeros((4, 4), dtype=complex)
        c[g, E] = rate
        ops.append(c)
    return ops


def dressed_hamiltonian(p):
    """Drive-only Hamiltonian (probe off): |0> decouples entirely."""
    return hamiltonian_rest(p.replace(omega_pi=0.0, delta_p=0.0))


def dressed_energies(p):
    """Eigenvalues of the drive-only Hamiltonian, ascending.

    Always contains an exact zero (the decoupled |0> level); the other
    three solve the cubic factor of the characteristic equation.
    """
    vals = np.linalg.eigh(dressed_hamiltonian(p))[0]
    # pin the decoupled-|0> eigenvalue to exactly zero
    i = np.argmin(np.abs(vals))
    vals[i] = 0.0
    return np.sort(vals)


def dressed_cubic_coeffs(p):
    """Coefficients (c3..c0) of the nonzero-branch dressed-state cubic.

    4 x (x - dsp)(x - dsm) - (x - dsp) osm^2 - (x - dsm) osp^2 = 0,
    whose roots are the bright-resonance positions.
    """
    dsp, dsm = p.delta_sigma_plus, p.delta_sigma_minus
    osp2 = p.omega_sigma_plus**2
    osm2 = p.omega_sigma_minus**2
    c3 = 4.0
    c2 = -4.0 * (dsp + dsm)
    c1 = 4.0 * dsp * dsm - osm2 - osp2
    c0 = dsp * osm2 + dsm * osp2
    return c3, c2, c1, c0


def dressed_stark_shift(p):
    """AC Stark shift of the cooling dressed level from its bare position.

    The reference is delta_d + delta_B, the dark resonance the cooling
    scheme parks the probe on; the narrow cooling peak sits at that
    detuning plus this shift, so the optimal relative detuning is
    delta_B + shift - nu.
    """
    if p.omega_sigma_plus <= 0:
        raise ContractViolation("omega_sigma_plus must be positive")
    ref = p.delta_d + p.delta_B
    vals = dressed_energies(p)
    nonzero = vals[np.abs(vals) > 0]
    dist = np.abs(nonzero - ref)
    order = np.argsort(dist)
    if len(dist) > 1 and dist[order[1]] - dist[order[0]] < 1e-9 * max(
            abs(ref), 1.0):
        raise AmbiguityError(
            "two dressed levels are equidistant from the reference")
    return float(nonzero[order[0]] - ref)

