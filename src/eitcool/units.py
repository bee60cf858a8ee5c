"""Unit conventions and physical constants.

All frequencies inside the library are angular frequencies in rad/s with
hbar = 1.  User-facing configs and CLI quote frequencies in MHz, meaning
omega/(2 pi); conversion happens once at the boundary.
"""

import numpy as np

# CODATA 2018 values, 9 significant digits
HBAR = 1.05457182e-34       # J s
EPSILON_0 = 8.85418781e-12  # F/m
ELEMENTARY_CHARGE = 1.60217663e-19  # C
AMU = 1.66053907e-27        # kg

# Yb-171, the one species modelled
YB171_MASS_AMU = 170.936332
YB171_MASS = YB171_MASS_AMU * AMU   # kg
YB171_S_P_WAVELENGTH_NM = 369.5
YB171_GAMMA_MHZ = 19.6          # P1/2 natural linewidth / 2pi
YB171_P_HYPERFINE_MHZ = 2105.0  # P1/2 hyperfine splitting
YB171_QUBIT_SPLITTING_MHZ = 12642.812  # S1/2 hyperfine (clock) splitting

COULOMB_K = ELEMENTARY_CHARGE**2 / (4.0 * np.pi * EPSILON_0)


def lamb_dicke(nu):
    """Lamb-Dicke factor k sqrt(hbar / (2 M nu)) of a Yb-171 mode at nu
    (rad/s, scalar or array) for the 369.5 nm beams."""
    k = 2.0 * np.pi / (YB171_S_P_WAVELENGTH_NM * 1e-9)
    return k * np.sqrt(HBAR / (2.0 * YB171_MASS * nu))


def mhz(value):
    """Convert a frequency given as omega/(2 pi) in MHz to rad/s."""
    return 2.0 * np.pi * 1e6 * value


def to_mhz(omega):
    """Convert an angular frequency in rad/s to omega/(2 pi) in MHz."""
    return omega / (2.0 * np.pi * 1e6)

