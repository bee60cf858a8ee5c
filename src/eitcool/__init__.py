"""Double-EIT ground-state cooling toolkit for trapped Yb-type ions.

Modules: absorption spectra and dressed states of the four-level system
(atom4, spectrum), Lindblad dynamics (lindblad), cooling of quantized
motional modes (cooling), 2D-crystal normal modes (crystal), sideband
and optical-dipole-force thermometry (thermometry), AC-Stark beam
calibration (stark), shared numerics (numerics, operators), and a batch
CLI (cli).

Each scipy routine is imported inside the function that calls it, so
importing the package (and with it every `eitcool` command) loads numpy
only: loading scipy's optimize and linalg takes longer than the whole
computation of a spectrum, sideband or ODF preset.
"""

__version__ = "0.1.0"

from . import units
from .atom4 import EitParams, dark_states, dressed_energies, dressed_stark_shift
from .cooling import MotionalMode, simulate_cooling, detuning_scan
from .crystal import CrystalConfig, equilibrium_positions, transverse_modes
from .lindblad import LindbladSystem, evolve, steadystate
from .operators import DensityMatrix, FockOperators
from .spectrum import absorption_analytic, absorption_numeric
from .stark import StarkParams, clock_shift, zeeman_shift, fit_rabi_components
from .thermometry import (OdfParams, SidebandParams, fit_nbar_ratio,
                          fit_nbar_trace, odf_signal, sideband_populations)

__all__ = [
    "__version__", "units",
    "EitParams", "dark_states", "dressed_energies", "dressed_stark_shift",
    "MotionalMode", "simulate_cooling", "detuning_scan",
    "CrystalConfig", "equilibrium_positions", "transverse_modes",
    "LindbladSystem", "evolve", "steadystate",
    "DensityMatrix", "FockOperators",
    "absorption_analytic", "absorption_numeric",
    "StarkParams", "clock_shift", "zeeman_shift", "fit_rabi_components",
    "OdfParams", "SidebandParams", "fit_nbar_ratio", "fit_nbar_trace",
    "odf_signal", "sideband_populations",
]
