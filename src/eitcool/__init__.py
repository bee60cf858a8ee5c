"""Double-EIT ground-state cooling toolkit for trapped Yb-type ions.

Modules: absorption spectra and dressed states of the four-level system
(atom4, spectrum), Lindblad dynamics (lindblad), cooling of quantized
motional modes (cooling), 2D-crystal normal modes (crystal), sideband
and optical-dipole-force thermometry (thermometry), AC-Stark beam
calibration (stark), shared numerics (numerics, operators), and a batch
CLI (cli).  Each name is imported from its own module
(`from eitcool.cooling import simulate_cooling`); the package root holds
the version only.

Each scipy routine is imported inside the function that calls it, so
importing any module (and with it every `eitcool` command) loads numpy
only: loading scipy's optimize and linalg takes longer than the whole
computation of a spectrum, sideband or ODF preset.
"""

__version__ = "0.1.0"
