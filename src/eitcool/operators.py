"""Quantum operator algebra on finite Hilbert spaces.

Dense complex matrices throughout: truncated Fock ladder operators,
thermal weights and displacement exponentials.  A density matrix is a
plain complex (d, d) array; check_density_matrix checks its shape and
physicality.
"""

from dataclasses import dataclass, field

import numpy as np

from .numerics import ContractViolation


class TruncationWarning(UserWarning):
    """A Fock-space truncation is discarding non-negligible weight."""


class TruncationError(ValueError):
    """Requested operation is invalid at this truncation level."""


def square_matrix(m, what):
    """m as a complex (d, d) array with d >= 1; ContractViolation naming
    what otherwise."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ContractViolation(
            f"{what} shape {m.shape} is not (d, d) with d >= 1")
    return m


def check_density_matrix(m):
    """ContractViolation unless m is a (d, d) Hermitian, unit-trace,
    positive semidefinite matrix."""
    m = square_matrix(m, "density matrix")
    scale = max(np.abs(m).max(), 1e-300)
    if np.abs(m - m.conj().T).max() > 1e-10 * max(1.0, scale):
        raise ContractViolation("density matrix is not Hermitian")
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-9:
        raise ContractViolation(f"trace {tr} deviates from 1")
    vals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if vals.min() < -1e-8:
        raise ContractViolation(f"negative eigenvalue {vals.min():.3e}")


@dataclass
class FockOperators:
    """Truncated single-mode ladder operators on dim n_max + 1."""
    n_max: int
    a: np.ndarray = field(init=False)
    a_dagger: np.ndarray = field(init=False)
    number: np.ndarray = field(init=False)

    def __post_init__(self):
        n = int(self.n_max)
        if n < 0:
            raise ContractViolation("n_max must be >= 0")
        self.n_max = n
        self.a = np.diag(np.sqrt(np.arange(1, n + 1)), 1).astype(complex)
        self.a_dagger = self.a.conj().T
        self.number = self.a_dagger @ self.a

    @property
    def dim(self):
        return self.n_max + 1


def thermal_weights(n_max, nbar):
    """Un-normalized thermal weights nbar^i / (nbar+1)^(i+1), i = 0..n_max."""
    if nbar < 0:
        raise ContractViolation("nbar must be >= 0")
    i = np.arange(n_max + 1)
    if nbar == 0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
        return w
    # log-space to stay finite at large n_max
    return np.exp(i * np.log(nbar) - (i + 1) * np.log(nbar + 1.0))


def displacement_exp(fock, eta):
    """exp(i eta (a + a^dagger)) on the truncated Fock space.

    Valid while |eta| sqrt(n_max) stays well below pi; beyond that the
    truncated exponential is no longer unitary on the interior levels.
    """
    if abs(eta) * np.sqrt(max(fock.n_max, 1)) > 1.5:
        raise TruncationError(
            f"|eta| sqrt(n_max) = {abs(eta) * np.sqrt(fock.n_max):.3f} "
            "violates the truncation precondition")
    x = fock.a + fock.a_dagger
    vals, vecs = np.linalg.eigh(x)
    return (vecs * np.exp(1j * eta * vals)) @ vecs.conj().T
