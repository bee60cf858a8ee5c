"""Quantum operator algebra on finite Hilbert spaces.

Dense complex matrices throughout; a Hilbert space is an ordered list of
subsystem dimensions and operators on composites are built with Kronecker
products in that order.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import ContractViolation, eig_hermitian


class TruncationWarning(UserWarning):
    """A Fock-space truncation is discarding non-negligible weight."""


class TruncationError(ValueError):
    """Requested operation is invalid at this truncation level."""


@dataclass(frozen=True)
class HilbertSpace:
    subsystem_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.subsystem_dims)
        if not dims or any(d < 1 for d in dims):
            raise ContractViolation("subsystem dims must all be >= 1")
        object.__setattr__(self, "subsystem_dims", dims)

    @cached_property
    def dim(self):
        return math.prod(self.subsystem_dims)


@dataclass
class DensityMatrix:
    space: HilbertSpace
    matrix: np.ndarray
    truncation_deficit: float = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.space.dim, self.space.dim):
            raise ContractViolation(
                f"matrix shape {self.matrix.shape} does not match "
                f"space dim {self.space.dim}")

    def validate(self, herm_tol=1e-10, trace_tol=1e-9, pos_tol=1e-8):
        m = self.matrix
        scale = max(np.abs(m).max(), 1e-300)
        if np.abs(m - m.conj().T).max() > herm_tol * max(1.0, scale):
            raise ContractViolation("density matrix is not Hermitian")
        tr = np.trace(m).real
        if abs(tr - 1.0) > trace_tol:
            raise ContractViolation(f"trace {tr} deviates from 1")
        vals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if vals.min() < -pos_tol:
            raise ContractViolation(
                f"negative eigenvalue {vals.min():.3e}")
        return self

    def expect(self, op):
        return expect(op, self)


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


def default_n_max(nbar0):
    """Fock truncation for an initial thermal occupation nbar0.

    ceil(6 * nbar0) + 10 with a floor of 15 keeps the thermal truncation
    deficit below 0.5% up to the Doppler starting point nbar0 ~ 7.
    """
    return max(15, int(np.ceil(6.0 * nbar0)) + 10)


def tensor(ops):
    """Kronecker product of a list of square matrices, in listed order."""
    ops = list(ops)
    if not ops:
        raise ContractViolation("tensor of an empty operator list")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


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


def thermal_state(n_max, nbar):
    """Truncated thermal state, renormalized to trace 1.

    The truncation deficit (weight beyond n_max in the untruncated
    geometric distribution) is recorded on the returned DensityMatrix;
    a deficit above 1% triggers a TruncationWarning.
    """
    w = thermal_weights(n_max, nbar)
    held = w.sum()
    deficit = 1.0 - held
    if held < 0.99:
        warnings.warn(
            f"thermal truncation at n_max={n_max} holds only "
            f"{held:.4f} of the weight (deficit {deficit:.3e})",
            TruncationWarning)
    rho = np.diag(w / held).astype(complex)
    return DensityMatrix(HilbertSpace((n_max + 1,)), rho,
                         truncation_deficit=deficit)


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
    vals, vecs = eig_hermitian(x)
    return (vecs * np.exp(1j * eta * vals)) @ vecs.conj().T


def partial_trace(rho, keep):
    """Trace out every subsystem except ``keep`` (an index into the space)."""
    dims = rho.space.subsystem_dims
    if not 0 <= keep < len(dims):
        raise ContractViolation(f"keep index {keep} out of range")
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    # contract each traced subsystem pair, working from the highest index
    for j in reversed(range(n)):
        if j == keep:
            continue
        t = np.trace(t, axis1=j, axis2=j + (t.ndim // 2))
    d = dims[keep]
    return DensityMatrix(HilbertSpace((d,)), t.reshape(d, d),
                         truncation_deficit=rho.truncation_deficit)


def expect(op, rho):
    """tr(op rho); real part returned as complex (imag ~ 0 for Hermitian op)."""
    op = np.asarray(op, dtype=complex)
    if op.shape != rho.matrix.shape:
        raise ContractViolation(
            f"operator shape {op.shape} does not match state "
            f"{rho.matrix.shape}")
    return complex(np.einsum('ij,ji->', op, rho.matrix))
