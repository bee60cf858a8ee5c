"""Lindblad master-equation engine.

drho/dt = -i[H, rho] + sum_i (c_i rho c_i^dag - 1/2 {c_i^dag c_i, rho})

The right-hand side is always evaluated in matrix form (O(d^3) work,
O(d^2) memory); the dense superoperator is only materialized for the
null-space steady-state solve on small systems.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import ContractViolation, integrate_ode
from .operators import square_matrix

# the dense Liouvillian (d^2 x d^2) and with it the steady-state solve
# are refused above this total dimension
NULL_SPACE_DIM_LIMIT = 64


class NonUniqueSteadyStateError(RuntimeError):
    pass


@dataclass
class LindbladSystem:
    hamiltonian: np.ndarray
    collapse: list

    def __post_init__(self):
        self.hamiltonian = square_matrix(self.hamiltonian, "hamiltonian")
        self.collapse = [np.asarray(c, dtype=complex) for c in self.collapse]
        for c in self.collapse:
            if c.shape != self.hamiltonian.shape:
                raise ContractViolation(
                    f"collapse shape {c.shape} does not match hamiltonian "
                    f"{self.hamiltonian.shape}")
        h = self.hamiltonian
        scale = max(np.abs(h).max(), 1.0)
        if np.abs(h - h.conj().T).max() > 1e-10 * scale:
            raise ContractViolation("hamiltonian is not Hermitian")
        self._heff = h.copy()
        for c in self.collapse:
            self._heff -= 0.5j * (c.conj().T @ c)

    def rhs_matrix(self, rho):
        """-i (H_eff rho - rho H_eff^dag) + sum c rho c^dag, (d, d) rho."""
        heff = self._heff
        out = -1j * (heff @ rho - rho @ heff.conj().T)
        for c in self.collapse:
            out += c @ rho @ c.conj().T
        return out

    def liouvillian_matrix(self):
        """Dense superoperator on vec(rho), row-major convention:
        L = -i H_eff (x) 1 + i 1 (x) H_eff^* + sum c (x) c^*, each A (x) B
        the broadcast A[i, k] B[j, l] at (i d + j, k d + l)."""
        d = len(self.hamiltonian)
        if d > NULL_SPACE_DIM_LIMIT:
            raise ContractViolation(
                f"dense Liouvillian refused for dim {d} > "
                f"{NULL_SPACE_DIM_LIMIT}")
        heff = self._heff
        eye = np.eye(d)
        cs = np.array(self.collapse).reshape(-1, d, d)
        L = (np.einsum("ik,jl->ijkl", -1j * heff, eye)
             + np.einsum("ik,jl->ijkl", eye, 1j * heff.conj())
             + np.einsum("aik,ajl->ijkl", cs, cs.conj()))
        return L.reshape(d * d, d * d)


def _finalize(mat):
    mat = 0.5 * (mat + mat.conj().T)
    tr = np.trace(mat).real
    if abs(tr - 1.0) > 1e-6:
        raise RuntimeError(f"trace drifted to {tr}")
    return mat / tr


def evolve(sys, rho0, t_list):
    """Density matrices, as (d, d) arrays, at the requested times.

    Integrates the full generator from t = 0 with integrate_ode's RK45 at
    its default tolerances, the reference the fixed-step SplitPropagator
    is checked against.
    """
    t_list = np.asarray(t_list, dtype=float)
    d = len(sys.hamiltonian)
    skip = int(t_list[0] != 0.0)        # 1 when t = 0 is prepended
    states = integrate_ode(lambda y: sys.rhs_matrix(y.reshape(d, d)).ravel(),
                           np.r_[0.0, t_list] if skip else t_list, rho0)
    return [_finalize(s.reshape(d, d)) for s in states[skip:]]


class SplitPropagator:
    """Fixed-step split propagator for the Lindblad generator.

    A step applies the exact no-jump propagator M = exp(-i H_eff dt) as
    M rho M^dag, then the first-order jump update (jump), then divides by
    the trace.  Subclasses with structured channels override jump.  The
    sandwich writes into a buffer allocated once.
    """

    def __init__(self, heff, dt, collapse=()):
        from scipy.linalg import expm

        self.dt = dt
        self.m1 = expm(-1j * heff * dt)
        self.m1d = np.ascontiguousarray(self.m1.conj().T)
        self.collapse = [(c, c.conj().T) for c in collapse]
        self.max_trace_correction = 0.0
        self._prod = np.empty_like(self.m1)

    def jump(self, rho):
        """rho += dt c rho c^dag for each channel in turn, in place."""
        for c, cd in self.collapse:
            rho += self.dt * (c @ rho @ cd)

    def step(self, rho):
        """Advance rho by one dt, overwriting it in place; returns rho.

        rho must be a C-contiguous complex (d, d) array.  The largest
        |tr - 1| removed by the per-step renormalisation so far is kept in
        max_trace_correction.
        """
        np.matmul(self.m1, rho, out=self._prod)
        np.matmul(self._prod, self.m1d, out=rho)
        self.jump(rho)
        tr = np.trace(rho).real
        self.max_trace_correction = max(self.max_trace_correction,
                                        abs(tr - 1.0))
        re_im = rho.view(np.float64)   # a real divide is cheaper than complex
        re_im /= tr
        return rho


def run_intervals(make, rho, t_list, dt_target, sample):
    """Step rho in place from t = 0 through each time of t_list.

    Each interval is cut into max(1, round(span / dt_target)) equal steps,
    so every sample lands exactly on its time; make(dt) builds the
    propagator for a step, once per distinct step.  Returns the list of
    sample(rho) at each time and the largest trace correction of any
    step.  dt_target must be > 0.
    """
    if not dt_target > 0:
        raise ContractViolation(f"dt_target must be > 0, got {dt_target!r}")
    out, props, t = [], {}, 0.0
    for t_next in t_list:
        span = t_next - t
        if span < 0:
            raise ContractViolation(
                "t_list must be non-decreasing and start at or after 0")
        if span > 0:
            n = max(1, int(round(span / dt_target)))
            key = round(span / n, 18)
            if key not in props:
                props[key] = make(span / n)
            for _ in range(n):
                props[key].step(rho)
        out.append(sample(rho))
        t = t_next
    return out, max((p.max_trace_correction for p in props.values()),
                    default=0.0)


def steadystate(sys):
    """Steady state of the Lindblad generator (dims <= 64 only).

    Solves the dense d^2 x d^2 linear system with the trace constraint
    replacing one row; the residual contract ||L rho_ss||_max <= 1e-9
    is evaluated on the generator normalized by its largest entry.
    """
    d = len(sys.hamiltonian)
    L = sys.liouvillian_matrix()
    L /= np.abs(L).max()
    A = L.copy()
    # replace the first row with the trace constraint
    A[0, :] = np.eye(d).ravel()
    b = np.zeros(d * d, dtype=complex)
    b[0] = 1.0
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NonUniqueSteadyStateError(
            "Liouvillian linear system is singular") from exc
    resid = np.abs(L @ x).max()
    if resid > 1e-9:
        raise NonUniqueSteadyStateError(
            f"null-space residual {resid:.3e} exceeds 1.0e-09; "
            "steady state may be non-unique")
    if d <= 32:
        sv = np.linalg.svd(L, compute_uv=False)
        if sv[-2] < 1e-10:
            raise NonUniqueSteadyStateError(
                "Liouvillian null space has dimension > 1")
    return _finalize(x.reshape(d, d))
