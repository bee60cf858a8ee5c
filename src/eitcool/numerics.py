"""Shared numerical kernels: Hermitian eigensolver, real cubic roots,
adaptive ODE integration (scipy's RK45 behind the StiffnessError
contract), and MINPACK Levenberg-Marquardt least squares
(scipy's least_squares behind the DegenerateFitError / sigma contract).

Everything downstream (spectra, cooling, thermometry, calibration fits)
funnels through these four entry points so the tolerance contracts live
in one place.
"""

from dataclasses import dataclass

import numpy as np


class ContractViolation(ValueError):
    """An input breaks a documented precondition."""


class DegenerateOrderError(ContractViolation):
    """Leading polynomial coefficient is zero."""


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed; carries the last good time."""

    def __init__(self, message, t_last):
        super().__init__(message)
        self.t_last = t_last


class DegenerateFitError(RuntimeError):
    """Normal equations are numerically singular."""

    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = condition


@dataclass
class FitResult:
    params: np.ndarray
    sigma: np.ndarray
    residual_norm: float
    converged: bool
    n_iter: int


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  The input
    must be Hermitian to 1e-10 relative to its largest entry; it is
    symmetrized before factorization so the contract
    ``M v = lambda v`` holds to 1e-9 * ||M||.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolation(f"matrix must be square, got {m.shape}")
    scale = max(np.abs(m).max(), 1.0)
    asym = np.abs(m - m.conj().T).max()
    if asym > 1e-10 * scale:
        raise ContractViolation(
            f"matrix is not Hermitian: |M - M^dag|_max = {asym:.3e} "
            f"(limit {1e-10 * scale:.3e})")
    m = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(m)
    return vals, vecs


def solve_cubic_real(c3, c2, c1, c0):
    """Real roots of c3 x^3 + c2 x^2 + c1 x + c0, ascending.

    Closed-form (Cardano / trigonometric) solution, independent of any
    eigenvalue machinery.  Complex-conjugate pairs are excluded; repeated
    real roots are reported once per distinct value.
    """
    if c3 == 0:
        raise DegenerateOrderError("leading coefficient c3 must be nonzero")
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    # depressed cubic t^3 + p t + q with x = t - b/3
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0)) / abs(c3)
    eps = 1e-12 * max(1.0, abs(p))**1.5

    disc = -(4.0 * p**3 + 27.0 * q * q)
    if abs(p) < 1e-14 * max(1.0, scale) and abs(q) < eps:
        roots = [shift]
    elif disc > 0:
        # three distinct real roots, trigonometric form (p < 0 here)
        r = 2.0 * np.sqrt(-p / 3.0)
        arg = np.clip(3.0 * q / (p * r), -1.0, 1.0)
        theta = np.arccos(arg)
        roots = [shift + r * np.cos((theta - 2.0 * np.pi * k) / 3.0)
                 for k in range(3)]
    elif abs(disc) <= 1e-10 * max(1.0, (abs(p)**3 + q * q)) and p != 0.0:
        # borderline double root: closed forms 3q/p (simple) and
        # -3q/(2p) (double) avoid picking the wrong Cardano branch
        roots = [shift + 3.0 * q / p, shift - 1.5 * q / p]
    else:
        # one real root
        u = -q / 2.0 + np.sqrt(q * q / 4.0 + p**3 / 27.0 + 0j)
        u = u**(1.0 / 3.0) if abs(u) > 0 else 0.0
        t0 = np.real(u - p / (3.0 * u)) if abs(u) > 0 else 0.0
        roots = [shift + t0]
    roots = sorted(set(_polish_cubic_root(c3, c2, c1, c0, r) for r in roots))
    return np.array(roots)


def _polish_cubic_root(c3, c2, c1, c0, x):
    # two Newton steps to push |p(x)| to the contract tolerance
    for _ in range(2):
        f = ((c3 * x + c2) * x + c1) * x + c0
        df = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if df != 0:
            x -= f / df
    return x


def integrate_ode(rhs, t_list, y0, rel_tol=1e-8, abs_tol=1e-10):
    """Integrate the time-independent dy/dt = rhs(y) over t_list.

    scipy's adaptive RK45 (Dormand-Prince 5(4)); t_list must be strictly
    increasing, its first entry is the initial time and the other states
    come from the per-step interpolant.  Returns an array of states of
    shape (len(t_list), len(y0)).  Raises StiffnessError, carrying the
    last time reached, when the step size underflows.
    """
    t_list = np.asarray(t_list, dtype=float)
    if rel_tol <= 0 or abs_tol <= 0:
        raise ContractViolation("tolerances must be positive")
    if t_list.ndim != 1 or np.any(np.diff(t_list) <= 0):
        raise ContractViolation("t_list must be strictly increasing")
    y = np.asarray(y0, dtype=complex).ravel()
    if not np.all(np.isfinite(y)):
        raise ContractViolation("initial state must be finite")
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, yy: rhs(yy), (t_list[0], t_list[-1]), y,
                    method="RK45", dense_output=True, rtol=rel_tol,
                    atol=abs_tol)
    if sol.status != 0:
        t_last = float(sol.t[-1])
        raise StiffnessError(f"{sol.message} (t = {t_last:.6e})", t_last)
    return sol.sol(t_list).T


def fit_least_squares(model, data, p0):
    """Weighted nonlinear least squares: MINPACK Levenberg-Marquardt.

    model(x, params) -> y_hat; data is (x, y, sigma_y) with sigma_y > 0
    and every input finite.  scipy's least_squares(method="lm") runs the
    iteration on a numerical Jacobian (central differences, step
    1e-6 * scale); every evaluation of it, including the one at the
    returned parameters, raises DegenerateFitError when cond(J^T J)
    exceeds 1e14 or is not finite.  1-sigma errors come from the diagonal
    of the inverse approximate Hessian (J^T J in whitened residual
    coordinates) at the returned parameters.  converged is MINPACK's
    success status; n_iter counts the Jacobian evaluations of the
    iteration.
    """
    x, y, sig = (np.asarray(v, dtype=float) for v in data)
    p = np.asarray(p0, dtype=float)
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(sig))
            and np.all(np.isfinite(p))):
        raise ContractViolation("y, sigma_y and p0 must be finite")
    if np.any(sig <= 0):
        raise ContractViolation("sigma_y must be positive")
    if y.size < p.size:
        raise ContractViolation("need at least as many points as parameters")

    def residuals(pp):
        return (np.asarray(model(x, pp), dtype=float) - y) / sig

    def jacobian(pp):
        J = np.empty((y.size, pp.size))
        for j in range(pp.size):
            step = 1e-6 * max(abs(pp[j]), 1.0)
            pu, pd = pp.copy(), pp.copy()
            pu[j] += step
            pd[j] -= step
            # whitened model derivative d(f/sigma)/dp_j
            J[:, j] = (residuals(pu) - residuals(pd)) / (2.0 * step)
        cond = np.linalg.cond(J.T @ J)
        if not np.isfinite(cond) or cond > 1e14:
            raise DegenerateFitError(
                f"singular Jacobian (cond ~ {cond:.3e})", cond)
        return J

    from scipy.optimize import least_squares

    # res.jac is jacobian(res.x): least_squares evaluates it once more at
    # the returned parameters, so the singularity check covers them too
    res = least_squares(residuals, p, jac=jacobian, method="lm")
    cov = np.linalg.inv(res.jac.T @ res.jac)
    sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(params=res.x, sigma=sigma,
                     residual_norm=float(np.linalg.norm(res.fun)),
                     converged=bool(res.status > 0), n_iter=int(res.njev))
