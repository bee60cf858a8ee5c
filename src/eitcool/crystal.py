"""Planar ion-crystal structure and transverse normal modes.

Ions are confined to the y = 0 trap plane (x-z) during the structure
search; planarity is certified afterwards by positivity of the
transverse Hessian rather than assumed.  Lengths are scaled by
l = (q^2 / (4 pi eps0 M wz^2))^(1/3) internally, M the Yb-171 mass.
"""

from dataclasses import dataclass

import numpy as np

from . import units
from .numerics import ContractViolation

N_RESTARTS = 20                 # structure-search restarts
GRAD_TOL = 1e-10                # stationarity bound on max |grad|, scaled


class StructureSearchError(RuntimeError):
    pass


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call.

    A module-level function rather than an import inside
    equilibrium_positions, so that the stacked descent of all restarts
    goes through this module's global: the benchmark harness wraps
    crystal.minimize to count descents and their iterations.
    """
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


class PlanarInstabilityError(RuntimeError):
    pass


@dataclass
class CrystalConfig:
    n_ions: int
    omega_x: float                 # rad/s (in-plane)
    omega_y: float                 # rad/s (transverse, out of plane)
    omega_z: float                 # rad/s (in-plane)
    seed: int

    def __post_init__(self):
        if min(self.omega_x, self.omega_y, self.omega_z) <= 0:
            raise ContractViolation("trap frequencies must be positive")
        if self.n_ions < 1:
            raise ContractViolation("need at least one ion")

    @classmethod
    def from_mhz(cls, n_ions, omega_x, omega_y, omega_z, seed=0):
        return cls(n_ions=n_ions, omega_x=units.mhz(omega_x),
                   omega_y=units.mhz(omega_y), omega_z=units.mhz(omega_z),
                   seed=seed)

    @property
    def length_scale(self):
        return (units.COULOMB_K
                / (units.YB171_MASS * self.omega_z**2))**(1.0 / 3.0)


@dataclass
class ModeDecomposition:
    frequencies: np.ndarray        # rad/s, ascending
    b_matrix: np.ndarray           # columns are mode vectors b_j^m
    positions: np.ndarray          # (N, 2) equilibrium (x, z), meters
    hessian_trace: float = 0.0     # tr(K), rad^2/s^2


def _potential_and_grad(u, alpha):
    """Dimensionless in-plane energy and gradient; u = [x..., z...],
    stacked over any leading axes."""
    n = u.shape[-1] // 2
    x, z = u[..., :n], u[..., n:]
    dx = x[..., :, None] - x[..., None, :]
    dz = z[..., :, None] - z[..., None, :]
    r2 = dx * dx + dz * dz
    i = np.arange(n)
    r2[..., i, i] = np.inf
    r = np.sqrt(r2)
    v = (0.5 * np.sum(alpha * x * x + z * z, axis=-1)
         + 0.5 * np.sum(1.0 / r, axis=(-2, -1)))
    inv3 = 1.0 / (r2 * r)
    gx = alpha * x - np.sum(dx * inv3, axis=-1)
    gz = z - np.sum(dz * inv3, axis=-1)
    return v, np.concatenate([gx, gz], axis=-1)


def _hessian_blocks(u, alpha):
    """xx, xz and zz blocks, each (..., n, n), of the Hessian of
    _potential_and_grad's energy; the zx block equals the xz one."""
    n = u.shape[-1] // 2
    x, z = u[..., :n], u[..., n:]
    dx = x[..., :, None] - x[..., None, :]
    dz = z[..., :, None] - z[..., None, :]
    r2 = dx * dx + dz * dz
    i = np.arange(n)
    r2[..., i, i] = np.inf
    inv3 = 1.0 / (r2 * np.sqrt(r2))
    inv5 = 3.0 * inv3 / r2
    hxx = inv3 - dx * dx * inv5
    hzz = inv3 - dz * dz * inv5
    hxz = -dx * dz * inv5
    hxx[..., i, i] = alpha - hxx.sum(axis=-1)
    hzz[..., i, i] = 1.0 - hzz.sum(axis=-1)
    hxz[..., i, i] = -hxz.sum(axis=-1)
    return hxx, hxz, hzz


def _hessian_inplane(u, alpha):
    hxx, hxz, hzz = _hessian_blocks(u, alpha)
    return np.block([[hxx, hxz], [hxz, hzz]])


def _hex_seed(n, rng):
    """Triangular-lattice patch, closest sites first, mildly perturbed."""
    pts = []
    rad = int(np.ceil(np.sqrt(n))) + 2
    for i in range(-rad, rad + 1):
        for j in range(-rad, rad + 1):
            pts.append((i + 0.5 * j, j * np.sqrt(3.0) / 2.0))
    pts = np.array(pts)
    pts = pts[np.argsort(np.hypot(pts[:, 0], pts[:, 1]))][:n]
    spacing = 1.5 * max(1.0, n**(1.0 / 6.0))
    pts = pts * spacing + 0.15 * rng.standard_normal(pts.shape)
    return np.concatenate([pts[:, 0], pts[:, 1]])


def equilibrium_positions(c):
    """Equilibrium (x, z) positions in meters, center of charge at origin.

    Trust-region Newton-CG descent (exact in-plane Hessian) from
    N_RESTARTS perturbed hexagonal patches, each polished by a root
    solve of the gradient; the lowest-energy stationary point with
    gradient max-norm below GRAD_TOL (dimensionless) wins.  All restarts
    descend together as one problem: their summed energy is separable,
    so its minimisers are the restarts' own and its Hessian is
    block-diagonal, applied block by block.
    """
    n = c.n_ions
    if n == 1:
        return np.zeros((1, 2))
    alpha = (c.omega_x / c.omega_z)**2
    rng = np.random.default_rng(c.seed)
    starts = np.array([_hex_seed(n, rng) for _ in range(N_RESTARTS)])
    shape = starts.shape

    def energy(w):
        v, g = _potential_and_grad(w.reshape(shape), alpha)
        return v.sum(), g.ravel()

    cache = {}

    def hessp(w, p):
        # the CG inner loop applies the Hessian of one iterate many times
        key = w.tobytes()
        if key not in cache:
            cache.clear()
            cache[key] = _hessian_blocks(w.reshape(shape), alpha)
        hxx, hxz, hzz = cache[key]
        p = p.reshape(shape)[..., None]
        px, pz = p[..., :n, :], p[..., n:, :]
        return np.concatenate([hxx @ px + hxz @ pz, hxz @ px + hzz @ pz],
                              axis=-2).ravel()

    descended = minimize(energy, starts.ravel(), jac=True, hessp=hessp,
                         method="trust-ncg",
                         options={"gtol": GRAD_TOL, "maxiter": 2000}).x
    best = None
    best_v = np.inf
    from scipy.optimize import root

    for u in descended.reshape(shape):
        # the trust region compares energies, whose round-off stops the
        # descent near |grad| ~ 1e-8; a root finder on the gradient
        # (MINPACK hybrj) does not use them
        u = root(lambda w: _potential_and_grad(w, alpha)[1], u,
                 jac=lambda w: _hessian_inplane(w, alpha)).x
        v, g = _potential_and_grad(u, alpha)
        if np.abs(g).max() < GRAD_TOL and v < best_v - 1e-12:
            best_v, best = v, u
    if best is None:
        raise StructureSearchError(
            f"no equilibrium with |grad| < {GRAD_TOL} in "
            f"{N_RESTARTS} restarts")
    x, z = best[:n], best[n:]
    x -= x.mean()
    z -= z.mean()
    pos = np.column_stack([x, z]) * c.length_scale
    return pos


def _projector_basis(v):
    """Orthonormal basis of the span of v's orthonormal columns that
    depends only on the projector P = v v^T: Gram-Schmidt of the
    projected unit vectors P e_i in ion order, skipping residuals below
    1e-6 (ions that take no part by symmetry)."""
    basis = []
    for r in (v @ v.T).T:
        r = r - sum((u @ r) * u for u in basis)
        if np.linalg.norm(r) > 1e-6:
            basis.append(r / np.linalg.norm(r))
    return np.column_stack(basis[:v.shape[1]])


def transverse_modes(c, positions):
    """Transverse (y) mode frequencies and participation matrix.

    K_ij = wy^2 d_ij - (q^2 / 4 pi eps0 M)(d_ij sum_l 1/r_jl^3
           - (1 - d_ij)/r_ij^3); frequencies are sqrt(eigenvalues).
    The COM mode sits exactly at wy with uniform participation.
    """
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    if n != c.n_ions:
        raise ContractViolation("positions do not match ion count")
    # re-check the equilibrium condition
    u = np.concatenate([pos[:, 0], pos[:, 1]]) / c.length_scale
    _, g = _potential_and_grad(u, (c.omega_x / c.omega_z)**2)
    if np.abs(g).max() > 1e-8:
        raise ContractViolation(
            f"positions are not an equilibrium (|grad| = "
            f"{np.abs(g).max():.3e})")
    kq = units.COULOMB_K / units.YB171_MASS
    d = pos[:, None, :] - pos[None, :, :]
    r = np.sqrt((d * d).sum(axis=2))
    np.fill_diagonal(r, np.inf)
    inv3 = 1.0 / r**3
    K = kq * inv3
    np.fill_diagonal(K, -kq * inv3.sum(axis=1))
    K += c.omega_y**2 * np.eye(n)
    w2, b = np.linalg.eigh(K)
    if w2[0] <= 0:
        raise PlanarInstabilityError(
            f"planar crystal unstable: mode 0 has omega^2 = {w2[0]:.3e}")
    # eigh's basis inside an exactly degenerate subspace (relative
    # omega^2 gap below 1e-10, e.g. in-plane rotational symmetry) follows
    # rounding; replace it by one read off the subspace's projector
    split = np.flatnonzero(np.diff(w2) >= 1e-10 * np.abs(w2[1:])) + 1
    for group in np.split(np.arange(n), split):
        if group.size > 1:
            b[:, group] = _projector_basis(b[:, group])
    # sign convention: the first ion whose |b| is within 1e-9 relative of
    # the column maximum is positive; symmetric crystals have near-tied
    # maxima, and a plain argmax would pick between them by rounding
    mag = np.abs(b)
    first = np.argmax(mag >= (1.0 - 1e-9) * mag.max(axis=0), axis=0)
    b *= np.sign(b[first, np.arange(n)])
    return ModeDecomposition(frequencies=np.sqrt(w2), b_matrix=b,
                             positions=pos,
                             hessian_trace=float(np.trace(K)))
