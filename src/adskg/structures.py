"""Symplectic and complex-structure machinery on solution spaces.

Two layers: a trapezoid-quadrature symplectic potential/structure for
Klein-Gordon fields sampled near a flat equal-time surface, and a
finite-dimensional matrix model (omega, J, polarization projectors,
subspace taxonomy, isometry-invariance residuals) in which the algebraic
identities of the solution-space structures are exercised directly.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampledField",
    "theta_quadrature",
    "theta_omega_quadrature",
    "FiniteSymplecticSpace",
    "ComplexStructureMatrix",
    "g_inner_from_J",
    "polarization_project",
    "symplectic_complement",
    "classify_subspace",
    "invariance_residual",
]


@dataclass(frozen=True)
class SampledField:
    """Field data on a uniform periodic box at one instant.

    values and dt_values hold phi and its time derivative per node; the
    box lengths fix the quadrature volume element.
    """

    box: tuple
    values: np.ndarray
    dt_values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        dt_values = np.asarray(self.dt_values, dtype=complex)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dt_values", dt_values)
        if values.shape != dt_values.shape:
            raise ValueError("values and dt_values must share a grid")
        if len(self.box) != values.ndim or not 1 <= values.ndim <= 3:
            raise ValueError("box must give one length per grid dimension (1 to 3)")

    @property
    def cell_volume(self):
        return float(np.prod([L / n for L, n in zip(self.box, self.values.shape)]))


def _check_same_grid(eta, zeta):
    if eta.values.shape != zeta.values.shape or eta.box != zeta.box:
        raise ValueError("fields live on different grids")


def theta_quadrature(eta, zeta, orientation=1):
    """Symplectic potential theta_eta(zeta) on a flat equal-time surface.

    theta_eta(zeta) = -orientation * sign(g00) * int dx sqrt|g| g^tt zeta
    * dt(eta); on Minkowski sign(g00) g^tt = +1, and the periodic
    trapezoid rule is plain cell-volume summation.
    """
    _check_same_grid(eta, zeta)
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    return -orientation * complex(np.sum(zeta.values * eta.dt_values)) * eta.cell_volume


def theta_omega_quadrature(eta, zeta, orientation=1):
    """Potential and symplectic structure of a field pair.

    omega(eta, zeta) = (theta_eta(zeta) - theta_zeta(eta)) / 2; for a
    quadratic action this is independent of the base point.
    """
    th = theta_quadrature(eta, zeta, orientation)
    om = 0.5 * (th - theta_quadrature(zeta, eta, orientation))
    return th, om


@dataclass(frozen=True)
class FiniteSymplecticSpace:
    """(R^{2n}, omega) with omega a real antisymmetric invertible matrix."""

    omega: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", om)
        if om.ndim != 2 or om.shape[0] != om.shape[1] or om.shape[0] % 2:
            raise ValueError("omega must be square of even dimension")
        if np.abs(om + om.T).max() > 1e-12 * max(1.0, np.abs(om).max()):
            raise ValueError("omega must be antisymmetric")
        if abs(np.linalg.det(om)) < 1e-12:
            raise ValueError("omega must be nondegenerate")

    @property
    def dim(self):
        return self.omega.shape[0]

    @classmethod
    def standard(cls, n):
        om = np.zeros((2 * n, 2 * n))
        om[:n, n:] = np.eye(n)
        om[n:, :n] = -np.eye(n)
        return cls(om)

    def pairing(self, u, v):
        """omega(u, v), bilinear (no conjugation) on real or complex vectors."""
        return np.asarray(u) @ self.omega @ np.asarray(v)


@dataclass(frozen=True)
class ComplexStructureMatrix:
    """Real matrix J with J^2 = -1, compatible with a symplectic form."""

    space: FiniteSymplecticSpace
    j: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.j, dtype=float)
        object.__setattr__(self, "j", j)
        n = self.space.dim
        if j.shape != (n, n):
            raise ValueError("J shape mismatch")
        if np.abs(j @ j + np.eye(n)).max() > 1e-10:
            raise ValueError("J^2 = -1 violated")
        om = self.space.omega
        if np.abs(j.T @ om @ j - om).max() > 1e-10 * max(1.0, np.abs(om).max()):
            raise ValueError("J is not compatible with omega")


def g_inner_from_J(sp, J, u, v):
    """Real g-product and inner product induced by a complex structure.

    g(u, v) = 2 omega(u, J v); {u, v} = g(u, v) + 2 i omega(u, v).
    Bilinear on the complexified space.
    """
    g = 2.0 * sp.pairing(u, J.j @ np.asarray(v))
    return g, g + 2.0j * sp.pairing(u, v)


def polarization_project(J, sign, v):
    """Polarization projector P^+- v = (v -+ i J v) / 2 on complex vectors."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    v = np.asarray(v, dtype=complex)
    return 0.5 * (v - 1j * sign * (J.j @ v))


def _row_space_basis(rows, tol=1e-10):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    u, s, vt = np.linalg.svd(rows)
    rank = int(np.sum(s > tol * max(1.0, s[0] if len(s) else 1.0)))
    return vt[:rank], rank


def symplectic_complement(sp, basis):
    """Basis of S^omega = {v : omega(v, s) = 0 for all s in S}.

    Computed as the null space of the matrix with rows (omega b_i)^T;
    rank-deficient input is rejected.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[0] == 0:
        return np.eye(sp.dim)
    _, rank = _row_space_basis(basis)
    if rank < basis.shape[0]:
        raise ValueError("basis is linearly dependent")
    rows = basis @ sp.omega.T  # row i = (omega b_i)^T up to sign convention
    u, s, vt = np.linalg.svd(rows)
    tol = 1e-10 * max(1.0, s[0])
    rank = int(np.sum(s > tol))
    return vt[rank:]


def _contains(big, small, tol=1e-10):
    """span(small) subseteq span(big) by rank comparison."""
    if small.shape[0] == 0:
        return True
    if big.shape[0] == 0:
        return False
    stacked = np.vstack([big, small])
    _, rank_big = _row_space_basis(big, tol)
    _, rank_all = _row_space_basis(stacked, tol)
    return rank_all == rank_big


def classify_subspace(sp, basis):
    """Classify span(basis) as isotropic / coisotropic / lagrangian /
    symplectic, or "none" when no category applies.

    Containment tests against the symplectic complement: isotropic means
    S inside S^omega, coisotropic the reverse, lagrangian both, and
    symplectic a trivial intersection.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    if basis.shape[0] == 0 or np.abs(basis).max() == 0.0:
        return "isotropic"
    comp = symplectic_complement(sp, basis)
    s_in_comp = _contains(comp, basis)
    comp_in_s = _contains(basis, comp)
    if s_in_comp and comp_in_s:
        return "lagrangian"
    if s_in_comp:
        return "isotropic"
    if comp_in_s:
        return "coisotropic"
    stacked = np.vstack([basis, comp])
    _, rank_all = _row_space_basis(stacked)
    if rank_all == basis.shape[0] + comp.shape[0]:
        return "symplectic"
    return "none"


def invariance_residual(sp, k, u, v):
    """|omega(K u, v) + omega(u, K v)|: zero for generators leaving omega invariant."""
    k = np.asarray(k, dtype=float)
    u = np.asarray(u)
    v = np.asarray(v)
    return abs(sp.pairing(k @ u, v) + sp.pairing(u, k @ v))
