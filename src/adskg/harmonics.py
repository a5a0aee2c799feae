"""Hyperspherical harmonics on S^(d-1), d >= 3, with rotation machinery.

Harmonics are built from the product structure over nested spheres:
Gegenbauer factors in the upper angles, an associated Legendre factor and
e^{i m phi} on the base two-sphere.  The phase convention keeps every
factor real except e^{i m phi} (Legendre without Condon-Shortley, via
|m|), so that conj(Y^m) = Y^{-m} holds exactly.

Rotations act through Wigner blocks: on the two-sphere the blocks come
from the explicit small-d factorial sum composed with ZYZ phase factors,
in general dimension from sphere quadrature of rotated harmonics.  The
coefficient rule is c' = D c, paired with the point map by the matrix
returned from rotation_matrix_zyz (rotating frames, so the inverse of
the corresponding active rotation).
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .specfun import gamma_value, gegenbauer_c, legendre_p

__all__ = [
    "MultiIndex",
    "SphericalPoint",
    "LadderCoeffs",
    "multi_indices",
    "all_indices",
    "norm_const",
    "eval_harmonic",
    "eval_harmonic_angles",
    "harmonic_fn",
    "eval_harmonic_dcos",
    "ladder_coeffs",
    "sphere_quadrature",
    "sphere_inner",
    "harmonic_grid_matrix",
    "harmonic_gram",
    "sphere_surface",
    "to_cartesian",
    "to_angles",
    "rotation_matrix_zyz",
    "wigner_small_d",
    "wigner_block_euler",
    "wigner_block_quadrature",
    "rotate_coeffs",
]


@dataclass(frozen=True)
class MultiIndex:
    """Angular multi-index (l_{d-1}, ..., l_2; m).

    levels must be non-increasing and nonnegative, with levels[-1] >= |m|.
    """

    levels: tuple
    m: int

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        object.__setattr__(self, "m", int(self.m))
        if len(self.levels) < 1:
            raise ValueError("MultiIndex needs at least one level (d >= 3)")
        if any(v < 0 for v in self.levels):
            raise ValueError("MultiIndex levels must be nonnegative")
        if any(a < b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("MultiIndex levels must be non-increasing")
        if abs(self.m) > self.levels[-1]:
            raise ValueError("MultiIndex requires |m| <= l_2")

    @property
    def l(self):
        return self.levels[0]

    @property
    def dim(self):
        return len(self.levels) + 2

    def conjugate(self):
        return MultiIndex(self.levels, -self.m)


@dataclass(frozen=True)
class SphericalPoint:
    """Point on S^(d-1), angles ordered (theta_{d-1}, ..., theta_2, phi)."""

    d: int
    angles: tuple

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if self.d < 3:
            raise ValueError("SphericalPoint requires d >= 3")
        if len(self.angles) != self.d - 1:
            raise ValueError("SphericalPoint needs d-1 angles")
        for theta in self.angles[:-1]:
            if not -1e-12 <= theta <= math.pi + 1e-12:
                raise ValueError("polar angles must lie in [0, pi]")


@dataclass(frozen=True)
class LadderCoeffs:
    chi_minus: float
    chi_plus: float
    delta_minus: float
    delta_plus: float


def multi_indices(d, l):
    """All multi-indices on S^(d-1) with leading level l, in block order.

    The ordering (lexicographic over the descending chains, m ascending)
    is the row/column ordering used by the Wigner blocks.
    """
    if d < 3:
        raise ValueError("multi_indices requires d >= 3")
    chains = [(l,)]
    for _ in range(d - 3):
        chains = [ch + (nxt,) for ch in chains for nxt in range(ch[-1] + 1)]
    out = []
    for ch in sorted(chains):
        for m in range(-ch[-1], ch[-1] + 1):
            out.append(MultiIndex(ch, m))
    return out


def all_indices(d, l_max):
    """Multi-indices for every l from 0 to l_max."""
    out = []
    for l in range(l_max + 1):
        out.extend(multi_indices(d, l))
    return out


def _rel_norm(k, lk, lk1):
    """Relative normalization constant between the S^(k-1) and S^k levels.

    k >= 3 labels the sphere S^k whose polar angle is theta_k.
    """
    alpha = lk1 + (k + 1) / 2.0 - 1.0
    return (
        2.0 ** (lk1 + (k + 1) / 2.0 - 2.0)
        * gamma_value(alpha)
        * math.sqrt(
            math.factorial(lk - lk1)
            * (2.0 * lk + k - 1.0)
            / (math.pi * math.factorial(lk + lk1 + k - 2))
        )
    )


def _base_norm(l2, m):
    """Two-sphere normalization sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!)."""
    am = abs(m)
    return math.sqrt(
        (2.0 * l2 + 1.0)
        / (4.0 * math.pi)
        * math.factorial(l2 - am)
        / math.factorial(l2 + am)
    )


def norm_const(d, L):
    """Full normalization constant of Y_L on S^(d-1)."""
    if L.dim != d:
        raise ValueError("MultiIndex does not match dimension d")
    levels = L.levels  # (l_{d-1}, ..., l_2)
    n = _base_norm(levels[-1], L.m)
    for i, k in enumerate(range(d - 1, 2, -1)):
        n *= _rel_norm(k, levels[i], levels[i + 1])
    return n


def _axis_factors(L, cos, sin):
    """The real factor of Y_L on each polar axis theta_{d-1}, ..., theta_2 in turn.

    sin^{l_{k-1}} C_{l_k - l_{k-1}}^{l_{k-1} + (k-1)/2}(cos) on theta_k for
    k > 2, then P_{l_2}^{|m|}(cos) on theta_2; the norm and e^{i m phi}
    are left to the caller.  cos(i) and sin(i) give the i-th axis's cos
    and sin and are called only when that axis comes up.
    """
    levels = L.levels
    for i, k in enumerate(range(L.dim - 1, 2, -1)):
        lk, lk1 = levels[i], levels[i + 1]
        yield sin(i) ** lk1 * gegenbauer_c(lk - lk1, lk1 + (k - 1) / 2.0, cos(i))
    yield legendre_p(levels[-1], abs(L.m), cos(len(levels) - 1))


def eval_harmonic_angles(d, L, angles):
    """Vectorized harmonic evaluation.

    angles: array of shape (..., d-1), columns (theta_{d-1}, ..., theta_2, phi).
    """
    if L.dim != d:
        raise ValueError("MultiIndex does not match dimension d")
    angles = np.asarray(angles, dtype=float)
    out = np.full(angles.shape[:-1], norm_const(d, L), dtype=complex)
    factors = _axis_factors(L, lambda i: np.cos(angles[..., i]), lambda i: np.sin(angles[..., i]))
    for i, fac in enumerate(factors):
        if i == d - 3:  # the base axis carries e^{i m phi}
            fac = fac * np.exp(1j * L.m * angles[..., -1])
        out *= fac
    return out


def eval_harmonic(d, L, p):
    """Y_L at a single SphericalPoint."""
    if p.d != d:
        raise ValueError("point dimension mismatch")
    return complex(eval_harmonic_angles(d, L, np.asarray(p.angles)))


def harmonic_fn(d, L):
    """Vectorized callable suitable for sphere_inner."""
    return lambda angles: eval_harmonic_angles(d, L, angles)


def eval_harmonic_dcos(d, L, p):
    """Derivative of Y_L with respect to cos(theta_{d-1}) at p.

    Used for the contiguous derivative relation; analytic through the
    Gegenbauer and Legendre derivative recurrences, never finite
    differences.
    """
    if p.d != d:
        raise ValueError("point dimension mismatch")
    angles = np.asarray(p.angles)
    levels = L.levels
    x = math.cos(p.angles[0])
    sin2 = 1.0 - x * x
    if d == 3:
        l, am = levels[0], abs(L.m)
        # (1-x^2) dP^m_l/dx = (l+m) P^m_{l-1} - l x P^m_l
        if l == 0:
            dp = 0.0
        else:
            p_lm1 = legendre_p(l - 1, am, x) if am <= l - 1 else 0.0
            dp = ((l + am) * p_lm1 - l * x * legendre_p(l, am, x)) / sin2
        return norm_const(d, L) * dp * np.exp(1j * L.m * p.angles[-1])
    l, lsub = levels[0], levels[1]
    alpha = lsub + (d - 2) / 2.0
    n = l - lsub
    st = math.sqrt(max(0.0, sin2))
    cg = gegenbauer_c(n, alpha, x)
    dcg = 2.0 * alpha * gegenbauer_c(n - 1, alpha + 1.0, x) if n >= 1 else 0.0
    if lsub == 0:
        top = dcg
    else:
        top = -lsub * x * st ** (lsub - 2) * cg + st**lsub * dcg
    rest_idx = MultiIndex(levels[1:], L.m)
    rest = eval_harmonic_angles(d - 1, rest_idx, angles[1:])
    ratio = norm_const(d, L) / norm_const(d - 1, rest_idx)
    return ratio * top * rest


def ladder_coeffs(d, l, l_sub):
    """Raising/lowering coefficients of the contiguous relations on S^(d-1).

    For d = 3 the role of l_sub is played by |m|.
    """
    if not 0 <= l_sub <= l:
        raise ValueError("ladder_coeffs requires 0 <= l_sub <= l")
    if l == l_sub:
        # lowering out of the top rung vanishes identically
        chi_m = 0.0
    else:
        chi_m = math.sqrt(
            (l - l_sub) * (l + l_sub + d - 3.0) / ((2.0 * l + d - 4.0) * (2.0 * l + d - 2.0))
        )
    chi_p = math.sqrt(
        (l - l_sub + 1.0) * (l + l_sub + d - 2.0) / ((2.0 * l + d - 2.0) * (2.0 * l + d))
    )
    return LadderCoeffs(
        chi_minus=chi_m,
        chi_plus=chi_p,
        delta_minus=(l + d - 2.0) * chi_m,
        delta_plus=-l * chi_p,
    )


def _gauss_gegenbauer(n, lam):
    """Gaussian nodes/weights for the weight (1 - x^2)^lam on [-1, 1].

    Golub-Welsch on the symmetric Jacobi recurrence; lam = 0 falls back
    to the Legendre rule.  Exactness to polynomial degree 2n - 1 against
    the full axis measure is what lets order 24 integrate every harmonic
    product exercised here exactly.
    """
    if lam == 0.0:
        return np.polynomial.legendre.leggauss(n)
    k = np.arange(1, n)
    b = k * (k + 2.0 * lam) / ((2.0 * k + 2.0 * lam) ** 2 - 1.0)
    jac = np.diag(np.sqrt(b), 1)
    jac = jac + jac.T
    nodes, vecs = np.linalg.eigh(jac)
    mu0 = math.sqrt(math.pi) * gamma_value(lam + 1.0) / gamma_value(lam + 1.5)
    weights = mu0 * vecs[0, :] ** 2
    return nodes, weights


@lru_cache(maxsize=32)
def _quadrature_axes(d, order):
    """Per-axis nodes and weights: ((u_k, w_k) for each polar axis), (phi, w_phi)."""
    axes = []
    for k in range(d - 1, 2 - 1, -1):  # theta_{d-1} down to theta_2
        u, w = _gauss_gegenbauer(order, (k - 2) / 2.0)
        u.flags.writeable = False
        w.flags.writeable = False
        axes.append((u, w))
    phi = np.arange(2 * order) * (2.0 * math.pi / (2 * order))
    wphi = np.full(2 * order, 2.0 * math.pi / (2 * order))
    phi.flags.writeable = False
    wphi.flags.writeable = False
    return tuple(axes), (phi, wphi)


def _quadrature_weights(d, order):
    """Flat weights of the tensor-product rule, in sphere_quadrature point order."""
    axes, (_, wphi) = _quadrature_axes(d, order)
    return reduce(np.multiply.outer, [wk for (_, wk) in axes] + [wphi]).reshape(-1)


def _axis_tables(d, L_list, order):
    """Per-axis factor tables on the quadrature nodes, one (labels, nodes) array per axis."""
    if any(L.dim != d for L in L_list):
        raise ValueError("MultiIndex does not match dimension d")
    us = [u for (u, _) in _quadrature_axes(d, order)[0]]
    sins = [np.sqrt(np.maximum(0.0, 1.0 - u * u)) for u in us]
    rows = [_axis_factors(L, us.__getitem__, sins.__getitem__) for L in L_list]
    return [np.array(table) for table in zip(*rows)]


def sphere_quadrature(d, order):
    """Tensor-product quadrature on S^(d-1).

    Gaussian rule of the given order in each cos(theta_k) against the
    axis measure sin^{k-1}(theta_k) (plain Gauss-Legendre on the base
    two-sphere axis), uniform trapezoid with 2*order points in phi.
    Returns (angles, weights) with angles of shape (N, d-1); the weights
    carry the full sphere measure.
    """
    if order < 4:
        raise ValueError("sphere_quadrature requires order >= 4")
    axes, (phi, _) = _quadrature_axes(d, order)
    grids = [np.arccos(u) for (u, _) in axes] + [phi]
    mesh = np.meshgrid(*grids, indexing="ij")
    angles = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    return angles, _quadrature_weights(d, order)


def sphere_inner(d, f, g, order=24):
    """Inner product int_{S^(d-1)} f conj(g) dOmega by tensor quadrature.

    f and g must accept an (N, d-1) array of angles and return (N,) values.
    """
    angles, w = sphere_quadrature(d, order)
    return complex(np.sum(w * np.asarray(f(angles)) * np.conj(np.asarray(g(angles)))))


def harmonic_grid_matrix(d, L_list, order=24):
    """Evaluate many harmonics on the quadrature grid at once.

    Returns (Y, w): Y of shape (len(L_list), N) on the sphere_quadrature
    grid, built from the same per-angle factors as eval_harmonic but
    expanded axis by axis, which keeps large Gram checks affordable.
    """
    tables = _axis_tables(d, L_list, order)
    phi = _quadrature_axes(d, order)[1][0]
    w = _quadrature_weights(d, order)
    out = np.empty((len(L_list), len(w)), dtype=complex)
    for row, L in enumerate(L_list):
        factors = [t[row] for t in tables] + [np.exp(1j * L.m * phi)]
        norm = np.asarray(norm_const(d, L), dtype=complex)
        out[row] = reduce(np.multiply.outer, factors, norm).reshape(-1)
    return out, w


def harmonic_gram(d, L_list, order=24):
    """Gram matrix of harmonics under the tensor-product quadrature.

    Identical quadrature sum as pairing harmonic_grid_matrix rows, but
    contracted axis by axis: the integrand factorizes per angle, so each
    Gram entry is a product of one-dimensional quadratures and the
    azimuthal Kronecker delta (the 2*order-point trapezoid integrates
    e^{i(m - m')phi} exactly for |m - m'| < 2*order).
    """
    ms = np.array([L.m for L in L_list])
    for L in L_list:
        if L.dim != d:
            raise ValueError("MultiIndex does not match dimension d")
        if 2 * abs(L.m) >= 2 * order:
            raise ValueError("order too small for the azimuthal quantum numbers")
    gram = 2.0 * math.pi * (ms[:, None] == ms[None, :]).astype(float)
    norms = np.array([norm_const(d, L) for L in L_list])
    gram *= norms[:, None] * norms[None, :]
    for fac, (_, w) in zip(_axis_tables(d, L_list, order), _quadrature_axes(d, order)[0]):
        gram *= (fac * w) @ fac.T
    return gram


def sphere_surface(d):
    """Surface area of the unit sphere S^(d-1)."""
    return 2.0 * math.pi ** (d / 2.0) / gamma_value(d / 2.0)


def to_cartesian(angles):
    """Unit vector in R^d from angles (theta_{d-1}, ..., theta_2, phi)."""
    angles = np.asarray(angles, dtype=float)
    d = angles.shape[-1] + 1
    theta2 = angles[..., -2]
    phi = angles[..., -1]
    comps = [
        np.sin(theta2) * np.cos(phi),
        np.sin(theta2) * np.sin(phi),
        np.cos(theta2),
    ]
    for k in range(4, d + 1):
        theta = angles[..., d - k]
        st = np.sin(theta)
        comps = [c * st for c in comps]
        comps.append(np.cos(theta))
    return np.stack(comps, axis=-1)


def to_angles(x):
    """Angles of a (nonzero) vector in R^d, inverse of to_cartesian."""
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if d < 3:
        raise ValueError("to_angles requires d >= 3")
    angles = []
    v = x
    for k in range(d, 3, -1):
        r = np.linalg.norm(v, axis=-1)
        angles.append(np.arccos(np.clip(v[..., -1] / r, -1.0, 1.0)))
        v = v[..., :-1]
    r = np.linalg.norm(v, axis=-1)
    angles.append(np.arccos(np.clip(v[..., 2] / r, -1.0, 1.0)))
    angles.append(np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * math.pi))
    return np.stack(angles, axis=-1)


def _axis_rotation(d, i, j, a):
    """Plane rotation of R^d in the (i, j) plane, frame-rotation sign."""
    r = np.eye(d)
    r[i, i] = math.cos(a)
    r[i, j] = math.sin(a)
    r[j, i] = -math.sin(a)
    r[j, j] = math.cos(a)
    return r


def rotation_matrix_zyz(a1, a2, a3):
    """ZYZ rotation of R^3 as the point map paired with c' = D c.

    Composition: first a1 about the x3-axis, then a2 about x2, then a3
    about x3 again, each in the frame-rotation sign convention.  Its
    transpose is the corresponding active rotation.
    """
    r1 = _axis_rotation(3, 0, 1, a1)
    r2 = _axis_rotation(3, 2, 0, a2)
    r3 = _axis_rotation(3, 0, 1, a3)
    return r3 @ r2 @ r1


def wigner_small_d(l, beta):
    """Small d-matrix d^l_{m'm}(beta) by the explicit factorial sum.

    Indices run m', m = -l..l; the sum limits keep every factorial
    argument nonnegative.
    """
    if l < 0:
        raise ValueError("wigner_small_d requires l >= 0")
    size = 2 * l + 1
    out = np.zeros((size, size))
    half = 0.5 * beta
    sb, cb = math.sin(half), math.cos(half)
    for i, mp in enumerate(range(-l, l + 1)):
        for j, m in enumerate(range(-l, l + 1)):
            pref = math.sqrt(
                math.factorial(l + mp)
                * math.factorial(l - mp)
                * math.factorial(l + m)
                * math.factorial(l - m)
            )
            tot = 0.0
            for s in range(max(0, m - mp), min(l + m, l - mp) + 1):
                num = (
                    (-1.0) ** (s + mp - m)
                    * sb ** (2 * s + mp - m)
                    * cb ** (2 * l - 2 * s - mp + m)
                )
                den = (
                    math.factorial(s)
                    * math.factorial(s + mp - m)
                    * math.factorial(l - mp - s)
                    * math.factorial(l + m - s)
                )
                tot += num / den
            out[i, j] = pref * tot
    return out


def _phase_sign(m):
    # relates the real-normalization harmonics to the Condon-Shortley ones
    return (-1.0) ** m if m > 0 else 1.0


def wigner_block_euler(l, a1, a2, a3):
    """Two-sphere Wigner block for ZYZ Euler angles, harmonic-convention signs.

    D_{m'm} = e^{-i m' a1} s(m') s(m) d^l_{m'm}(a2) e^{-i m a3}, where the
    sign factors s carry the conversion between the Condon-Shortley
    convention of the small-d sum and the all-real-factor harmonics used
    here (conj(Y^m) = Y^{-m}).
    """
    d_mat = wigner_small_d(l, a2)
    ms = np.arange(-l, l + 1)
    signs = np.array([_phase_sign(m) for m in ms])
    ph1 = np.exp(-1j * ms * a1)
    ph3 = np.exp(-1j * ms * a3)
    return (ph1 * signs)[:, None] * d_mat * (ph3 * signs)[None, :]


def wigner_block_quadrature(d, l, rot, order=24):
    """Wigner block from sphere quadrature of rotated harmonics.

    D_{L L'} = int dOmega conj(Y_L(rot Omega)) Y_L'(Omega) over the
    multi_indices(d, l) label order.  Paired with c' = D c, the
    coefficients track the point map given by the transpose (= inverse)
    of rot.  The reference rows and weights are harmonic_grid_matrix's,
    whose points are sphere_quadrature's in the same order; only the
    rotated rows are evaluated pointwise.
    """
    labels = multi_indices(d, l)
    angles, _ = sphere_quadrature(d, order)
    rotated = to_angles(to_cartesian(angles) @ np.asarray(rot, dtype=float).T)
    # rows are written in place: at d = 5, order 24 each one holds 663k points
    y_rot = np.empty((len(labels), len(rotated)), dtype=complex)
    for row, L in enumerate(labels):
        y_rot[row] = eval_harmonic_angles(d, L, rotated)
    y_ref, w = harmonic_grid_matrix(d, labels, order)
    np.conj(y_rot, out=y_rot)
    y_rot *= w
    return y_rot @ y_ref.T


def rotate_coeffs(d, l, block, coeffs):
    """Apply a Wigner block to a coefficient vector over multi_indices(d, l).

    The returned coefficients satisfy
    sum_L c'_L Y_L(Omega) = sum_L c_L Y_L(R Omega) pointwise, with R the
    point map paired with the block (rotation_matrix_zyz for the Euler
    block, rot^T for a quadrature block).
    """
    block = np.asarray(block)
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(multi_indices(d, l))
    if block.shape != (n, n) or coeffs.shape != (n,):
        raise ValueError("block/coefficient shape mismatch with multi_indices(d, l)")
    return block @ coeffs
