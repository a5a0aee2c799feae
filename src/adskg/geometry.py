"""Killing vector fields on flat R^(p,q) and Minkowski spacetime.

Generators are polynomial vector fields with exact rational coefficients,
so Killing-equation residuals, Lie brackets and the so(p,q) / Poincare
structure constants are verified as polynomial identities, not within a
floating tolerance.  Floating point enters only when evaluating the
Minkowski generators in the spherical (t, r, xi) frame.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Signature",
    "Polynomial",
    "PolyVectorField",
    "translation_field",
    "killing_field",
    "killing_residual",
    "lie_bracket",
    "structure_check",
    "StructureReport",
    "minkowski_killing_spherical",
    "spherical_frame_components",
]


@dataclass(frozen=True)
class Signature:
    """Flat metric signature: p entries of -1 followed by q entries of +1.

    The timelike directions carry -1, so Minkowski spacetime is (1, 3).
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError("Signature requires p, q >= 0 with p + q >= 1")

    @property
    def n(self):
        return self.p + self.q

    @property
    def eta(self):
        return tuple([-1] * self.p + [1] * self.q)


class Polynomial:
    """Polynomial in n variables with Fraction coefficients.

    Represented as {exponent tuple: Fraction}; all arithmetic is exact.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        if coeffs:
            for mono, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    self.coeffs[tuple(mono)] = c

    @classmethod
    def constant(cls, n, value):
        return cls(n, {(0,) * n: Fraction(value)})

    @classmethod
    def variable(cls, n, i):
        mono = [0] * n
        mono[i] = 1
        return cls(n, {tuple(mono): Fraction(1)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return Polynomial(self.n, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            out[mono] = out.get(mono, Fraction(0)) - c
        return Polynomial(self.n, out)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out = {}
            for m1, c1 in self.coeffs.items():
                for m2, c2 in other.coeffs.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    out[mono] = out.get(mono, Fraction(0)) + c1 * c2
            return Polynomial(self.n, out)
        return Polynomial(self.n, {m: c * Fraction(other) for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def diff(self, i):
        out = {}
        for mono, c in self.coeffs.items():
            if mono[i] == 0:
                continue
            new = list(mono)
            new[i] -= 1
            out[tuple(new)] = out.get(tuple(new), Fraction(0)) + c * mono[i]
        return Polynomial(self.n, out)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def evaluate(self, values):
        total = Fraction(0)
        acc = 0.0
        exact = all(isinstance(v, (int, Fraction)) for v in values)
        for mono, c in self.coeffs.items():
            term = c if exact else float(c)
            for i, e in enumerate(mono):
                for _ in range(e):
                    term = term * values[i]
            if exact:
                total += term
            else:
                acc += term
        return total if exact else acc

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mono, c in sorted(self.coeffs.items()):
            vars_part = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e
            )
            parts.append(f"{c}" + (f"*{vars_part}" if vars_part else ""))
        return " + ".join(parts)


class PolyVectorField:
    """Vector field with one Polynomial per coordinate component."""

    __slots__ = ("n", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("empty vector field")
        self.n = components[0].n
        if any(c.n != self.n for c in components):
            raise ValueError("component variable-count mismatch")
        self.components = components

    @classmethod
    def zero(cls, n):
        return cls([Polynomial(n) for _ in range(n)])

    def __add__(self, other):
        return PolyVectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return PolyVectorField([a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, scalar):
        return PolyVectorField([c * scalar for c in self.components])

    __rmul__ = __mul__

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        return isinstance(other, PolyVectorField) and self.components == other.components

    def apply_to(self, f):
        """Directional derivative V(f) of a Polynomial f."""
        acc = {}
        _add_transport(acc, self, f, 1)
        return Polynomial(self.n, acc)

    def evaluate(self, values):
        return tuple(c.evaluate(values) for c in self.components)


def translation_field(sig, a):
    """T_a = d/dx^a."""
    n = sig.n
    comps = [Polynomial(n) for _ in range(n)]
    comps[a] = Polynomial.constant(n, 1)
    return PolyVectorField(comps)


def killing_field(sig, a, b):
    """Rotation/boost generator K_{ab} with lowered labels.

    (K_{ab})^Q = X_a delta^Q_b - X_b delta^Q_a with X_a = eta_{aa} X^a.
    Returns the zero field for a = b.
    """
    n = sig.n
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError("labels out of range")
    if a == b:
        return PolyVectorField.zero(n)
    eta = sig.eta
    comps = [Polynomial(n) for _ in range(n)]
    comps[b] = Polynomial.variable(n, a) * eta[a]
    comps[a] = comps[a] - Polynomial.variable(n, b) * eta[b]
    return PolyVectorField(comps)


def killing_residual(sig, field):
    """Symmetrized lowered derivative eta_NN d_M V^N + eta_MM d_N V^M.

    The flat metric has vanishing Christoffel symbols, so this matrix of
    polynomials vanishes identically exactly when V is a Killing field.
    """
    n = sig.n
    eta = sig.eta
    out = []
    for m_idx in range(n):
        row = []
        for n_idx in range(n):
            row.append(
                eta[n_idx] * field.components[n_idx].diff(m_idx)
                + eta[m_idx] * field.components[m_idx].diff(n_idx)
            )
        out.append(row)
    return out


def _add_transport(acc, v, f, sign):
    """Add sign * V^P d_P f into acc, a {monomial: Fraction} dict.

    Only nonzero components V^P and monomials of f with a positive
    exponent in x_P contribute; each term carries that exponent.
    """
    for p_idx, vp in enumerate(v.components):
        if not vp.coeffs:
            continue
        for mono, c in f.coeffs.items():
            e = mono[p_idx]
            if not e:
                continue
            lowered = mono[:p_idx] + (e - 1,) + mono[p_idx + 1 :]
            c = c * (sign * e)
            for mv, cv in vp.coeffs.items():
                key = tuple(a + b for a, b in zip(lowered, mv))
                acc[key] = acc.get(key, 0) + cv * c


def lie_bracket(v, w):
    """[V, W]^Q = V^P d_P W^Q - W^P d_P V^Q, exact.

    Each component's terms are summed straight into one coefficient dict
    and turned into a Polynomial once.
    """
    comps = []
    for vq, wq in zip(v.components, w.components):
        acc = {}
        _add_transport(acc, v, wq, 1)
        _add_transport(acc, w, vq, -1)
        comps.append(Polynomial(v.n, acc))
    return PolyVectorField(comps)


@dataclass(frozen=True)
class StructureReport:
    signature: Signature
    n_rotations: int
    n_translations: int
    n_generators: int
    mismatches: tuple

    @property
    def ok(self):
        return not self.mismatches


def structure_check(sig):
    """Verify the so(p,q) brackets and the translation sector exactly.

    Checks [K_AB, K_CD] = -eta_AC K_BD + eta_BC K_AD - eta_BD K_AC
    + eta_AD K_BC for all label pairs, [T_a, K_mn] = eta_am T_n
    - eta_an T_m, and [T, T] = 0.  Any mismatch is reported with its
    labels.
    """
    n = sig.n
    if n > 8:
        raise ValueError("structure_check limited to p + q <= 8")
    eta = sig.eta
    ks = {}
    for a in range(n):
        for b in range(n):
            ks[(a, b)] = killing_field(sig, a, b)
    ts = [translation_field(sig, a) for a in range(n)]
    mismatches = []
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for (a, b) in pairs:
        for (c, d) in pairs:
            got = lie_bracket(ks[(a, b)], ks[(c, d)])
            want = PolyVectorField.zero(n)
            if a == c:
                want = want - ks[(b, d)] * eta[a]
            if b == c:
                want = want + ks[(a, d)] * eta[b]
            if b == d:
                want = want - ks[(a, c)] * eta[b]
            if a == d:
                want = want + ks[(b, c)] * eta[a]
            if not (got - want).is_zero():
                mismatches.append(("KK", (a, b), (c, d)))
    for al in range(n):
        for (m_idx, n_idx) in pairs:
            got = lie_bracket(ts[al], ks[(m_idx, n_idx)])
            want = PolyVectorField.zero(n)
            if al == m_idx:
                want = want + ts[n_idx] * eta[al]
            if al == n_idx:
                want = want - ts[m_idx] * eta[al]
            if not (got - want).is_zero():
                mismatches.append(("TK", al, (m_idx, n_idx)))
    for a in range(n):
        for b in range(n):
            if not lie_bracket(ts[a], ts[b]).is_zero():
                mismatches.append(("TT", a, b))
    return StructureReport(
        signature=sig,
        n_rotations=n * (n - 1) // 2,
        n_translations=n,
        n_generators=n * (n + 1) // 2,
        mismatches=tuple(mismatches),
    )


def minkowski_killing_spherical(kind, j, k, point):
    """Minkowski Killing generators in the (t, r, xi) frame.

    point = (t, r, xi) with |xi| = 1, r > 0.  Returns
    (coef_dt, coef_dr, xi_coeffs) where xi_coeffs are the coefficients of
    the constrained derivatives d/dxi_m.

    Kinds: "T0", "Tj" (index j), "Kjk" (rotation, indices j < k),
    "K0j" (boost, index j); spatial indices count 1..(dim-1).
    """
    t, r, xi = point
    xi = np.asarray(xi, dtype=float)
    nsp = len(xi)
    if r <= 0.0:
        raise ValueError("spherical frame requires r > 0")
    if abs(float(xi @ xi) - 1.0) > 1e-10:
        raise ValueError("xi must be a unit vector")
    zero = np.zeros(nsp)
    if kind == "T0":
        return 1.0, 0.0, zero
    if kind == "Tj":
        if not 1 <= j <= nsp:
            raise ValueError("spatial index out of range")
        e = np.zeros(nsp)
        e[j - 1] = 1.0
        return 0.0, float(xi[j - 1]), (e - xi[j - 1] * xi) / r
    if kind == "Kjk":
        if not (1 <= j <= nsp and 1 <= k <= nsp and j != k):
            raise ValueError("rotation needs two distinct spatial indices")
        v = np.zeros(nsp)
        v[k - 1] = xi[j - 1]
        v[j - 1] = -xi[k - 1]
        return 0.0, 0.0, v
    if kind == "K0j":
        if not 1 <= j <= nsp:
            raise ValueError("spatial index out of range")
        e = np.zeros(nsp)
        e[j - 1] = 1.0
        return -r * xi[j - 1], -t * xi[j - 1], -(t / r) * (e - xi[j - 1] * xi)
    raise ValueError(f"unknown kind {kind!r}")


def spherical_frame_components(cart_components, point):
    """Push cartesian components (V^t, V^1..V^n) to the (t, r, xi) frame.

    Chain rule through r = |x| and xi = x / r; serves as the oracle for
    the closed-form spherical generators.
    """
    t, r, xi = point
    xi = np.asarray(xi, dtype=float)
    v = np.asarray(cart_components, dtype=float)
    vt = v[0]
    vs = v[1:]
    vr = float(vs @ xi)
    vxi = (vs - vr * xi) / r
    return vt, vr, vxi
