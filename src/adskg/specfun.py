"""Scalar special functions used throughout the package.

Gamma via a Lanczos approximation in signed-log form, double factorials,
associated Legendre and Gegenbauer polynomials by three-term recurrence,
the Gauss hypergeometric series, and the spherical Bessel family
j_l, n_l, h1_l, h2_l together with their evanescent (imaginary-argument)
companions.  Formula references are to DLMF chapter 10 and
Abramowitz & Stegun chapters 8 and 22.
"""

import math
import cmath
import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoleError",
    "ConvergenceError",
    "SignedLogGamma",
    "log_gamma_signed",
    "gamma_value",
    "double_factorial",
    "a_coeff",
    "legendre_p",
    "gegenbauer_c",
    "hyp2f1",
    "hyp2f1_dz",
    "radial_basis",
    "radial_basis_deriv",
    "s_odd",
    "s_even",
    "s_plus",
    "phase_shifted_trig",
]

POLE_TOL = 1e-9


def _near_pole(x):
    """Whether x sits on (or within POLE_TOL of) a nonpositive integer."""
    return x <= 0.5 and abs(x - round(x)) <= POLE_TOL and round(x) <= 0


def _near_pole_grid(x):
    """_near_pole over a float array (numpy's rint rounds half to even, as round does)."""
    nearest = np.rint(x)
    return (x <= 0.5) & (np.abs(x - nearest) <= POLE_TOL) & (nearest <= 0)


def _libm(fn, x):
    """fn of the math module applied per element of a float array.

    numpy's vectorised log, exp and sin may differ from libm in the last
    bits; the array forms below use libm so that they match the scalars.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


_log = functools.partial(_libm, math.log)


class PoleError(ArithmeticError):
    """Evaluation requested at (or numerically on top of) a pole."""


class ConvergenceError(ArithmeticError):
    """A series failed to converge within its term budget."""


# Lanczos coefficients, g = 7, n = 9 (double precision set).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SignedLogGamma:
    """log|Gamma(x)| together with the sign of Gamma(x).

    When ``is_pole`` is set the other two fields carry no information.
    """

    log_abs: float
    sign: int
    is_pole: bool

    def value(self):
        if self.is_pole:
            raise PoleError("Gamma evaluated at a nonpositive integer")
        return self.sign * math.exp(self.log_abs)


def _lanczos_log_gamma(x, log=math.log):
    """log Gamma(x) for x >= 0.5, Lanczos rational approximation.

    Plain arithmetic, so x may be a float array when log is one too.
    """
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (z + 0.5) * log(t) - t + log(acc)


def log_gamma_signed(x):
    """Gamma in signed-log form, poles flagged instead of raised.

    Reflection is applied for x < 0.5 so that negative non-integer
    arguments (which appear in the Gamma-ratio candidates) are covered.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("log_gamma_signed requires finite x")
    if _near_pole(x):
        return SignedLogGamma(log_abs=math.nan, sign=0, is_pole=True)
    if x >= 0.5:
        return SignedLogGamma(log_abs=_lanczos_log_gamma(x), sign=1, is_pole=False)
    # Gamma(x) = pi / (sin(pi x) Gamma(1 - x))
    s = math.sin(math.pi * x)
    log_abs = math.log(math.pi) - math.log(abs(s)) - _lanczos_log_gamma(1.0 - x)
    return SignedLogGamma(log_abs=log_abs, sign=1 if s > 0 else -1, is_pole=False)


@np.errstate(all="ignore")
def _log_gamma_grid(x):
    """log_gamma_signed over a finite float array: (log_abs, sign, pole) arrays.

    Bit for bit the scalar's values; log_abs is nan and sign 0 at poles.
    """
    pole = _near_pole_grid(x)
    reflect = (x < 0.5) & ~pole
    log_abs = _lanczos_log_gamma(np.where(reflect, 1.0 - x, np.where(pole, 1.0, x)), log=_log)
    # Gamma(x) = pi / (sin(pi x) Gamma(1 - x))
    s = _libm(math.sin, math.pi * x[reflect])
    log_abs[reflect] = math.log(math.pi) - _log(np.abs(s)) - log_abs[reflect]
    log_abs[pole] = math.nan
    sign = np.ones(x.shape, dtype=int)
    sign[reflect] = np.where(s > 0, 1, -1)
    sign[pole] = 0
    return log_abs, sign, pole


def gamma_value(x):
    """Gamma(x) as a float; raises PoleError at nonpositive integers."""
    return log_gamma_signed(x).value()


def double_factorial(n):
    """n!! with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double_factorial requires n >= -1")
    out = 1.0
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out


def a_coeff(k, l):
    """Hankel asymptotic coefficients a_k(l + 1/2), DLMF 10.49.1.

    Zero outside 0 <= k <= l.
    """
    if l < 0:
        raise ValueError("a_coeff requires l >= 0")
    if k < 0 or k > l:
        return 0.0
    return math.factorial(l + k) / (2.0**k * math.factorial(k) * math.factorial(l - k))


def legendre_p(l, m, x):
    """Associated Legendre P_l^m(x) for integer 0 <= m <= l, x in [-1, 1].

    Plain Ferrers function without the Condon-Shortley factor, so all
    values are nonnegative multiples of the same sign pattern as P_l.
    Stable upward recurrence in l (AS 8.5.3).
    """
    if m < 0 or m > l:
        raise ValueError("legendre_p requires 0 <= m <= l")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("legendre_p requires |x| <= 1")
    somx2 = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    pmm = np.ones_like(x)
    fact = 1.0
    for _ in range(m):
        pmm = pmm * fact * somx2
        fact += 2.0
    if l == m:
        return pmm if pmm.shape else float(pmm)
    pmmp1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pmmp1 if pmmp1.shape else float(pmmp1)
    for ll in range(m + 2, l + 1):
        pll = (x * (2 * ll - 1) * pmmp1 - (ll + m - 1) * pmm) / (ll - m)
        pmm = pmmp1
        pmmp1 = pll
    return pmmp1 if pmmp1.shape else float(pmmp1)


def gegenbauer_c(n, alpha, x):
    """Gegenbauer (ultraspherical) C_n^alpha(x) by three-term recurrence."""
    if n < 0:
        raise ValueError("gegenbauer_c requires n >= 0")
    if alpha <= -0.5:
        raise ValueError("gegenbauer_c requires alpha > -1/2")
    x = np.asarray(x, dtype=float)
    c0 = np.ones_like(x)
    if n == 0:
        return c0 if c0.shape else float(c0)
    c1 = 2.0 * alpha * x
    for k in range(2, n + 1):
        c2 = (2.0 * x * (k + alpha - 1.0) * c1 - (k + 2.0 * alpha - 2.0) * c0) / k
        c0 = c1
        c1 = c2
    return c1 if c1.shape else float(c1)


_HYP_MAX_TERMS = 10000
_HYP_TAIL = 1e-13
_HYP_Z_MAX = 0.95


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) by direct series summation.

    Restricted to 0 <= z <= 0.95; c must stay away from nonpositive
    integers.  Terminating cases (a or b a nonpositive integer) are
    summed exactly to the terminating index.
    """
    if not 0.0 <= z <= _HYP_Z_MAX:
        raise ValueError(f"hyp2f1 series restricted to z in [0, {_HYP_Z_MAX}]")
    if _near_pole(c):
        raise PoleError(f"hyp2f1 parameter c = {c} is at a series pole")
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(_HYP_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        if term == 0.0:
            return total
        total += term
        if abs(term) <= _HYP_TAIL * max(1.0, abs(total)):
            return total
        if k > 30 and abs(term) > prev and z > 0.0:
            # terms should decrease once k exceeds the parameter scale
            if abs(term) > 1e6 * max(1.0, abs(total)):
                raise ConvergenceError(
                    f"hyp2f1({a},{b};{c};{z}) terms not decreasing after {k} steps"
                )
        prev = abs(term)
    raise ConvergenceError(f"hyp2f1({a},{b};{c};{z}) hit the {_HYP_MAX_TERMS}-term cap")


@np.errstate(all="ignore")
def _hyp2f1_grid(a, b, c, z):
    """hyp2f1 over float arrays a, b, c of one shape at one z: (values, faults).

    Every element runs the scalar's loop, term for term, and leaves the
    active set when it stops, so each value is bit for bit the scalar's.
    faults maps the flat index of an element the scalar raises for to
    that exception; its value is nan.
    """
    if not 0.0 <= z <= _HYP_Z_MAX:
        raise ValueError(f"hyp2f1 series restricted to z in [0, {_HYP_Z_MAX}]")
    a, b, c = (np.ravel(v) for v in (a, b, c))
    out = np.full(a.shape, math.nan)
    pole = _near_pole_grid(c)
    faults = {
        i: PoleError(f"hyp2f1 parameter c = {c.item(i)} is at a series pole")
        for i in np.flatnonzero(pole).tolist()
    }
    active = np.flatnonzero(~pole)
    aa, bb, cc = a[active], b[active], c[active]
    total = np.ones(active.size)
    term = np.ones(active.size)
    prev = np.full(active.size, math.inf)
    for k in range(_HYP_MAX_TERMS):
        if not active.size:
            break
        term = term * ((aa + k) * (bb + k) / ((cc + k) * (k + 1.0)) * z)
        zero = term == 0.0
        total = np.where(zero, total, total + term)
        size = np.abs(term)
        scale = np.fmax(1.0, np.abs(total))  # max(1.0, nan) is 1.0, as in the scalar
        stop = done = zero | (size <= _HYP_TAIL * scale)
        if k > 30 and z > 0.0:
            # terms should decrease once k exceeds the parameter scale
            growing = ~done & (size > prev) & (size > 1e6 * scale)
            for i in np.flatnonzero(growing).tolist():
                faults[active.item(i)] = ConvergenceError(
                    f"hyp2f1({aa.item(i)},{bb.item(i)};{cc.item(i)};{z}) "
                    f"terms not decreasing after {k} steps"
                )
            stop = done | growing
        prev = size
        if stop.any():
            out[active[done]] = total[done]
            keep = ~stop
            active, aa, bb, cc = active[keep], aa[keep], bb[keep], cc[keep]
            total, term, prev = total[keep], term[keep], prev[keep]
    for i, index in enumerate(active.tolist()):
        faults[index] = ConvergenceError(
            f"hyp2f1({aa.item(i)},{bb.item(i)};{cc.item(i)};{z}) hit the {_HYP_MAX_TERMS}-term cap"
        )
    return out, faults


def hyp2f1_dz(a, b, c, z):
    """d/dz 2F1(a, b; c; z) via the contiguous derivative relation."""
    return a * b / c * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)


def _series_j(l, x, sign=-1.0):
    """Power series for j_l, good for small and moderate x.

    sign = +1 gives the evanescent companion i^{-l} j_l(ix), a manifestly
    real series.
    """
    pref = x**l
    if pref == 0.0:
        return 0.0
    term = 1.0 / double_factorial(2 * l + 1)
    total = term
    x2 = x * x
    for k in range(1, 400):
        term *= sign * 0.5 * x2 / (k * (2.0 * l + 2.0 * k + 1.0))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return pref * total


def _series_n(l, x, sign=-1.0):
    """Power series for n_l; all-orders single-sum form.

    sign = +1 gives the evanescent companion i^{l+1} n_l(ix), a manifestly
    real series.
    """
    if math.log(double_factorial(2 * l - 1)) - (l + 1) * math.log(x) > 700.0:
        kind = "evanescent n" if sign > 0 else "n"
        raise OverflowError(f"{kind}_{l} overflows at x = {x}")
    pref = -double_factorial(2 * l - 1) / x ** (l + 1)
    term = 1.0
    total = term
    x2 = x * x
    for k in range(1, 400):
        term *= sign * 0.5 * x2 / (k * (2.0 * k - 2.0 * l - 1.0))
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)):
            break
    return pref * total


@functools.lru_cache(maxsize=256)
def _hankel_coeffs(l):
    """(a_0(l + 1/2), ..., a_l(l + 1/2)), the values a_coeff gives."""
    return tuple(a_coeff(k, l) for k in range(l + 1))


def s_odd(l, x):
    """S^o_l(x): odd-index a_k sum of the trig decomposition (DLMF 10.49.2)."""
    coeffs = _hankel_coeffs(l)
    total = 0.0
    for k in range(l // 2 + 1):
        total += (-1.0) ** k * coeffs[2 * k] / x ** (2 * k + 1)
    return total


def s_even(l, x):
    """S^e_l(x): even companion sum; empty (zero) for l = 0."""
    coeffs = _hankel_coeffs(l)
    total = 0.0
    for k in range((l - 1) // 2 + 1):
        total += (-1.0) ** k * coeffs[2 * k + 1] / x ** (2 * k + 2)
    return total


def phase_shifted_trig(l, x):
    """(sin(x - l pi/2), cos(x - l pi/2)) with the l pi/2 shift applied exactly."""
    s = math.sin(x)
    c = math.cos(x)
    r = l % 4
    if r == 0:
        return s, c
    if r == 1:
        return -c, s
    if r == 2:
        return -s, -c
    return c, -s


def s_plus(l, x, kind=1):
    """S^+_l(x) (kind=1) or S^-_l(x) (kind=2) of h_l = e^{+-ix} S^{+-}_l.

    Built from the same real sums as the trig decomposition:
    S^+- = (-+i)^l (S^e -+ i S^o), which keeps the two evaluation routes
    numerically coherent.
    """
    so = s_odd(l, x)
    se = s_even(l, x)
    if kind == 1:
        val = complex(se, -so)
        rot = (-1j) ** (l % 4)
    else:
        val = complex(se, so)
        rot = (1j) ** (l % 4)
    return rot * val


_CROSSOVER_EXTRA = 4.0


def _j_n(l, x):
    """(j_l(x), n_l(x)): series below the crossover, trig decomposition above."""
    if x < l + _CROSSOVER_EXTRA:
        return _series_j(l, x), _series_n(l, x)
    so = s_odd(l, x)
    se = s_even(l, x)
    s, c = phase_shifted_trig(l, x)
    return so * s + se * c, -so * c + se * s


def radial_basis(kind, l, x):
    """Spherical radial functions as complex values.

    kind: "j", "n", "h1", "h2", "j_evan", "n_evan".
    j and n switch from power series to the exact trig decomposition at
    x = l + 4; h1/h2 use the closed form e^{+-ix} S^{+-}_l; the evanescent
    pair uses the power series with the sign of x^2 flipped rather than
    complex-argument substitution.
    """
    if l < 0:
        raise ValueError("radial_basis requires l >= 0")
    if x <= 0.0:
        raise ValueError("radial_basis requires x > 0")
    if kind == "j":
        return complex(_j_n(l, x)[0])
    if kind == "n":
        return complex(_j_n(l, x)[1])
    if kind == "h1":
        return cmath.exp(1j * x) * s_plus(l, x, kind=1)
    if kind == "h2":
        return cmath.exp(-1j * x) * s_plus(l, x, kind=2)
    if kind == "j_evan":
        return complex(_series_j(l, x, sign=1.0))
    if kind == "n_evan":
        return complex(_series_n(l, x, sign=1.0))
    raise ValueError(f"unknown radial kind {kind!r}")


def radial_basis_deriv(kind, l, x):
    """d/dx of j, n, h1 or h2 via the ladder relation.

    f_l'(x) = f_{l-1}(x) - (l+1)/x f_l(x), with f_0' = -f_1 (DLMF 10.51).
    """
    if kind not in ("j", "n", "h1", "h2"):
        raise ValueError("derivative ladder defined for j, n, h1, h2 only")
    if l == 0:
        return -radial_basis(kind, 1, x)
    return radial_basis(kind, l - 1, x) - (l + 1.0) / x * radial_basis(kind, l, x)
