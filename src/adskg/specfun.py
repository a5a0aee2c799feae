"""Special functions used throughout the package.

Gamma via a Lanczos approximation in signed-log form, double factorials,
associated Legendre and Gegenbauer polynomials by three-term recurrence,
the Gauss hypergeometric series, and the spherical Bessel family
j_l, n_l, h1_l, h2_l together with their evanescent (imaginary-argument)
companions.  Formula references are to DLMF chapter 10 and
Abramowitz & Stegun chapters 8 and 22.

Signed-log Gamma and the 2F1 series state each rule once for floats and
float arrays, with an elementwise-operations table (_FLOAT or _ARRAY).  A
public float function and a private array form run it, both with libm's
log, sin and exp per element, so the two agree bit for bit.
"""

import math
import cmath
import functools
from dataclasses import dataclass
from types import SimpleNamespace

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
    """Whether x is within POLE_TOL of a nonpositive integer (the nearest integer to any
    x <= 0.5 is one), for floats or arrays.  For an infinite x numpy flags inf - inf."""
    return (x <= 0.5) & (abs(x - np.rint(x)) <= POLE_TOL)


def _libm(fn, x):
    """fn of the math module applied per element of a float array.

    numpy's vectorised log, exp and sin may differ from libm in the last
    bits; the array forms use libm so that they match the float forms.
    """
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def _exp_or_inf(x):
    """math.exp, with inf where it raises OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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


def _log_gamma(x, reflect, ops):
    """(log|Gamma(x)|, sign) off the poles for a float, or an array all on one side of 0.5:
    Lanczos for x >= 0.5, and with reflect (x < 0.5) Gamma(x) = pi / (sin(pi x) Gamma(1 - x)),
    which covers the negative non-integer arguments of the Gamma-ratio candidates."""
    z = (1.0 - x if reflect else x) - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    log_abs = _LOG_SQRT_2PI + (z + 0.5) * ops.log(t) - t + ops.log(acc)
    if not reflect:
        return log_abs, 1
    s = ops.sin(math.pi * x)
    return math.log(math.pi) - ops.log(abs(s)) - log_abs, 2 * (s > 0) - 1


def _gamma_fault(x):
    """The error for Gamma at x, a pole or a non-finite argument."""
    if math.isfinite(x):
        return PoleError(f"Gamma pole at argument {x}")
    return ValueError("log_gamma_signed requires finite x")


def _log_gamma_float(x):
    """(log|Gamma(x)|, sign, fault) of a float x, as _log_gamma_grid gives them per element."""
    reflect = x < 0.5  # the poles all lie in the reflection branch
    if not math.isfinite(x) or reflect and _near_pole(x):
        return math.nan, 0, True
    return (*_log_gamma(x, reflect, _FLOAT), False)


def log_gamma_signed(x):
    """Gamma in signed-log form, poles flagged instead of raised."""
    x = float(x)
    if not math.isfinite(x):
        raise _gamma_fault(x)
    return SignedLogGamma(*_log_gamma_float(x))


@np.errstate(all="ignore")
def _log_gamma_grid(x):
    """log_gamma_signed over a float array: (log_abs, sign, fault) arrays.

    fault marks poles and non-finite x, where log_abs is nan and sign 0.
    """
    fault = _near_pole(x) | ~np.isfinite(x)
    log_abs = np.full(x.shape, math.nan)
    sign = np.zeros(x.shape, dtype=int)
    for reflect in (False, True):
        at = ~fault & ((x < 0.5) == reflect)
        log_abs[at], sign[at] = _log_gamma(x[at], reflect, _ARRAY)
    return log_abs, sign, fault


# The operations of the shared rules.  For arrays exp gives inf where math.exp overflows
# and sort orders same-shape arrays per element; fmax(1.0, nan) is 1.0 for both.
_FLOAT = SimpleNamespace(
    log=math.log, sin=math.sin, exp=math.exp, fmax=max, any=bool, sort=sorted,
    log_gamma=_log_gamma_float,
)
_ARRAY = SimpleNamespace(
    log=functools.partial(_libm, math.log),
    sin=functools.partial(_libm, math.sin),
    exp=functools.partial(_libm, _exp_or_inf),
    fmax=np.fmax,
    any=np.any,
    sort=lambda side: np.sort(np.array(side, dtype=float), axis=0, kind="stable"),
    log_gamma=_log_gamma_grid,
)


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


def _hyp2f1_poles(c, z):
    """Pole flags of c, once z is checked against the series domain."""
    if not 0.0 <= z <= _HYP_Z_MAX:
        raise ValueError(f"hyp2f1 series restricted to z in [0, {_HYP_Z_MAX}]")
    return _near_pole(c)


def _hyp2f1_fault(a, b, c, z, k=None):
    """The error of a failing series: c at a pole (k None), terms growing at
    step k, or the term cap (k = _HYP_MAX_TERMS)."""
    if k is None:
        return PoleError(f"hyp2f1 parameter c = {c} is at a series pole")
    if k == _HYP_MAX_TERMS:
        return ConvergenceError(f"hyp2f1({a},{b};{c};{z}) hit the {k}-term cap")
    return ConvergenceError(f"hyp2f1({a},{b};{c};{z}) terms not decreasing after {k} steps")


def _hyp2f1_sum(a, b, c, z, term, ops, retire):
    """Sum the 2F1 series for floats or arrays a, b, c; None at the term cap.

    When term k stops some elements, retire(k, total, done, growing) gives the mask of
    those that go on, or None to end with this total.  done: the term is zero or below
    the tail tolerance.  growing (never with done): past the parameter scale the terms
    should decrease, and this one exceeds the last and 1e6 times the total.
    """
    fmax, stops, total = ops.fmax, ops.any, term
    for k in range(_HYP_MAX_TERMS):
        new = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0)) * z)
        total = total + new  # a zero term leaves the total as it was
        size = abs(new)
        scale = fmax(1.0, abs(total))
        done = (new == 0.0) | (size <= _HYP_TAIL * scale)
        growing = k > 30 and z > 0.0 and (size > abs(term)) & (size > 1e6 * scale)
        term = new
        if stops(done | growing):
            keep = retire(k, total, done, growing)
            if keep is None:
                return total
            a, b, c, term, total = a[keep], b[keep], c[keep], term[keep], total[keep]
    return None


@np.errstate(invalid="ignore")  # _near_pole of an infinite c
def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) by direct series summation.

    Restricted to 0 <= z <= 0.95; c must stay away from nonpositive
    integers.  Terminating cases (a or b a nonpositive integer) are
    summed exactly to the terminating index.
    """
    if _hyp2f1_poles(c, z):
        raise _hyp2f1_fault(a, b, c, z)

    def retire(k, total, done, growing):
        if growing:
            raise _hyp2f1_fault(a, b, c, z, k)

    total = _hyp2f1_sum(a, b, c, z, 1.0, _FLOAT, retire)
    if total is None:
        raise _hyp2f1_fault(a, b, c, z, _HYP_MAX_TERMS)
    return total


@np.errstate(all="ignore")
def _hyp2f1_grid(a, b, c, z):
    """hyp2f1 over float arrays a, b, c of one shape at one z: (values, faults).

    Each element leaves the active set when its series stops.  faults maps the
    flat index of an element hyp2f1 raises for to that exception (value nan).
    """
    a, b, c = (np.ravel(v) for v in (a, b, c))
    out = np.full(a.shape, math.nan)
    pole = _hyp2f1_poles(c, z)
    faults = {i: _hyp2f1_fault(a[i], b[i], c.item(i), z) for i in np.flatnonzero(pole).tolist()}
    active = np.flatnonzero(~pole)

    def retire(k, total, done, growing):
        nonlocal active
        out[active[done]] = total[done]
        for i in active[np.flatnonzero(growing)].tolist():
            faults[i] = _hyp2f1_fault(a.item(i), b.item(i), c.item(i), z, k)
        keep = ~(done | growing)
        active = active[keep]
        return keep if active.size else None

    if active.size:
        _hyp2f1_sum(a[active], b[active], c[active], z, np.ones(active.size), _ARRAY, retire)
    for i in active.tolist():
        faults[i] = _hyp2f1_fault(a.item(i), b.item(i), c.item(i), z, _HYP_MAX_TERMS)
    return out, faults


def _dz_series(a, b, c):
    """(factor, (a + 1, b + 1, c + 1)) of the contiguous relation (DLMF 15.5.1)
    d/dz 2F1(a, b; c; z) = factor 2F1(a + 1, b + 1; c + 1; z)."""
    return a * b / c, (a + 1.0, b + 1.0, c + 1.0)


def hyp2f1_dz(a, b, c, z):
    """d/dz 2F1(a, b; c; z) via the contiguous derivative relation."""
    factor, shifted = _dz_series(a, b, c)
    return factor * hyp2f1(*shifted, z)


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
