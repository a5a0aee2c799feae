"""Special functions used throughout the package.

Gamma via a Lanczos approximation in signed-log form, double factorials,
associated Legendre and Gegenbauer polynomials by three-term recurrence,
the Gauss hypergeometric series, and the spherical Bessel family
j_l, n_l, h1_l, h2_l together with their evanescent (imaginary-argument)
companions.  Formula references are to DLMF chapter 10 and
Abramowitz & Stegun chapters 8 and 22.

One rule, two drivers: signed-log Gamma, the 2F1 series, the Hankel sums
S^o_l and S^e_l, the exact l pi/2 phase shift, S^+-_l and the j_l and n_l
power series are each stated once for floats and float arrays, with an
elementwise-operations table (_FLOAT or _ARRAY).  A public float function
and a private array form run each rule, both with libm's log, sin, cos,
exp and pow per element and with complex products from separately
rounded real products, so the two agree bit for bit; where a float form
raises, its array form carries nan (or inf).  _radial_grid gives h1, j, n
and their ladder derivatives over a whole (x, l) grid.
"""

import math
import cmath
import functools
import operator
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


def _near_pole(x, ops):
    """Whether x is within POLE_TOL of a nonpositive integer (the nearest integer to any
    x <= 0.5 is one), for floats (ops _FLOAT) or arrays (_ARRAY).  No infinite or nan x
    is a pole: x - round(x) is nan for them."""
    return (x <= 0.5) & (abs(x - ops.round(x)) <= POLE_TOL)


def _round_finite(x):
    """round(x) for a finite float, and nan, which no float is near, for inf and nan
    (where round raises)."""
    return round(x) if math.isfinite(x) else math.nan


def _libm(fn, x, *args, where_raises=None):
    """fn of Python numbers per element of an array x, with further arguments (arrays or
    scalars) broadcast against it: a float array, nan where fn raises.

    numpy's vectorised log, exp, sin, cos, pow and complex abs may differ
    from libm in the last bits; the array forms use libm so that they match
    the float forms.  Where a float form raises (a power out of range, the
    sine of an infinity), its array form carries nan.  When some element
    raises, where_raises, if given, maps every element instead: a float
    function that gives fn's value where fn does not raise.
    """
    x, *args = np.broadcast_arrays(x, *args)
    columns = [a.ravel().tolist() for a in (x, *args)]
    try:
        values = np.fromiter(map(fn, *columns), dtype=float, count=x.size)
    except (OverflowError, ValueError):
        slow = where_raises or functools.partial(_nan_where_raises, fn)
        values = np.fromiter(map(slow, *columns), dtype=float, count=x.size)
    return values.reshape(x.shape)


def _nan_where_raises(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        return math.nan


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
    if not math.isfinite(x) or reflect and _near_pole(x, _FLOAT):
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
    fault = _near_pole(x, _ARRAY) | ~np.isfinite(x)
    log_abs = np.full(x.shape, math.nan)
    sign = np.zeros(x.shape, dtype=int)
    for reflect in (False, True):
        at = ~fault & ((x < 0.5) == reflect)
        log_abs[at], sign[at] = _log_gamma(x[at], reflect, _ARRAY)
    return log_abs, sign, fault


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


def _double_factorials(n):
    """double_factorial per element of an int array."""
    values, at = np.unique(n, return_inverse=True)
    return np.array([double_factorial(k) for k in values.tolist()])[at].reshape(np.shape(n))


def _cmul(x, y):
    """Complex product from separately rounded real products: the same bits on
    every CPU, where numpy's complex kernels may fuse multiply-adds.  A real
    factor counts as (x, 0.0), as CPython's complex arithmetic takes it."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _complex(re, im=0.0):
    """complex(re, im) per element, the parts as given (re + 1j * im can change the
    sign of a zero); a complex array re is returned as it is."""
    if np.iscomplexobj(re):
        return re
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


# The operations of the shared rules.  For arrays exp gives inf where math.exp overflows;
# fmax(1.0, nan) is 1.0 for both.  round is the nearest integer, half to even, for floats
# and arrays alike (np.rint takes a numpy ufunc's time, about 1 us, on a float).  For
# arrays pow and abs give nan where the float operation raises; mul is the complex
# product (a real factor counts as (x, 0.0)).
_FLOAT = SimpleNamespace(
    log=math.log, sin=math.sin, exp=math.exp, pow=operator.pow, abs=abs,
    sqrt=math.sqrt, fmax=max, any=bool, where=lambda c, a, b: a if c else b,
    mul=operator.mul, complex=complex, double_factorial=double_factorial,
    round=_round_finite, not_=operator.not_, isfinite=math.isfinite,
)
_ARRAY = SimpleNamespace(
    log=functools.partial(_libm, math.log),
    sin=functools.partial(_libm, math.sin),
    cos=functools.partial(_libm, math.cos),
    exp=functools.partial(_libm, math.exp, where_raises=_exp_or_inf),
    pow=functools.partial(_libm, math.pow),
    abs=functools.partial(_libm, abs),
    sqrt=np.sqrt,
    fmax=np.fmax,
    any=operator.methodcaller("any"),
    where=np.where,
    mul=_cmul,
    complex=_complex,
    double_factorial=_double_factorials,
    round=np.rint,
    not_=np.logical_not, isfinite=np.isfinite,
)


def a_coeff(k, l):
    """Hankel asymptotic coefficients a_k(l + 1/2), DLMF 10.49.1.

    Zero outside 0 <= k <= l.
    """
    if l < 0:
        raise ValueError("a_coeff requires l >= 0")
    if k < 0 or k > l:
        return 0.0
    try:
        return math.factorial(l + k) / (2.0**k * math.factorial(k) * math.factorial(l - k))
    except OverflowError:  # (l + k)! exceeds the float range from l + k = 171 on
        raise OverflowError(
            f"a_coeff(k = {k}, l = {l}): (l + k)! = {l + k}! is beyond the float range"
        ) from None


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


def _hyp2f1_poles(c, z, ops):
    """Pole flags of c, once z is checked against the series domain."""
    if not 0.0 <= z <= _HYP_Z_MAX:
        raise ValueError(f"hyp2f1 series restricted to z in [0, {_HYP_Z_MAX}]")
    return _near_pole(c, ops)


def _hyp2f1_fault(a, b, c, z, k=None, total=None):
    """The error of a failing series: c at a pole (k None), the term cap (k =
    _HYP_MAX_TERMS), or a stop at step k on a non-finite total or a growing term."""
    if k is None:
        return PoleError(f"hyp2f1 parameter c = {c} is at a series pole")
    if k == _HYP_MAX_TERMS:
        return ConvergenceError(f"hyp2f1({a},{b};{c};{z}) hit the {k}-term cap")
    if not math.isfinite(total):
        return ConvergenceError(f"hyp2f1({a},{b};{c};{z}) sums to {total} after {k} steps")
    return ConvergenceError(f"hyp2f1({a},{b};{c};{z}) terms not decreasing after {k} steps")


def _hyp2f1_sum(a, b, c, z, term, ops, retire):
    """Sum the 2F1 series for floats or arrays a, b, c; None at the term cap.

    When term k stops some elements, retire(k, total, done, failed) gives the mask of
    those that go on, or None to end with this total.  A term not above the tail
    tolerance (a zero, nan or inf one) stops its element: done on a finite total, else
    failed.  So does a growing term (failed): past the parameter scale the terms should
    decrease, and this one exceeds the last and 1e6 times the total.
    """
    fmax, stops, total = ops.fmax, ops.any, term
    for k in range(_HYP_MAX_TERMS):
        new = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0)) * z)
        total = total + new  # a zero term leaves the total as it was
        size = abs(new)
        scale = fmax(1.0, abs(total))
        done = ops.not_(size > _HYP_TAIL * scale)
        growing = k > 30 and z > 0.0 and (size > abs(term)) & (size > 1e6 * scale)
        term = new
        if stops(done | growing):
            finite = ops.isfinite(total)
            keep = retire(k, total, done & finite, growing | done & ops.not_(finite))
            if keep is None:
                return total
            a, b, c, term, total = a[keep], b[keep], c[keep], term[keep], total[keep]
    return None


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) by direct series summation.

    Restricted to 0 <= z <= 0.95; c must stay away from nonpositive
    integers.  Terminating cases (a or b a nonpositive integer) are
    summed exactly to the terminating index.  A series whose terms grow,
    or whose total is not finite, raises ConvergenceError.
    """
    if _hyp2f1_poles(c, z, _FLOAT):
        raise _hyp2f1_fault(a, b, c, z)

    def retire(k, total, done, failed):
        if failed:
            raise _hyp2f1_fault(a, b, c, z, k, total)

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
    pole = _hyp2f1_poles(c, z, _ARRAY)
    faults = {i: _hyp2f1_fault(a[i], b[i], c.item(i), z) for i in np.flatnonzero(pole).tolist()}
    active = np.flatnonzero(~pole)

    def retire(k, total, done, failed):
        nonlocal active
        out[active[done]] = total[done]
        for i, t in zip(active[failed].tolist(), total[failed].tolist()):
            faults[i] = _hyp2f1_fault(a.item(i), b.item(i), c.item(i), z, k, t)
        keep = ~(done | failed)
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


def _power_series(term, half_x2, b, floor, ops, retire):
    """term (1 + r_1 + r_1 r_2 + ...) with r_k = half_x2 / (k (2k + b)), k < 400: the loop
    of the j and n series, for floats, or for arrays term, half_x2, b and floor.

    An element stops after its first term with |term| <= 1e-17 max(floor,
    |total|); retire(total, done) then keeps the totals of those that stop
    and gives the mask of the others, or None to end with this total.
    """
    total, tail, stops = term, 1e-17 * floor, ops.any
    for k in range(1, 400):
        term = term * (half_x2 / (k * (2.0 * k + b)))
        total = total + term
        done = (abs(term) <= 1e-17 * abs(total)) | (abs(term) <= tail)
        # a float's done is a bool, tested without a call until it is True
        if done is not False and stops(done):
            keep = retire(total, done)
            if keep is None:
                return total
            term, total, half_x2, b, tail = (v[keep] for v in (term, total, half_x2, b, tail))
    return total


def _series_terms(kind, l, x, sign, ops):
    """(prefactor, first term, sign x^2 / 2, b, floor) of the power series of j_l (kind
    "j") or n_l ("n"): the prefactor times _power_series of the rest.  sign = +1 gives
    the evanescent companions i^{-l} j_l(ix) and i^{l+1} n_l(ix), manifestly real.  For
    arrays x and l (ints) each element has its own l."""
    half_x2 = sign * 0.5 * (x * x)
    if kind == "j":
        return ops.pow(x, l), 1.0 / ops.double_factorial(2 * l + 1), half_x2, 2.0 * l + 1.0, 0.0
    return -ops.double_factorial(2 * l - 1) / ops.pow(x, l + 1), 1.0, half_x2, -2.0 * l - 1.0, 1.0


def _series_value(kind, pref, total, ops):
    """The series value from its prefactor and sum: j_l is 0 where x^l underflows."""
    if kind == "j":
        return ops.where(pref == 0.0, 0.0, pref * total)
    return pref * total


def _n_overflows(l, x, ops):
    """Whether the leading term (2l - 1)!! / x^(l + 1) of the n_l series exceeds e^700."""
    return ops.log(ops.double_factorial(2 * l - 1)) - (l + 1) * ops.log(x) > 700.0


def _stop(total, done):
    return None


def _series(kind, l, x, sign):
    pref, first, half_x2, b, floor = _series_terms(kind, l, x, sign, _FLOAT)
    return _series_value(kind, pref, _power_series(first, half_x2, b, floor, _FLOAT, _stop), _FLOAT)


def _series_j(l, x, sign=-1.0):
    """Power series for j_l, good for small and moderate x.

    sign = +1 gives the evanescent companion i^{-l} j_l(ix), a manifestly
    real series.
    """
    return _series("j", l, x, sign)


def _series_n(l, x, sign=-1.0):
    """Power series for n_l; all-orders single-sum form.

    sign = +1 gives the evanescent companion i^{l+1} n_l(ix), a manifestly
    real series.
    """
    if _n_overflows(l, x, _FLOAT):
        kind = "evanescent n" if sign > 0 else "n"
        raise OverflowError(f"{kind}_{l} overflows at x = {x}")
    return _series("n", l, x, sign)


@functools.lru_cache(maxsize=256)
def _hankel_terms(l, start):
    """((-1)^k a_(2k+start)(l + 1/2), 2k + start + 1) over 2k + start <= l (a_coeff)."""
    return tuple(
        ((-1.0) ** k * a_coeff(2 * k + start, l), 2 * k + start + 1)
        for k in range((l - start) // 2 + 1)
    )


def _hankel_sum(l, x, start, ops):
    """sum_k (-1)^k a_(2k+start)(l + 1/2) / x^(2k+start+1) over 2k + start <= l, at a
    float or over an array x: S^o_l for start 0, S^e_l for start 1 (DLMF 10.49.2).  A
    float power of x beyond the float range raises OverflowError naming the sum, l and x;
    an array carries nan there."""
    pow_, terms = ops.pow, _hankel_terms(l, start)
    total = 0.0
    try:
        for coeff, power in terms:
            total += coeff / pow_(x, power)
    except OverflowError:
        name = "s_even" if start else "s_odd"
        raise OverflowError(
            f"{name}(l = {l}, x = {x}): x^{power} is beyond the float range"
        ) from None
    return total


def s_odd(l, x):
    """S^o_l(x): odd-index a_k sum of the trig decomposition (DLMF 10.49.2)."""
    return _hankel_sum(l, x, 0, _FLOAT)


def s_even(l, x):
    """S^e_l(x): even companion sum; empty (zero) for l = 0."""
    return _hankel_sum(l, x, 1, _FLOAT)


def _phase_shift(l, s, c):
    """(sin(x - l pi/2), cos(x - l pi/2)) from s = sin x and c = cos x, exactly."""
    r = l % 4
    if r == 0:
        return s, c
    if r == 1:
        return -c, s
    if r == 2:
        return -s, -c
    return c, -s


def phase_shifted_trig(l, x):
    """(sin(x - l pi/2), cos(x - l pi/2)) with the l pi/2 shift applied exactly."""
    return _phase_shift(l, math.sin(x), math.cos(x))


def _s_plus(l, so, se, kind, ops):
    """s_plus from S^o_l and S^e_l (floats or arrays)."""
    if kind == 1:
        return ops.mul((-1j) ** (l % 4), ops.complex(se, -so))
    return ops.mul((1j) ** (l % 4), ops.complex(se, so))


def s_plus(l, x, kind=1):
    """S^+_l(x) (kind=1) or S^-_l(x) (kind=2) of h_l = e^{+-ix} S^{+-}_l.

    Built from the same real sums as the trig decomposition:
    S^+- = (-+i)^l (S^e -+ i S^o), which keeps the two evaluation routes
    numerically coherent.
    """
    return _s_plus(l, _hankel_sum(l, x, 0, _FLOAT), _hankel_sum(l, x, 1, _FLOAT), kind, _FLOAT)


_CROSSOVER_EXTRA = 4.0


def _trig_j_n(l, so, se, sin, cos):
    """(j_l, n_l) by the trig decomposition from S^o_l, S^e_l, sin x and cos x."""
    s, c = _phase_shift(l, sin, cos)
    return so * s + se * c, -so * c + se * s


def _j_n(l, x):
    """(j_l(x), n_l(x)): series below the crossover, trig decomposition above."""
    if x < l + _CROSSOVER_EXTRA:
        return _series_j(l, x), _series_n(l, x)
    so, se = _hankel_sum(l, x, 0, _FLOAT), _hankel_sum(l, x, 1, _FLOAT)
    return _trig_j_n(l, so, se, math.sin(x), math.cos(x))


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


def _j_n_series(l, x, ops):
    """_series_j and _series_n over arrays l (ints) and x of one shape, in one
    _power_series pass over both series of every element, each summed until its float
    form stops; ops reads x's powers."""
    pref_j, *j_terms = _series_terms("j", l, x, -1.0, ops)
    pref_n, *n_terms = _series_terms("n", l, x, -1.0, ops)
    # j's elements, then n's
    term, half_x2, b, floor = (
        np.concatenate(np.broadcast_arrays(jt, nt, x)[:2]) for jt, nt in zip(j_terms, n_terms)
    )
    out = np.empty(term.size)
    active = np.arange(term.size)

    def retire(total, done):
        nonlocal active
        out[active[done]] = total[done]
        active = active[~done]
        return ~done if active.size else None

    total = _power_series(term, half_x2, b, floor, _ARRAY, retire)
    if active.size:
        out[active] = total
    return _series_value("j", pref_j, out[: x.size], ops), _series_value("n", pref_n, out[x.size :], ops)


def _table_ops(powers, points):
    """_ARRAY with pow(x, k) read from a table of libm powers, powers[i, k] = x_i^k, where
    x holds the table points `points` (an index array, or slice(None) for all)."""
    return SimpleNamespace(**{**vars(_ARRAY), "pow": lambda x, k: powers[points, k]})


@np.errstate(all="ignore")
def _radial_grid(x, lmax):
    """radial_basis and radial_basis_deriv of h1, j and n for l = 0..lmax over a 1-d
    float array x.

    Returns [(values, derivatives)] for h1, j and n: complex arrays of shape
    (len(x), lmax + 1), bit for bit the float functions, and nan or inf
    where those raise.  The ladder derivative at l takes the values at
    l - 1 (at l = 0, at 1) from the neighbouring column, which are the same.

    One pass per series family over the whole grid: sin x and cos x once, one
    table of libm powers x^k, k = 0..l + 1 for every l, that the Hankel sums
    and the series prefactors read, and the j and n series of every (x, l)
    below the crossover x < l + 4 in one _power_series call.
    """
    top = max(lmax, 1)
    sin, cos = _ARRAY.sin(x), _ARRAY.cos(x)
    powers = _libm(math.pow, x[:, None], np.arange(top + 2))
    ops = _table_ops(powers, slice(None))
    # cmath.exp(1j * x) is (exp(0.0) cos x, exp(0.0) sin x) = (cos x, sin x)
    phase = _complex(cos, sin)
    h1 = np.empty((x.size, top + 1), dtype=complex)
    j, n = np.empty((2, x.size, top + 1))
    for l in range(top + 1):
        try:
            so, se = _hankel_sum(l, x, 0, ops), _hankel_sum(l, x, 1, ops)
        except OverflowError:  # an a_k(l + 1/2) beyond the float range (l >= 86)
            so = se = np.full(x.shape, math.nan)
        h1[:, l] = _cmul(phase, _s_plus(l, so, se, 1, _ARRAY))
        j[:, l], n[:, l] = _trig_j_n(l, so, se, sin, cos)
    # the series below the crossover x < l + 4; _j_n sums both, so where either raises,
    # j and n both raise
    ls, at = np.nonzero(x < np.arange(top + 1)[:, None] + _CROSSOVER_EXTRA)
    if at.size:
        js, ns = _j_n_series(ls, x[at], _table_ops(powers, at))
        fault = np.isnan(js) | np.isnan(ns) | _n_overflows(ls, x[at], _ARRAY)
        j[at, ls], n[at, ls] = np.where(fault, math.nan, js), np.where(fault, math.nan, ns)
    out = []
    scale = (np.arange(1, lmax + 1) + 1.0) / x[:, None]  # (l + 1) / x
    for values in (h1, _complex(j), _complex(n)):
        derivs = np.empty((x.size, lmax + 1), dtype=complex)
        derivs[:, 0] = -values[:, 1]
        derivs[:, 1:] = values[:, :lmax] - _cmul(scale, values[:, 1 : lmax + 1])
        out.append((values[:, : lmax + 1], derivs))
    return out
