"""Complex structures on the AdS tube mode space.

A candidate complex structure acts per (frequency, angular momentum)
through a 2x2 matrix of j-factors on the (a, b) radial channels.  This
module evaluates the full condition system for such an action (square to
minus one, symplectic compatibility, reality, positivity of the induced
real product), the recurrences imposed by commutation with the boost
generators, and the Gamma-function candidate solutions of those
recurrences.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._jsonio import encode_array, read_records, records
from .ads_modes import _channel_params, _cmul, _find, _ordered_sum, is_real_solution
from .specfun import _ARRAY, _FLOAT, _gamma_fault

__all__ = [
    "JFactors",
    "jfactors_from_json",
    "ConditionReport",
    "apply_J",
    "check_conditions",
    "g_rho",
    "boost_recurrence_residual",
    "boost_recurrence_residual_ba",
    "candidate_jab",
    "complete_nondiagonal",
    "diagonal_jfactors",
    "candidate_jfactors",
    "diagonal_boost_mismatch",
]


_FACTORS = ("jaa", "jab", "jba", "jbb")


class JFactors:
    """Per-(omega, l) complex 2x2 action (jaa, jab; jba, jbb) on (a, b).

    Stored as a (keys, 4) complex array in sorted (omega, l) key order.
    """

    __slots__ = ("_keys", "_codes", "_values")

    def __init__(self, table):
        store = {(float(omega), int(l)): row for (omega, l), row in table.items()}
        self._keys = sorted(store)
        # omega + i l: numpy orders complex numbers lexicographically, so
        # the codes of the sorted keys are sorted and searchable
        self._codes = np.array([complex(omega, l) for omega, l in self._keys])
        values = np.array([store[key] for key in self._keys], dtype=complex)
        self._values = values.reshape(len(self._keys), 4)

    def _at(self, codes):
        """(jaa, jab, jba, jbb) at omega + i l codes; KeyError for the first one missing."""
        rows = _find(self._codes, codes)
        if np.any(rows < 0):
            code = np.ravel(codes)[np.argmax(rows < 0)]
            raise KeyError(f"no j-factors at (omega, l) = {(float(code.real), int(code.imag))}")
        return self._values[rows]

    @property
    def table(self):
        return dict(zip(self._keys, map(tuple, self._values.tolist())))

    def keys(self):
        return list(self._keys)

    def get(self, omega, l):
        return tuple(self._at(complex(float(omega), int(l))).tolist())

    def has(self, omega, l):
        return bool(_find(self._codes, complex(float(omega), int(l))) >= 0)

    def to_json(self):
        omegas, ls = self._codes.real, self._codes.imag.astype(int)
        cells = np.column_stack([encode_array(a) for a in (omegas, ls, self._values.view(float))])
        fields = [("omega", None), ("l", None)] + [(name, 2) for name in _FACTORS]
        return records(fields, len(self._keys), cells.ravel().tolist())


def jfactors_from_json(text):
    (omegas, ls), values = read_records(json.loads(text), ("omega", "l"), pairs=_FACTORS)
    return JFactors(dict(zip(zip(omegas, ls), values.tolist())))


def apply_J(jf, phi):
    """Entrywise action: (J phi)^a = jaa phi^a + jab phi^b, and likewise ^b."""
    omegas, ls, _, a, b = phi._entry_arrays()
    jaa, jab, jba, jbb = jf._at(omegas + 1j * ls).T
    return phi._with_values(_cmul(jaa, a) + _cmul(jab, b), _cmul(jba, a) + _cmul(jbb, b))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the full condition system over a frequency-symmetric grid.

    residuals holds the worst absolute residual per named condition;
    case is "diagonal", "nondiagonal" or "invalid".  pairs holds every
    field above for each checked key's (omega, l)/(-omega, l) pair on its
    own, as lists in sorted key order (residuals as a dict of lists).
    """

    reality_ok: bool
    square_ok: bool
    compat_ok: bool
    offdiag_ok: bool
    real_products_ok: bool
    case: str
    positivity_ok: bool
    residuals: dict
    pairs: dict = field(default=None, repr=False, compare=False)

    @property
    def essential_ok(self):
        return self.reality_ok and self.square_ok and self.compat_ok and self.offdiag_ok


_CASES = ("invalid", "diagonal", "nondiagonal")


def _key_conditions(values, mirror, tol):
    """Residuals, case (index into _CASES) and positivity of (..., 4) j-factors.

    mirror holds the j-factors at (-omega, l).  Each off-diagonal entry
    is tested against a scale that leaves out its reciprocal partner
    (jba = -(1 + jaa^2)/jab), so a small valid jab is not swamped; the
    nondiagonal case is told by jab jba = -(1 + jaa^2), which does not
    vanish however small jab is.
    """
    jaa, jab, jba, jbb = np.moveaxis(values, -1, 0)
    scale = np.maximum(1.0, np.maximum(np.abs(jaa) ** 2, np.abs(jab * jba)))
    scale_off = np.maximum(1.0, np.maximum(np.abs(jab), np.abs(jba))) * np.maximum(
        1.0, np.abs(jaa + jbb)
    )
    res = {
        "square_a": np.abs(jaa * jaa + jab * jba + 1.0) / scale,
        "square_b": np.abs(jbb * jbb + jab * jba + 1.0) / scale,
        "offdiag_ab": np.abs(jab * (jaa + jbb)) / scale_off,
        "offdiag_ba": np.abs(jba * (jaa + jbb)) / scale_off,
        "compat": np.abs(jaa * np.conj(jbb) - jba * np.conj(jab) - 1.0) / scale,
        "real_aa_ba": np.abs((jaa * np.conj(jba)).imag) / np.maximum(1.0, np.abs(jaa * jba)),
        "real_bb_ab": np.abs((jbb * np.conj(jab)).imag) / np.maximum(1.0, np.abs(jbb * jab)),
        "real_ab_ba": np.abs((jab * np.conj(jba)).imag) / np.maximum(1.0, np.abs(jab * jba)),
        "reality": np.abs(mirror - np.conj(values)).max(axis=-1)
        / np.maximum(1.0, np.abs(values).max(axis=-1)),
    }
    tol_d = tol * np.maximum(1.0, np.maximum(np.abs(jaa), np.abs(jbb)))
    tol_ab = np.maximum(tol_d, tol * np.abs(jab))
    tol_ba = np.maximum(tol_d, tol * np.abs(jba))
    diag = (
        (np.abs(jab) <= tol_ab)
        & (np.abs(jba) <= tol_ba)
        & (np.abs(jaa - jbb) <= tol_d)
        & (np.abs(jaa.real) <= tol_d)
        & (np.abs(np.abs(jaa.imag) - 1.0) <= tol_d)
    )
    nondiag = (
        (np.abs(jab * jba) > tol_d)
        & (np.abs(jaa.imag) <= tol_d)
        & (np.abs(jab.imag) <= tol_ab)
        & (np.abs(jba.imag) <= tol_ba)
        & (np.abs(jbb.imag) <= tol_d)
        & (np.abs(jbb + jaa) <= tol_d)
    )
    case = np.where(diag, 1, np.where(nondiag, 2, 0))
    return res, case, (case == 2) & (jba.real > 0.0) & (jab.real < 0.0)


def _fold(res, case, positive, tol):
    """ConditionReport fields over the last axis of per-key arrays, as lists or scalars."""
    worst = {name: r.max(axis=-1, initial=0.0) for name, r in res.items()}
    essential = dict(
        reality_ok=worst["reality"] <= tol,
        square_ok=np.maximum(worst["square_a"], worst["square_b"]) <= tol,
        compat_ok=worst["compat"] <= tol,
        offdiag_ok=np.maximum(worst["offdiag_ab"], worst["offdiag_ba"]) <= tol,
    )
    real_products = [worst[name] for name in ("real_aa_ba", "real_bb_ab", "real_ab_ba")]
    # one case for all keys, else invalid; with no keys the bounds cross
    shared = case.max(axis=-1, initial=0)
    uniform = shared == case.min(axis=-1, initial=2)
    folded = np.where(uniform & np.logical_and.reduce(list(essential.values())), shared, 0)
    fields = dict(
        essential,
        real_products_ok=np.max(real_products, axis=0) <= tol,
        case=np.array(_CASES)[folded],
        positivity_ok=positive.all(axis=-1) & (folded > 0),
    )
    fields = {name: v.tolist() for name, v in fields.items()}
    return fields | {"residuals": {name: r.tolist() for name, r in worst.items()}}


def check_conditions(jf, grid=None, tol=1e-10):
    """Evaluate every condition of the 2x2 action as residuals.

    grid defaults to all stored (omega, l) keys and must be symmetric in
    omega.  Positivity holds only in the nondiagonal case, through
    Sylvester's criterion on the induced quadratic form: jba > 0 with
    jab < 0 (the determinant is already pinned to one by the square
    condition).
    """
    keys = jf.keys() if grid is None else sorted((float(w), int(l)) for w, l in grid)
    omegas, ls = np.array(keys, dtype=float).reshape(-1, 2).T
    values = jf._at(omegas + 1j * ls)
    mirror = _find(jf._codes, -omegas + 1j * ls)
    if np.any(mirror < 0):
        raise ValueError("condition grid must be symmetric in omega")
    # each key next to its (-omega, l) mirror: column 0 is the key itself
    pair = np.stack([values, jf._values[mirror]], axis=1)
    res, case, positive = _key_conditions(pair, pair[:, ::-1], tol)
    own = _fold({name: r[:, 0] for name, r in res.items()}, case[:, 0], positive[:, 0], tol)
    return ConditionReport(**own, pairs=_fold(res, case, positive, tol))


def g_rho(p, jf, phi):
    """Induced real quadratic form g(phi, phi) for a real solution phi.

    pi R^(d-1) sum w(omega) sum_L (2l + d - 2)
    [jba |phi^a|^2 - jab |phi^b|^2 - 2 jaa Re(phi^a conj(phi^b))].
    """
    if not is_real_solution(phi):
        raise ValueError("g_rho requires a real solution")
    omegas, ls, weights, a, b = phi._entry_arrays()
    jaa, jab, jba, _ = jf._at(omegas + 1j * ls).T
    weight = weights * (2.0 * ls + p.d - 2.0)
    # libm hypot and pow, and a plain real product, round |a|^2 and
    # Re(a conj(b)) the same on every CPU; the CLI prints this value to 17 digits
    abs2_a, abs2_b = (np.float_power(np.hypot(x.real, x.imag), 2.0) for x in (a, b))
    re_ab = a.real * b.real + a.imag * b.imag
    total = _ordered_sum(weight * (jba * abs2_a - jab * abs2_b - 2.0 * jaa * re_ab))
    value = math.pi * p.R ** (p.d - 1) * total
    return float(value.real) if abs(value.imag) <= 1e-10 * max(1.0, abs(value)) else value


def _boost_factor(p, omega, l):
    """f_minus of the boost recurrences at (omega, l); f_plus is f_minus at -omega."""
    dd, d = p.Delta, p.d
    return (dd + omega - l - d) * (dd - omega + l) / ((2.0 * l + d) * (2.0 * l + d - 2.0))


def boost_recurrence_residual(p, jab, omega, l):
    """Residuals of the two independent boost commutation conditions.

    res_minus = |jab(omega-1, l+1) + jab(omega, l) f_minus| and
    res_plus = |jab(omega+1, l+1) + jab(omega, l) f_plus| with the
    rational factors f built from (Delta, omega, l, d).  jab is a callable
    (omega, l) -> complex.
    """
    if l < 0:
        raise ValueError("boost residuals require l >= 0")
    base = jab(omega, l)
    res_minus = abs(jab(omega - 1.0, l + 1) + base * _boost_factor(p, omega, l))
    res_plus = abs(jab(omega + 1.0, l + 1) + base * _boost_factor(p, -omega, l))
    return res_minus, res_plus


def boost_recurrence_residual_ba(p, jba, omega, l):
    """Companion residuals for the jba side.

    jba = -1/jab turns the jab recurrences into
    jba(omega-+1, l+1) f = -jba(omega, l); stated here directly so the
    two sides can be audited independently.
    """
    if l < 0:
        raise ValueError("boost residuals require l >= 0")
    base = jba(omega, l)
    res_minus = abs(jba(omega - 1.0, l + 1) * _boost_factor(p, omega, l) + base)
    res_plus = abs(jba(omega + 1.0, l + 1) * _boost_factor(p, -omega, l) + base)
    return res_minus, res_plus


def _candidate(which, p, omega, l, ops):
    """Candidate `which` at (omega, l) by signed-log Gamma products, each side summed in
    sorted argument order (so -omega, which swaps arguments, gives the same value): the
    value, the log of its magnitude and each argument in that order with its fault flags."""
    aa, ba, ab, bb, g = _channel_params(p, omega, l)
    # the channel pairs (alpha, beta) and their reflections (1 - alpha, 1 - beta)
    a, b = (aa, ba), (ab, bb)
    ra, rb = (1.0 - aa, 1.0 - ba), (1.0 - ab, 1.0 - bb)
    sides = {1: (a, b), 2: (rb, ra), 3: ((), b + ra), 4: (a + rb, ())}
    if which not in sides:
        raise ValueError("candidate index must be 1..4")
    numerator, denominator = sides[which]
    sign = (-1.0) ** l if which in (1, 2) else 1.0
    log_total, args = 0.0, []
    for direction, side in ((1.0, numerator), (-1.0, denominator + (g, g - 1.0))):
        for x in ops.sort(side):
            log_abs, s, fault = ops.log_gamma(x)
            log_total = log_total + direction * log_abs
            sign = sign * s
            args.append((x, fault))
    return sign * ops.exp(log_total), log_total, args


def candidate_jab(which, p, omega, l):
    """The four Gamma-ratio solutions of the boost recurrences.

    1: (-1)^l G(aa) G(ba) / [G(ab) G(bb) G(g) G(g-1)]
    2: (-1)^l G(1-ab) G(1-bb) / [G(1-aa) G(1-ba) G(g) G(g-1)]
    3: 1 / [G(ab) G(bb) G(1-aa) G(1-ba) G(g) G(g-1)]
    4: G(aa) G(ba) G(1-ab) G(1-bb) / [G(g) G(g-1)]
    with aa/ba the channel-a parameter pair, ab/bb the channel-b pair,
    g = l + d/2.  Real for real inputs; poles raise with the argument.
    """
    value, _, args = _candidate(which, p, omega, l, _FLOAT)
    for x, fault in args:
        if fault:
            raise _gamma_fault(x)
    return value


@np.errstate(all="ignore")
def _candidate_jab_grid(which, p, omega, l):
    """candidate_jab over arrays omega and l (ints): (values, faults).

    faults maps the index of a point where candidate_jab raises to the
    exception it raises first: per argument in sorted numerator and then
    sorted denominator order a non-finite value or a pole, then an
    overflowing exp.  A negative l anywhere raises ValueError at once.
    """
    omega, l = np.asarray(omega, dtype=float), np.asarray(l)
    values, log_total, args = _candidate(which, p, omega, l, _ARRAY)
    faults = {}
    for x, fault in args:
        for i in np.flatnonzero(fault).tolist():
            faults.setdefault(i, _gamma_fault(x.item(i)))
    for i in np.flatnonzero(np.isinf(values) & np.isfinite(log_total)).tolist():
        faults.setdefault(i, OverflowError("math range error"))
    return values, faults


@np.errstate(all="ignore")
def _candidate_boost_grid(which, p, omega, l):
    """candidate_jab and its two boost residuals over arrays omega and l (ints).

    Bit for bit candidate_jab and boost_recurrence_residual point by
    point.  Raises what they raise first when the points are taken in
    order, each point's own value before its (omega - 1, l + 1) and then
    its (omega + 1, l + 1) neighbour.
    """
    omega, l = np.asarray(omega, dtype=float), np.asarray(l)
    omegas = np.concatenate([omega, omega - 1.0, omega + 1.0])
    values, faults = _candidate_jab_grid(which, p, omegas, np.concatenate([l, l + 1, l + 1]))
    if faults:
        raise faults[min(faults, key=lambda i: (i % l.size, i // l.size))]
    base, minus, plus = values.reshape(3, l.size)
    res_minus = np.abs(minus + base * _boost_factor(p, omega, l))
    return base, res_minus, np.abs(plus + base * _boost_factor(p, -omega, l))


def complete_nondiagonal(jab, jaa=0.0):
    """Fill a nondiagonal 2x2 entry from its jab value.

    jba = -(1 + jaa^2)/jab and jbb = -jaa satisfy the square, compat and
    off-diagonal conditions by construction; jab must be real nonzero.
    """
    jab = complex(jab)
    jaa = complex(jaa)
    if jab == 0.0:
        raise ValueError("jab = 0 degenerates to the diagonal case")
    if abs(jab.imag) > 1e-14 * abs(jab) or abs(jaa.imag) > 1e-14 * max(1.0, abs(jaa)):
        raise ValueError("nondiagonal entries must be real")
    jba = -(1.0 + jaa * jaa) / jab
    return (jaa, jab, jba, -jaa)


def diagonal_jfactors(grid):
    """The sign-split diagonal structure: +-i by the sign of omega.

    omega = 0 is excluded; the reality condition forces the sign split
    and makes the choice impossible there.
    """
    table = {}
    for (omega, l) in grid:
        if omega == 0.0:
            raise ValueError("the diagonal case does not work at omega = 0")
        v = 1.0j if omega > 0 else -1.0j
        table[(omega, l)] = (v, 0.0, 0.0, v)
    return JFactors(table)


def candidate_jfactors(which, p, grid, jaa=0.0):
    """JFactors built by completing a candidate jab over a grid of (omega, l) keys."""
    keys = list(grid)
    if not keys:
        return JFactors({})
    omegas, ls = zip(*keys)
    values, faults = _candidate_jab_grid(which, p, omegas, np.array(ls, dtype=int))
    table = {}
    for i, (key, jab) in enumerate(zip(keys, values.tolist())):
        if i in faults:
            raise faults[i]
        table[key] = complete_nondiagonal(jab, jaa)
    return JFactors(table)


def diagonal_boost_mismatch(omega):
    """Whether the infinitesimal boost detects the diagonal case's failure.

    The frequency shift omega -> omega - 1 crosses zero exactly for
    0 < omega < 1, flipping the sign-split diagonal factor there.
    """
    if omega <= 0.0:
        raise ValueError("stated for positive frequencies")
    return omega < 1.0
