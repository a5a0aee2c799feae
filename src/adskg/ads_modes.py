"""Tube mode space for Klein-Gordon theory on AdS.

Solutions near an equal-radius hypercylinder decompose into frequency and
angular-momentum labelled modes with two radial channels: channel a is
regular at the origin, channel b singular.  The radial profiles are
hypergeometric in sin^2(rho); their conserved relative Wronskian is what
makes the mode-space symplectic structure hypersurface independent.

A channel's set-up (sin exponent, 2F1 parameters) is stated once for
floats and arrays: radial_eval[_deriv] drive it at one point and
_channel_grid over a grid, bit for bit alike (libm per element).  The
labels d and l are integers, so channel b's series exists exactly for odd d.
"""

import functools
import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from ._jsonio import encode_array, read_records, records, refuse_repeats
from .harmonics import MultiIndex, all_indices
from .specfun import (
    _HYP_Z_MAX,
    PoleError,
    _cmul,
    _dz_series,
    _hyp2f1_grid,
    hyp2f1,
    hyp2f1_dz,
)

__all__ = [
    "AdSParams",
    "delta_for_mass",
    "HypergeoParams",
    "hypergeo_params",
    "radial_eval",
    "radial_eval_deriv",
    "radial_wronskian",
    "ModeVector",
    "mode_vector_from_json",
    "omega_rho",
    "act_time_translation",
    "act_rotation",
    "is_real_solution",
    "random_real_mode_vector",
]


@dataclass(frozen=True)
class AdSParams:
    """Spatial dimension d, conformal weight Delta, curvature radius R."""

    d: int
    Delta: float
    R: float = 1.0

    def __post_init__(self):
        if self.d < 3:
            raise ValueError("AdSParams requires d >= 3")
        if self.d % 1:
            raise ValueError(f"AdSParams requires an integer d, got d = {self.d}")
        if self.R <= 0.0:
            raise ValueError("AdSParams requires R > 0")
        if not self.Delta > (self.d - 1) / 2.0:
            # keeps the Gamma arguments of the first candidate solution off
            # poles for small frequencies and angular momenta
            raise ValueError("AdSParams requires Delta > (d - 1) / 2")
        if not (math.isfinite(self.Delta) and math.isfinite(self.R)):
            raise ValueError(
                f"AdSParams requires finite Delta and R, got Delta = {self.Delta}, R = {self.R}"
            )


def delta_for_mass(m, R, d):
    """Standard weight-mass relation Delta = d/2 + sqrt(d^2/4 + m^2 R^2)."""
    return d / 2.0 + math.sqrt(d * d / 4.0 + m * m * R * R)


@dataclass(frozen=True)
class HypergeoParams:
    """Hypergeometric parameters of the two radial channels."""

    alpha_a: float
    beta_a: float
    alpha_b: float
    beta_b: float
    gamma: float


def hypergeo_params(p, omega, l):
    """Channel parameters for frequency omega and angular momentum l.

    alpha_a = (Delta - omega + l)/2, beta_a = (Delta + omega + l)/2,
    alpha_b = (Delta - omega - l - d + 2)/2, beta_b likewise with +omega,
    gamma = l + d/2.
    """
    return HypergeoParams(*_channel_params(p, omega, l))


def _channel_params(p, omega, l):
    """(alpha_a, beta_a, alpha_b, beta_b, gamma): floats, or arrays for arrays omega and l.

    l must be an integer: a number of integer value, or an array of an
    integer dtype, so that no numpy reduction over its values is added.  A
    negative l raises, at a point or anywhere in an array.
    """
    if isinstance(l, np.ndarray):
        if not np.issubdtype(l.dtype, np.integer):
            raise ValueError(f"hypergeo_params requires an integer l, got an array of {l.dtype}")
        if l.min(initial=0) < 0:
            raise ValueError("hypergeo_params requires l >= 0")
    elif l % 1:
        raise ValueError(f"hypergeo_params requires an integer l, got l = {l}")
    elif l < 0:
        raise ValueError("hypergeo_params requires l >= 0")
    dd = p.Delta
    return (
        0.5 * (dd - omega + l),
        0.5 * (dd + omega + l),
        0.5 * (dd - omega - l - p.d + 2.0),
        0.5 * (dd + omega - l - p.d + 2.0),
        l + p.d / 2.0,
    )


def _check_rho(rho):
    # the radial domain is the 2F1 series domain in z = sin^2 rho
    z = math.sin(rho) ** 2
    if rho <= 0.0 or z > _HYP_Z_MAX:
        raise ValueError(f"rho = {rho} outside the radial domain (sin^2 rho <= {_HYP_Z_MAX})")
    return z


def _channel(p, omega, l, channel):
    """Sin exponent and 2F1 parameters (a, b, c) of a channel: floats, or arrays for
    arrays omega and l."""
    aa, ba, ab, bb, gamma = _channel_params(p, omega, l)
    if channel == "a":
        return l, (aa, ba, gamma)
    if channel == "b":
        return 2.0 - p.d - l, (ab, bb, 2.0 - gamma)
    raise ValueError(f"unknown channel {channel!r}")


def _b_pole(p):
    """Whether channel b has no series: its c = 2 - l - d/2 is a nonpositive integer at
    every l for even d (DLMF 15.2), and channel a's c = l + d/2 never is."""
    return p.d % 2 == 0


def _channel_pole(p, c):
    return PoleError(
        f"channel b series parameter 2 - gamma = {c} is a nonpositive integer (even d = {p.d})"
    )


def _point_channel(p, omega, l, channel, rho):
    """sin^2 rho, the sin exponent and (a, b, c) of a channel at one point;
    raises what radial_eval raises."""
    z = _check_rho(rho)
    exp_sin, params = _channel(p, omega, l, channel)
    if channel == "b" and _b_pole(p):
        raise _channel_pole(p, params[2])
    return z, exp_sin, params


def _rho_factors(p, exp_sin, rho):
    """(s, c, s^e c^Delta, e s^(e-1) c^(Delta+1), Delta s^(e+1) c^(Delta-1)) at rho.

    s = sin rho, c = cos rho and e = exp_sin; the last three multiply F in
    the profile and its rho-derivative.
    """
    s, c = math.sin(rho), math.cos(rho)
    return (
        s,
        c,
        s**exp_sin * c**p.Delta,
        exp_sin * s ** (exp_sin - 1.0) * c ** (p.Delta + 1.0),
        p.Delta * s ** (exp_sin + 1.0) * c ** (p.Delta - 1.0),
    )


def _profile_deriv(factors, f, df):
    """d/drho of s^e c^Delta F(sin^2 rho) from F and dF/dz (floats or arrays)."""
    s, c, value, up, down = factors
    return up * f - down * f + value * df * 2.0 * s * c


def radial_eval(p, omega, l, channel, rho):
    """Radial mode profile, unit leading coefficient as rho -> 0.

    channel a: sin^l rho cos^Delta rho F(alpha_a, beta_a; gamma; sin^2 rho);
    channel b: the sin^(2-d-l) companion with the 2-gamma series.
    """
    z, exp_sin, params = _point_channel(p, omega, l, channel, rho)
    return _rho_factors(p, exp_sin, rho)[2] * hyp2f1(*params, z)


def radial_eval_deriv(p, omega, l, channel, rho):
    """d/drho of radial_eval, term-wise analytic differentiation."""
    return _channel_point(p, omega, l, channel, rho)[1]


def _channel_point(p, omega, l, channel, rho):
    """(radial_eval, radial_eval_deriv) of a channel at one point, F summed once."""
    z, exp_sin, params = _point_channel(p, omega, l, channel, rho)
    factors = _rho_factors(p, exp_sin, rho)
    f = hyp2f1(*params, z)
    return factors[2] * f, _profile_deriv(factors, f, hyp2f1_dz(*params, z))


@np.errstate(all="ignore")
def _channel_grid(p, omega, l, rho):
    """(S_a, dS_a, S_b, dS_b) at one rho over arrays omega and l (ints), and the faults.

    Bit for bit radial_eval and radial_eval_deriv of each point.  One
    _hyp2f1_grid pass sums whole blocks of l.size elements: F and the
    derivative's shifted series of channel a, then of channel b for odd d.
    faults holds one dict per channel (a, b) that maps the index of a point
    where those raise to the exception: channel b's pole at every point for
    even d, else the value series' fault, else the derivative series' fault.
    The values a fault spoils are nan.
    """
    z = _check_rho(rho)
    omega, l = np.asarray(omega, dtype=float), np.asarray(l)
    channels = [_channel(p, omega, l, name) for name in "ab"]
    faults_b = {}
    if _b_pole(p):  # channel b has no block: each point faults on its c
        _, (_, _, c) = channels.pop()
        faults_b = {i: _channel_pole(p, ci) for i, ci in enumerate(c.tolist())}
    # per summed channel: sin exponent, (a, b, c), and the derivative's factor and series
    summed = [(exp_sin, params, *_dz_series(*params)) for exp_sin, params in channels]
    series = [params for _, value, _, shifted in summed for params in (value, shifted)]
    values, faults = _hyp2f1_grid(*map(np.concatenate, zip(*series)), z)
    point_faults = ({}, faults_b)
    for i in sorted(faults):  # each value block comes before its derivative block
        block, point = divmod(i, l.size)
        point_faults[block // 2].setdefault(point, faults[i])
    out = np.full((4, *l.shape), np.nan)
    blocks = values.reshape(len(series), *l.shape)
    for k, (exp_sin, _, factor, _) in enumerate(summed):
        f, f1 = blocks[2 * k : 2 * k + 2]
        # the powers of sin and cos per exponent, taken as radial_eval takes them
        exps, at = np.unique(exp_sin, return_inverse=True)
        factors = np.reshape([_rho_factors(p, e, rho) for e in exps.tolist()], (-1, 5))[at].T
        out[2 * k], out[2 * k + 1] = factors[2] * f, _profile_deriv(factors, f, factor * f1)
    return tuple(out), point_faults


def radial_wronskian(p, omega, l, rho):
    """tan^(d-1) rho (S^a dS^b - S^b dS^a): constant in rho.

    With unit leading coefficients its value is -(2l + d - 2).
    """
    return _wronskian(p, rho, *_radial_point(p, omega, l, rho))


def _wronskian(p, rho, sa, dsa, sb, dsb):
    """radial_wronskian from the channels at rho: floats, or arrays bit for bit alike."""
    return math.tan(rho) ** (p.d - 1) * (sa * dsb - sb * dsa)


def _radial_point(p, omega, l, rho):
    """(S_a, dS_a, S_b, dS_b) at one point, as _channel_grid gives them; channel a first."""
    return (*_channel_point(p, omega, l, "a", rho), *_channel_point(p, omega, l, "b", rho))


class _LabelSpace(NamedTuple):
    """The labels of all_indices(d, lmax) and the maps between them."""

    d: int
    labels: tuple  # (levels, m) in all_indices order, which is sorted order
    index: dict  # (levels, m) -> position
    l: np.ndarray  # leading level of each label
    partner: np.ndarray  # position of (levels, -m)
    numbers: np.ndarray  # (labels, d - 1) ints: the levels, then m


# the most labels a label space holds: 2^16 is lmax 255 at d = 3, about 0.3 s and 21 MB
# to build on a 2-core x86-64 host; the benchmark's largest holds 336 (lmax 6 at d = 5)
_LABELS_MAX = 1 << 16


def _label_count(d, lmax):
    """len(all_indices(d, lmax)) for d >= 3: C(lmax + d - 1, d - 1) + C(lmax + d - 2, d - 1),
    the harmonic dimensions C(l + d - 1, d - 1) - C(l + d - 3, d - 1) summed over l."""
    return math.comb(lmax + d - 1, d - 1) + math.comb(lmax + d - 2, d - 1) if lmax >= 0 else 0


@functools.lru_cache(maxsize=32)
def _label_space(d, lmax):
    if d >= 3 and (count := _label_count(d, lmax)) > _LABELS_MAX:
        raise ValueError(
            f"the mode labels up to lmax = {lmax} at d = {d} number {count}, more than {_LABELS_MAX}"
        )
    labels = tuple((idx.levels, idx.m) for idx in all_indices(d, lmax))
    index = {label: j for j, label in enumerate(labels)}
    l = np.array([levels[0] for levels, _ in labels], dtype=int)
    partner = np.array([index[(levels, -m)] for levels, m in labels], dtype=np.intp)
    numbers = np.array([(*levels, m) for levels, m in labels], dtype=int)
    return _LabelSpace(d, labels, index, l, partner, numbers.reshape(len(labels), max(d - 1, 0)))


def _label_positions(levels, ms):
    """Smallest label space holding the labels (levels[k], ms[k]), and their positions in it."""
    try:
        d = len(levels[0]) + 2 if levels else 0
        space = _label_space(d, int(max(map(itemgetter(0), levels), default=-1)))
        labels = map(space.index.__getitem__, zip(map(tuple, levels), ms))
        return space, np.fromiter(labels, np.intp, len(ms))
    except (IndexError, KeyError):
        for lv, m in zip(levels, ms):
            MultiIndex(tuple(lv), int(m))
        raise ValueError("mode vector labels must be integer multi-indices of one dimension")


def _find(sorted_keys, wanted):
    """Position of each wanted value in a sorted array, -1 where it is absent."""
    wanted = np.asarray(wanted)
    if len(sorted_keys) == 0:
        return np.full(wanted.shape, -1)
    pos = np.minimum(np.searchsorted(sorted_keys, wanted), len(sorted_keys) - 1)
    return np.where(sorted_keys[pos] == wanted, pos, -1)


def _ordered_sum(terms):
    """Running total from zero in entry order, not numpy's pairwise sum."""
    return complex(0.0 + np.cumsum(terms)[-1]) if len(terms) else 0j


class ModeVector:
    """Finite mode content of a solution in the two-channel expansion.

    entries: {(omega, levels, m): (a, b)} complex channel pairs;
    freq_grid: [(omega, weight)] discretizing the frequency integral.
    Stored as one complex array over (frequency in grid order, label in
    all_indices(d, lmax) order, channel a/b), with the (frequency, label)
    positions of the entries given, in the order given; positions not
    given hold zero and are not entries.  Immutable after construction.
    """

    __slots__ = ("_omegas", "_weights", "_space", "_data", "_entries")

    def __init__(self, freq_grid, entries):
        grid = np.array([(float(omega), float(w)) for omega, w in freq_grid]).reshape(-1, 2)
        omegas, levels, ms = zip(*entries) if entries else ((), (), ())
        pairs = entries.values()
        if not {*map(len, pairs)} <= {2}:
            raise ValueError("each mode vector entry holds a pair (a, b)")
        values = np.fromiter(chain.from_iterable(pairs), complex, 2 * len(pairs)).reshape(-1, 2)
        self._fill(*grid.T, omegas, levels, ms, values)

    def _fill(self, grid, weights, omegas, levels, ms, values):
        """Set this vector from its grid and the columns of its entries, (a, b) in values.

        The checks run on whole arrays; only when one fails does _refuse_entries
        look for the first fault, in the order a repeated key, the grid, an entry
        frequency, a label.
        """
        grid, weights = np.asarray(grid, dtype=float), np.asarray(weights, dtype=float)
        order = np.argsort(grid)
        self._omegas, self._weights = grid[order], weights[order]
        freqs = _find(self._omegas, np.array(omegas, dtype=float))
        try:
            self._space, labels = _label_positions(levels, ms)
            size = len(self._space.labels)
        except (ValueError, TypeError, OverflowError):
            self._space = None
        if not (
            self._space is not None
            and _grid_fault(self._omegas, self._weights) is None
            and (freqs >= 0).all()
            and _distinct(freqs * size + labels, len(self._omegas) * size)
        ):
            _refuse_entries(self._omegas, self._weights, freqs, omegas, levels, ms)
        self._entries = np.stack([freqs, labels], axis=1)
        self._data = np.zeros((len(self._omegas), size, 2), dtype=complex)
        self._data[freqs, labels] = values

    def _new(self, data, entries, space=None):
        """A vector on this grid holding data, with the given entry positions."""
        v = object.__new__(ModeVector)
        v._omegas, v._weights, v._data, v._entries = self._omegas, self._weights, data, entries
        v._space = space or self._space
        return v

    def _entry_arrays(self):
        """omega, l, frequency weight, a and b of each entry, in entry order."""
        f, j = self._entries.T
        return (self._omegas[f], self._space.l[j], self._weights[f], *self._data[f, j].T)

    def _with_values(self, a, b):
        """A vector with this one's entries, in the same order, holding new a and b."""
        f, j = self._entries.T
        data = np.zeros_like(self._data)
        data[f, j, 0], data[f, j, 1] = a, b
        return self._new(data, self._entries)

    @property
    def freq_grid(self):
        return tuple(zip(self._omegas.tolist(), self._weights.tolist()))

    @property
    def entries(self):
        f, j = self._entries.T
        labels = self._space.labels
        keys = [(omega, *labels[jj]) for omega, jj in zip(self._omegas[f].tolist(), j.tolist())]
        return dict(zip(keys, map(tuple, self._data[f, j].tolist())))

    def weight(self, omega):
        return dict(self.freq_grid)[float(omega)]

    def get(self, omega, levels, m):
        levels = tuple(levels)
        if any(v % 1 for v in (*levels, m)):
            raise ValueError(f"mode key (omega, levels, m) = {(omega, levels, m)} has a non-integer label")
        f = int(_find(self._omegas, float(omega)))
        j = self._space.index.get((levels, m))
        if f < 0 or j is None:
            return (0.0 + 0.0j, 0.0 + 0.0j)
        return tuple(self._data[f, j].tolist())

    def grid_is_symmetric(self):
        return bool(
            np.array_equal(self._omegas, -self._omegas[::-1])
            and not np.any(np.abs(self._weights - self._weights[::-1]) > 0.0)
        )

    def same_grid(self, other):
        return self.freq_grid == other.freq_grid

    def map_entries(self, fn):
        """New ModeVector with (a, b) -> fn(omega, levels, m, a, b)."""
        return ModeVector(self.freq_grid, {k: fn(*k, a, b) for k, (a, b) in self.entries.items()})

    def to_json(self):
        # grid order, then all_indices order, is sorted key order
        f, j = self._entries[np.lexsort(self._entries.T[::-1])].T
        d = self._space.d
        grid = encode_array(np.stack([self._omegas, self._weights], axis=1))
        values = encode_array(self._data[f, j].view(float))
        cells = np.column_stack([grid[f, 0], encode_array(self._space.numbers)[j], values])
        grid_fields = [("omega", None), ("weight", None)]
        entry_fields = [("omega", None), ("levels", d - 2), ("m", None), ("a", 2), ("b", 2)]
        return (
            '{\n "freq_grid": '
            + records(grid_fields, len(grid), grid.ravel().tolist(), depth=2)
            + ',\n "entries": '
            + records(entry_fields, len(f), cells.ravel().tolist(), depth=2)
            + "\n}"
        )

    def __eq__(self, other):
        same = isinstance(other, ModeVector) and self.same_grid(other)
        return same and self.entries == other.entries


def _grid_fault(omegas, weights):
    """The fault of a sorted frequency grid, or None."""
    if (weights <= 0.0).any():
        return "frequency weights must be positive"
    if (omegas[1:] == omegas[:-1]).any():
        return "duplicate frequency in grid"
    return None


def _distinct(cells, size):
    """Whether the cells, ints in [0, size), are all different."""
    first, order = np.empty(size, dtype=np.intp), np.arange(len(cells))
    first[cells] = order
    return (first[cells] == order).all()


def _refuse_entries(omegas, weights, freqs, entry_omegas, levels, ms):
    """Raise the first fault of a vector's grid and entries, in ModeVector._fill's order."""
    keys = list(zip(entry_omegas, map(tuple, levels), ms))
    refuse_repeats(keys)
    if fault := _grid_fault(omegas, weights):
        raise ValueError(fault)
    if np.any(freqs < 0):
        raise ValueError(f"entry frequency {float(entry_omegas[int(np.argmax(freqs < 0))])} not on the grid")
    _, labels = _label_positions(levels, ms)
    # keys that differ but land on one position, such as the ints 2^53 + 1 and 2^53
    refuse_repeats(keys, list(zip(freqs.tolist(), labels.tolist())))


def mode_vector_from_json(text):
    data = json.loads(text)
    if type(data) is not dict:
        raise ValueError("a mode file holds a JSON object")
    grid, _ = read_records(data["freq_grid"], ("omega", "weight"))
    rows = data["entries"]
    (omegas, ms, levels), values = read_records(rows, ("omega", "m"), ("levels",), ("a", "b"))
    phi = object.__new__(ModeVector)
    phi._fill(*grid, omegas, levels, ms, values)
    return phi


def omega_rho(p, eta, zeta):
    """Mode-space symplectic structure on the hypercylinder.

    pi R^(d-1) sum_omega w(omega) sum_L (2l + d - 2)
    [eta^a(omega, L) zeta^b(-omega, -m) - eta^b(omega, L) zeta^a(-omega, -m)].
    """
    if not eta.same_grid(zeta):
        raise ValueError("mode vectors live on different frequency grids")
    if eta._space.d != zeta._space.d and len(eta._entries) and len(zeta._entries):
        raise ValueError("mode vectors live in different dimensions")
    _, ls, weights, ea, eb = eta._entry_arrays()
    f, j = eta._entries.T
    # zeta on eta's label space, with a zero row for an -omega off the grid
    z = np.zeros((len(eta._omegas) + 1, len(eta._space.labels), 2), dtype=complex)
    z[:-1, : len(zeta._space.labels)] = zeta._data[:, : len(eta._space.labels)]
    z = z[_find(eta._omegas, -eta._omegas)[f], eta._space.partner[j]]
    weight = weights * (2.0 * ls + p.d - 2.0)
    total = _ordered_sum(weight * (_cmul(ea, z[:, 1]) - _cmul(eb, z[:, 0])))
    return math.pi * p.R ** (p.d - 1) * total


def act_time_translation(dt, phi):
    """Coefficient action of t -> t + dt: both channels pick e^{i omega dt}."""
    phase = np.array([complex(math.cos(w * dt), math.sin(w * dt)) for w in phi._omegas.tolist()])
    return phi._new(_cmul(phi._data, phase[:, None, None]), phi._entries)


def act_rotation(blocks, phi):
    """Coefficient action of a rotation given per-l Wigner blocks.

    blocks: {l: matrix over multi_indices(d, l)} for every l present in
    phi; coefficients mix within fixed l and frequency:
    (R phi)^x(omega, L) = sum_L' block[L, L'] phi^x(omega, L').
    Results that come out exactly zero are not entries.
    """
    space, data = phi._space, phi._data
    out = np.zeros_like(data)
    for l in np.flatnonzero(np.bincount(space.l[phi._entries[:, 1]])).tolist():
        if l not in blocks:
            raise ValueError(f"missing rotation block for l = {l}")
        lo, hi = np.searchsorted(space.l, [l, l + 1])
        block = np.asarray(blocks[l])
        if block.shape != (hi - lo, hi - lo):
            raise ValueError(f"rotation block for l = {l} has wrong shape")
        slab = data[:, lo:hi]
        hit = (slab != 0).any(axis=(1, 2))
        # (n, 1) columns: each (frequency, channel) gets its own matrix-vector
        # product, so its result does not depend on which others share the slab
        columns = np.ascontiguousarray(slab[hit].transpose(0, 2, 1))[..., None]
        out[hit, lo:hi] = (block @ columns)[..., 0].transpose(0, 2, 1)
    return phi._new(out, np.argwhere((out != 0).any(axis=2)))


def is_real_solution(phi, tol=1e-12):
    """True when a(-omega, -m) = conj(a(omega, m)) and likewise for b."""
    if not phi.grid_is_symmetric():
        raise ValueError("reality predicate requires a symmetric frequency grid")
    mirror = phi._data[::-1][:, phi._space.partner]
    return not np.any(np.abs(mirror - np.conj(phi._data)) > tol)


def random_real_mode_vector(d, omegas, l_max, rng):
    """Random solution satisfying the reality condition, for audits and tests.

    omegas: positive frequencies; the grid is their symmetric closure
    with unit weights.
    """
    omegas = sorted({abs(float(w)) for w in omegas})
    if any(w == 0.0 for w in omegas):
        raise ValueError("use nonzero frequencies for random real vectors")
    phi = ModeVector([(w, 1.0) for w in omegas] + [(-w, 1.0) for w in omegas], {})
    space = _label_space(d, l_max)
    n, size = len(omegas), len(space.labels)
    # four normal draws per label, in the order (Re a, Im a, Re b, Im b)
    values = rng.normal(size=(n, size, 4)).view(complex)
    data = np.concatenate([np.conj(values[::-1][:, space.partner]), values])
    i, j = np.divmod(np.arange(n * size), size)
    # the positive frequencies first, then their (-omega, -m) partners
    entries = np.concatenate([np.stack([n + i, j], 1), np.stack([n - 1 - i, space.partner[j]], 1)])
    return phi._new(data, entries, space)
