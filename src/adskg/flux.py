"""Energy-momentum tensor, radial momentum flux, and direction classification.

The flux of radial momentum through a hypercylinder decides whether a
mode is outgoing, incoming, or standing; for single modes it reduces to
a Wronskian of the radial profile.  The extrema-interlacing classifier
reads the same direction off sampled real mode pairs without any flux
integral.

One rule, two drivers: mode_flux's prefactors, Wronskian, non-finite
fault and standing test, and the combined mode, are stated once for
floats and for arrays over a grid of (omega, l) points (specfun's _FLOAT
and _ARRAY operations); the array results match the float ones bit for
bit, with the verdict "fault" where the float form raises.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ads_modes import _radial_point
from .specfun import _ARRAY, _FLOAT, ConvergenceError

__all__ = [
    "DiagonalMetricPoint",
    "em_tensor",
    "radial_momentum_density",
    "DirectionVerdict",
    "mode_flux",
    "ads_combined_mode",
    "extrema_relation",
]

STANDING_TOL = 1e-12


@dataclass(frozen=True)
class DiagonalMetricPoint:
    """Diagonal metric data at a point: g_diag entries plus the Christoffel
    values Gamma^alpha_{mu nu} needed there (dict keyed (alpha, mu, nu))."""

    g_diag: tuple
    christoffel: dict

    def __post_init__(self):
        g = tuple(float(v) for v in self.g_diag)
        object.__setattr__(self, "g_diag", g)
        if any(v == 0.0 for v in g):
            raise ValueError("diagonal metric entries must be nonzero")

    @property
    def dim(self):
        return len(self.g_diag)

    def inverse(self, mu):
        return 1.0 / self.g_diag[mu]

    def gamma(self, alpha, mu, nu):
        return self.christoffel.get((alpha, mu, nu), 0.0)


def em_tensor(b, phi_jet, m, metric, ricci=None):
    """Energy-momentum tensor of an on-shell Klein-Gordon solution.

    phi_jet = (phi, dphi, ddphi): value, gradient vector and Hessian at
    one point.  b weighs the improvement term; b = 0 is the minimal
    tensor.  ricci supplies R_{mu nu} on curved backgrounds (None means
    flat).
    """
    phi, dphi, ddphi = phi_jet
    dphi = np.asarray(dphi, dtype=float)
    ddphi = np.asarray(ddphi, dtype=float)
    n = metric.dim
    grad_sq = sum(metric.inverse(al) * dphi[al] * dphi[al] for al in range(n))
    out = np.zeros((n, n))
    for mu in range(n):
        for nu in range(n):
            g_munu = metric.g_diag[mu] if mu == nu else 0.0
            val = (1.0 - b) * dphi[mu] * dphi[nu]
            val += (b - 0.5) * g_munu * grad_sq
            val += (0.5 - b) * g_munu * m * m * phi * phi
            val -= b * phi * ddphi[mu, nu]
            val -= b * phi * sum(
                metric.gamma(al, mu, nu) * dphi[al] for al in range(n)
            )
            if ricci is not None:
                val += 0.5 * b * ricci[mu][nu] * phi * phi
            out[mu, nu] = val
    return out


def radial_momentum_density(t_matrix, metric, t_index=0, r_index=1):
    """-T_{t rho} sqrt|g^tt g^rho rho|: momentum density seen by a static observer."""
    t_matrix = np.asarray(t_matrix)
    factor = math.sqrt(abs(metric.inverse(t_index) * metric.inverse(r_index)))
    return -t_matrix[t_index, r_index] * factor


@dataclass(frozen=True)
class DirectionVerdict:
    verdict: str
    flux_per_time: float


def mode_flux(spacetime, p, omega, l, radial, rho=None):
    """Radial momentum flux per unit time of a single frequency mode.

    radial = (f, df) gives the complex radial profile and its derivative
    at the evaluation radius.  Minkowski: flux = -i omega r^(d-1)
    (conj(f) f' - f conj(f')) with d the spatial dimension in p; rho is
    the radius r.  AdS: flux = -2 i omega R^(d-1) tan^(d-1)(rho)
    (conj(f) f' - f conj(f')).

    Verdict: outgoing / incoming by the flux sign, standing when the
    flux vanishes against the |f||f'| scale.  A flux that is not finite
    has no sign and raises ConvergenceError.

    Over arrays omega and l, with f and df arrays of their shape, it
    returns arrays: the fluxes, bit for bit those of each point, and the
    verdicts, "fault" where the point's float form raises (the flux or
    |f||f'| is not finite).
    """
    if isinstance(omega, np.ndarray):
        with np.errstate(all="ignore"):  # faults are nan and inf
            return _mode_flux(spacetime, p, omega, l, radial, rho, _ARRAY)
    return _mode_flux(spacetime, p, omega, l, radial, rho, _FLOAT)


# the verdict at index 2 standing + (flux > 0)
_VERDICTS = np.array(["incoming", "outgoing", "standing", "standing"], dtype=object)


def _mode_flux(spacetime, p, omega, l, radial, rho, ops):
    f, df = radial
    mul = ops.mul
    if spacetime == "minkowski":
        d = p["d"] if isinstance(p, dict) else p.d
        if rho is None or rho <= 0:
            raise ValueError("minkowski flux needs the radius r > 0")
        pref = mul(mul(-1j, omega), rho ** (d - 1))
    elif spacetime == "ads":
        if rho is None or rho <= 0:
            raise ValueError("ads flux needs the angle rho > 0")
        pref = mul(mul(mul(-2j, omega), p.R ** (p.d - 1)), math.tan(rho) ** (p.d - 1))
    else:
        raise ValueError(f"unknown spacetime {spacetime!r}")
    cf, cdf = ops.complex(f), ops.complex(df)
    w = mul(cf.conjugate(), cdf) - mul(cf, cdf.conjugate())  # anti-Hermitian, purely imaginary
    flux = mul(pref, w).real
    if ops is _FLOAT and not math.isfinite(flux):
        raise _flux_fault(spacetime, omega, l, flux)
    size = ops.abs(f) * ops.abs(df)
    standing = abs(flux) <= STANDING_TOL * ops.fmax(1.0, abs(omega) * ops.fmax(size, 1e-300))
    verdict = _VERDICTS[2 * standing + (flux > 0)]
    if ops is _ARRAY:
        verdict[~np.isfinite(flux) | np.isnan(size)] = "fault"
    return DirectionVerdict(verdict, flux)


def _flux_fault(spacetime, omega, l, flux):
    """The error of a flux that is not finite, at a point (omega, l) of floats."""
    return ConvergenceError(f"{spacetime} flux at omega = {omega}, l = {l} is {flux}")


def ads_combined_mode(p, omega, l, rho):
    """The flat-limit-matched outgoing combination of the two radial channels.

    f = f_a S_a + i f_b S_b with f_a = p_r^l / (2l+d-2)!! and
    f_b = (2l+d-4)!!/p_r^(l+1), where p_r = sqrt(omega^2 - (Delta(Delta-d))/R^2)
    is the flat radial momentum scale; the b channel carries the
    spherical-Neumann sign (negative leading coefficient), matching its
    flat limit.  Returns (f, df, p_r); its flux is 4 omega R^(d-1)/p_r.
    """
    return _combined_mode(p, omega, l, _radial_point(p, omega, l, rho))


@np.errstate(all="ignore")  # array faults are nan and inf
def _combined_mode(p, omega, l, channels):
    """ads_combined_mode from the channels (S_a, dS_a, S_b, dS_b) at (omega, l).

    Over arrays omega and l (ints), with arrays for channels, f and df are
    arrays, nan or inf where the float form raises.
    """
    ops = _ARRAY if isinstance(omega, np.ndarray) else _FLOAT
    m_sq = p.Delta * (p.Delta - p.d) / (p.R * p.R)
    p_r = ops.sqrt(abs(omega * omega - m_sq))
    if ops is _FLOAT and p_r == 0.0:
        raise ValueError("combined mode needs omega^2 distinct from the mass squared")
    f_a = ops.pow(p_r, l) / ops.double_factorial(2 * l + p.d - 2)
    num, den = ops.double_factorial(2 * l + p.d - 4), ops.pow(p_r, l + 1)
    if ops is _FLOAT and not (den and math.isfinite(num / den)):
        raise OverflowError(f"f_b = (2l+d-4)!!/p_r^(l+1) overflows at omega = {omega}, l = {l}")
    f_b = num / den
    sa, dsa, sb, dsb = channels
    i_f_b = ops.mul(1j, f_b)
    return f_a * sa + ops.mul(i_f_b, -sb), f_a * dsa + ops.mul(i_f_b, -dsb), p_r


def _parabolic_peak(xs, ys, i):
    """Vertex abscissa of the parabola through three points around i."""
    x0, x1, x2 = xs[i - 1], xs[i], xs[i + 1]
    y0, y1, y2 = ys[i - 1], ys[i], ys[i + 1]
    denom = (y0 - 2.0 * y1 + y2)
    if denom == 0.0:
        return x1
    return x1 + 0.5 * (xs[i] - xs[i - 1]) * (y0 - y2) / denom


def _find_maxima(xs, ys):
    out = []
    for i in range(1, len(ys) - 1):
        if ys[i] >= ys[i - 1] and ys[i] > ys[i + 1]:
            out.append(_parabolic_peak(xs, ys, i))
    return out


def extrema_relation(xs, first, second, labels=("future", "past")):
    """Interlacing classifier for two members of a four-function family.

    The family is {first, second, -first, -second} sampled on the common
    grid xs.  Verdict labels[0] when every maximum of first is directly
    left of a maximum of second (no other family maximum between),
    labels[1] for the mirror situation, "ambiguous" otherwise.  For
    radial families pass labels=("outwards", "inwards").
    """
    xs = np.asarray(xs, dtype=float)
    first = np.asarray(first, dtype=float)
    second = np.asarray(second, dtype=float)
    family = [first, second, -first, -second]
    events = []
    for tag, ys in enumerate(family):
        for x in _find_maxima(xs, ys):
            events.append((x, tag))
    events.sort()
    if len(events) < 3:
        return "ambiguous"
    # spacing sanity: consecutive family maxima need >= 5 samples between them
    dx = xs[1] - xs[0]
    gaps = [b[0] - a[0] for a, b in zip(events, events[1:])]
    if gaps and min(gaps) < 5.0 * dx:
        return "ambiguous"
    tags = [tag for _, tag in events]
    successor = {}
    for prev, nxt in zip(tags, tags[1:]):
        successor.setdefault(prev, set()).add(nxt)
    if 0 not in successor:
        return "ambiguous"
    if successor[0] == {1}:
        return labels[0]
    if successor[0] == {3} and successor.get(1, {0}) == {0}:
        # first's maxima sit directly right of second's: mirror order
        return labels[1]
    return "ambiguous"
