"""The identities adskg checks itself against, each stated once as a residual rule.

An entry of INVARIANTS has a name, a rule (the residual at one sample point, nan where its
numbers are nan), the selfcheck sample of rule arguments (from the quadrature order and a
numpy Generator) and the largest residual that passes.  The acceptance suite runs the
same rules over wider samples against the same tolerances.
"""

import math
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from . import ads_complex_structure as acs
from . import ads_modes, flux, geometry, harmonics, specfun, structures
from .ads_modes import AdSParams


class Invariant(NamedTuple):
    name: str
    rule: Callable
    sample: Callable
    tol: float


INVARIANTS = []  # in selfcheck order, entered by @invariant below


def invariant(name, tol, sample):
    """Enter the decorated rule in INVARIANTS."""
    return lambda rule: INVARIANTS.append(Invariant(name, rule, sample, tol)) or rule


@invariant("gamma recurrence", 1e-12, lambda order, rng: rng.uniform(0.1, 50.0, (50, 1)))
def gamma_recurrence(x):
    """Gamma(x + 1) against x Gamma(x), relative."""
    want = x * specfun.gamma_value(x)
    return abs(specfun.gamma_value(x + 1.0) - want) / abs(want)


@invariant("hankel envelope", 1e-10, lambda *_: product(
    range(5), np.linspace(0.5, 20.0, 12).tolist()))
def hankel_envelope(l, x):
    """|h1_l(x)|^2 against j_l(x)^2 + n_l(x)^2, relative."""
    h1 = abs(specfun.radial_basis("h1", l, x)) ** 2
    j, n = (specfun.radial_basis(kind, l, x).real for kind in ("j", "n"))
    return abs(h1 - (j * j + n * n)) / h1


# i_l(x) = i^-l j_l(ix) and i^(l+1) n_l(ix) in closed form, from x, cosh x and sinh x
EVANESCENT = {
    ("j_evan", 0): lambda x, c, s: s / x,
    ("j_evan", 1): lambda x, c, s: (x * c - s) / x**2,
    ("j_evan", 2): lambda x, c, s: ((x * x + 3.0) * s - 3.0 * x * c) / x**3,
    ("n_evan", 0): lambda x, c, s: -c / x,
    ("n_evan", 1): lambda x, c, s: (x * s - c) / x**2,
    ("n_evan", 2): lambda x, c, s: (3.0 * x * s - (x * x + 3.0) * c) / x**3,
}


@invariant("evanescent series real", 1e-12, lambda *_: product(EVANESCENT, (0.5, 2.0)))
def evanescent_series(key, x):
    """The series of key = (kind, l) against its closed form, relative; inf if not real."""
    value = specfun.radial_basis(*key, x)
    exact = EVANESCENT[key](x, math.cosh(x), math.sinh(x))
    return abs(value.real - exact) / abs(exact) if value.imag == 0.0 else math.inf


@invariant("harmonic orthonormality", 1e-8, lambda order, rng: [(d, 3, order) for d in (3, 4, 5)])
def harmonic_orthonormality(d, lmax, order):
    """The largest entry of gram - 1 over the harmonics of l <= lmax."""
    idx = harmonics.all_indices(d, lmax)
    return np.abs(harmonics.harmonic_gram(d, idx, order=order) - np.eye(len(idx))).max()


@invariant("contiguous relations", 1e-10, lambda order, rng: [
    (d, L, [*rng.uniform(0.3, 2.8, d - 2), rng.uniform(0, 6.28)])
    for d in (3, 5) for L in harmonics.all_indices(d, 3)])
def contiguous_relation(d, L, angles):
    """cos(theta_1) Y_L against chi_+ Y_(l+1) + chi_- Y_(l-1) at the angles, absolute."""
    p = harmonics.SphericalPoint(d, tuple(angles))
    l, *rest = L.levels
    lc = harmonics.ladder_coeffs(d, l, rest[0] if rest else abs(L.m))
    y = lambda k: harmonics.eval_harmonic(d, harmonics.MultiIndex((k, *rest), L.m), p)
    rhs = lc.chi_plus * y(l + 1) + (lc.chi_minus * y(l - 1) if lc.chi_minus else 0.0)
    return abs(math.cos(angles[0]) * harmonics.eval_harmonic(d, L, p) - rhs)


@invariant("wigner completeness", 1e-8, lambda order, rng: [
    (l, (0.9, 0.4, -1.2), order) for l in (0, 1, 2)])
def wigner_unitarity(l, euler, order):
    """The largest entry of B B^H - 1, B the degree-l quadrature Wigner block in d = 3."""
    rot = harmonics.rotation_matrix_zyz(*euler)
    block = harmonics.wigner_block_quadrature(3, l, rot.T, order=order)
    return np.abs(block @ np.conj(block.T) - np.eye(2 * l + 1)).max()


@invariant("killing structure constants", 0, lambda *_: [(1, 3), (2, 3)])
def killing_structure(p, q):
    """The number of so(p, q) and translation brackets that differ from the exact ones."""
    return len(geometry.structure_check(geometry.Signature(p, q)).mismatches)


_ADS = AdSParams(3, 4.2)
_GRID = [(w, l) for w in (0.5, 1.5, -0.5, -1.5) for l in (0, 1)]


@invariant("radial wronskian", 1e-6, lambda *_: product(
    (_ADS, AdSParams(5, 3.1)), (0.0, 1.3), (0, 2), (0.2, 0.6, 1.0)))
def wronskian(p, omega, l, rho):
    """The radial Wronskian against -(2l + d - 2), relative."""
    target = -(2.0 * l + p.d - 2.0)
    return abs(ads_modes.radial_wronskian(p, omega, l, rho) - target) / abs(target)


@invariant("candidate boost recurrences", 1e-10, lambda *_: product(
    (1, 2, 3, 4), (_ADS, AdSParams(5, 3.7)), (0.0, 0.5, 1.5), (0, 1)))
def boost_recurrence(which, p, omega, l):
    """The larger boost recurrence residual of candidate `which`, relative to |jab|."""
    jab = lambda w, ll: acs.candidate_jab(which, p, w, ll)
    return np.max(acs.boost_recurrence_residual(p, jab, omega, l)) / abs(jab(omega, l))


def _real_modes(rng, count):
    return [ads_modes.random_real_mode_vector(3, [0.5, 1.5], 1, rng) for _ in range(count)]


@invariant("J conditions and compatibility", 1e-10, lambda order, rng: [
    (_ADS, acs.candidate_jfactors(1, _ADS, _GRID), *_real_modes(rng, 2))])
def j_conditions(p, jf, phi, eta):
    """inf unless jf is nondiagonal; else the worst of check_conditions' residuals, of
    J^2 phi + phi, and of omega_rho's change under J over max(1, |omega_rho(phi, eta)|)."""
    if (rep := acs.check_conditions(jf)).case != "nondiagonal":
        return math.inf
    j_phi = acs.apply_J(jf, phi)
    square = np.abs(acs.apply_J(jf, j_phi)._data + phi._data).max()  # zero off the entries
    base = ads_modes.omega_rho(p, phi, eta)
    after = ads_modes.omega_rho(p, j_phi, acs.apply_J(jf, eta))
    return np.max([*rep.residuals.values(), square, abs(after - base) / max(1.0, abs(base))])


@invariant("diagonal zero norm", 1e-12, lambda order, rng: [
    (_ADS, acs.diagonal_jfactors(_GRID), *_real_modes(rng, 1))])
def diagonal_zero_norm(p, jd, phi):
    """|g_rho(phi, phi)| of a real solution phi under the diagonal J."""
    return abs(acs.g_rho(p, jd, phi))


@invariant("mode flux values", 1e-8, lambda *_: [
    ("minkowski", {"d": 3, "mass": 1.0}, 2.0, 0, 5.0), ("ads", _ADS, 2.5, 1, 0.7)])
def mode_flux_value(spacetime, p, omega, l, rho):
    """The outgoing flux against 2 omega / p_r for the d = 3 Minkowski h1 mode (p = {"d": 3,
    "mass": m}) at radius rho, 4 omega R^(d-1) / p_r for ads_combined_mode, relative."""
    if spacetime == "minkowski":
        p_r = math.sqrt(omega * omega - p["mass"] ** 2)
        radial = (specfun.radial_basis("h1", l, p_r * rho),
                  p_r * specfun.radial_basis_deriv("h1", l, p_r * rho))
        want = 2.0 * omega / p_r
    else:
        *radial, p_r = flux.ads_combined_mode(p, omega, l, rho)
        want = 4.0 * omega * p.R ** (p.d - 1) / p_r
    return abs(flux.mode_flux(spacetime, p, omega, l, radial, rho=rho).flux_per_time - want) / want


@invariant("plane-wave symplectic quadrature", 1e-6, lambda *_: [(64, 1.3, 3.0)])
def plane_wave_omega(n, e, k):
    """Re omega(eta, zeta) against e pi for the plane waves cos(-kx) and sin(-kx), with
    time derivatives -e sin(-kx) and e cos(-kx), on n points of a circle of length 2 pi."""
    xs = np.arange(n) * (2.0 * math.pi / n)
    eta = structures.SampledField((2.0 * math.pi,), np.cos(-k * xs), -e * np.sin(-k * xs))
    zeta = structures.SampledField((2.0 * math.pi,), np.sin(-k * xs), e * np.cos(-k * xs))
    return abs(structures.theta_omega_quadrature(eta, zeta)[1].real - e * math.pi)


@invariant("flat limit", 1e-3, lambda *_: [
    (l, 1.0, 2.0, r) for l in (0, 2, 6, 10) for r in (1.0, 3.0, 5.5, 8.0)])
def flat_limit(l, mass, energy, r):
    """R^2 err at R = 10^3 against R = 10^4, relative, where err is |f - h1_l(p r)| / |h1|
    for the d = 3 ads_combined_mode f at AdS radius R (omega = E R, rho = r / R, Delta =
    delta_for_mass(m, R, 3)): the tube modes tend to the Minkowski ones as R^-2."""
    h1 = specfun.radial_basis("h1", l, math.sqrt(energy * energy - mass * mass) * r)

    def scaled_error(R):
        p = AdSParams(3, ads_modes.delta_for_mass(mass, R, 3))
        f, _, _ = flux.ads_combined_mode(p, energy * R, l, r / R)
        return R * R * abs(f - h1) / abs(h1)

    fine = scaled_error(1e4)
    return abs(scaled_error(1e3) - fine) / fine
