"""Acceptance suite: one test per criterion, each printing a pass line.

An identity that `adskg selfcheck` also checks is stated once, in adskg._invariants:
each criterion runs that residual rule over a wider sample than selfcheck's and holds
it to the registry's tolerance.  Only the checks with no registry entry, such as the
pointwise rotation expansion, the constancy of the Wronskian in rho and the subspace
classifier, are written out here.  The whole module runs at desk scale.
"""

import itertools
import math
import time

import numpy as np
import pytest

from adskg import specfun
from adskg._invariants import EVANESCENT, INVARIANTS
from adskg.ads_complex_structure import (
    candidate_jfactors,
    diagonal_boost_mismatch,
    diagonal_jfactors,
)
from adskg.ads_modes import (
    AdSParams,
    radial_eval,
    radial_eval_deriv,
    radial_wronskian,
    random_real_mode_vector,
)
from adskg.flux import mode_flux
from adskg.geometry import Signature, killing_field, killing_residual, structure_check
from adskg.harmonics import (
    MultiIndex,
    SphericalPoint,
    all_indices,
    eval_harmonic,
    eval_harmonic_dcos,
    harmonic_fn,
    ladder_coeffs,
    multi_indices,
    rotate_coeffs,
    rotation_matrix_zyz,
    sphere_inner,
    to_angles,
    to_cartesian,
    wigner_block_euler,
    wigner_block_quadrature,
)
from adskg.structures import (
    FiniteSymplecticSpace,
    SampledField,
    classify_subspace,
    g_inner_from_J,
    polarization_project,
    theta_omega_quadrature,
)


ENTRIES = {entry.name: entry for entry in INVARIANTS}


def ok(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def assert_holds(name, points):
    """The named invariant's rule is within its tolerance at every point (nan fails)."""
    entry = ENTRIES[name]
    worst = np.max([entry.rule(*point) for point in points])
    assert worst <= entry.tol, f"{name}: residual {worst:.2e} > tol {entry.tol:g}"


def random_chain(rng, d, l):
    levels = [l]
    for _ in range(d - 3):
        levels.append(int(rng.integers(0, levels[-1] + 1)))
    m = int(rng.integers(-levels[-1], levels[-1] + 1))
    return MultiIndex(tuple(levels), m)


def random_angles(rng, d):
    return tuple(list(rng.uniform(0.25, math.pi - 0.25, size=d - 2)) + [rng.uniform(0.0, 2 * math.pi)])


def test_criterion_1_orthonormality():
    t0 = time.time()
    assert_holds("harmonic orthonormality", [(d, 4, 24) for d in (3, 4, 5)])
    # the same order-24 quadrature through the generic callable route
    tol = ENTRIES["harmonic orthonormality"].tol
    rng = np.random.default_rng(1)
    for d, n_pairs in ((3, 8), (4, 6), (5, 3)):
        idx = all_indices(d, 4)
        for _ in range(n_pairs):
            la, lb = (int(v) for v in rng.choice(len(idx), size=2, replace=False))
            val = sphere_inner(d, harmonic_fn(d, idx[la]), harmonic_fn(d, idx[lb]), order=24)
            assert abs(val) <= tol
        ii = int(rng.integers(len(idx)))
        val = sphere_inner(d, harmonic_fn(d, idx[ii]), harmonic_fn(d, idx[ii]), order=24)
        assert abs(val - 1.0) <= tol
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"orthonormality took {elapsed:.1f} s"
    ok(1, f"orthonormality delta to 1e-8 for d in 3..5, l <= 4 ({elapsed:.2f} s)")


def test_criterion_2_contiguous_relations():
    rng = np.random.default_rng(2)
    points = [
        (d, random_chain(rng, d, l), random_angles(rng, d))
        for d in (3, 4, 5, 6)
        for l in range(6)
        for _ in range(100)
    ]
    assert_holds("contiguous relations", points)
    # the derivative relation (1 - x^2) dY/dx = delta_+ Y_(l+1) + delta_- Y_(l-1)
    tol = ENTRIES["contiguous relations"].tol
    for d, L, angles in points:
        p = SphericalPoint(d, angles)
        l = L.levels[0]
        lc = ladder_coeffs(d, l, L.levels[1] if d > 3 else abs(L.m))
        x = math.cos(angles[0])
        dlhs = (1.0 - x * x) * eval_harmonic_dcos(d, L, p)
        drhs = lc.delta_plus * eval_harmonic(d, MultiIndex((l + 1,) + L.levels[1:], L.m), p)
        if lc.chi_minus != 0.0:
            down = MultiIndex((l - 1,) + L.levels[1:], L.m)
            drhs += lc.delta_minus * eval_harmonic(d, down, p)
        assert abs(dlhs - drhs) <= tol
    for d in range(3, 9):
        for l in range(11):
            for lsub in range(l + 1):
                diff = abs(
                    ladder_coeffs(d, l + 1, lsub).chi_minus - ladder_coeffs(d, l, lsub).chi_plus
                )
                assert diff <= 1e-14
    ok(2, "contiguous relations and ladder identity across d <= 6, l <= 5")


def test_criterion_3_hankel_identities():
    import cmath

    for l in range(7):
        for x in np.linspace(0.5, 20.0, 60):
            x = float(x)
            h1 = specfun.radial_basis("h1", l, x)
            direct = cmath.exp(1j * x) * sum(
                (1j) ** (k - l - 1) * specfun.a_coeff(k, l) / x ** (k + 1) for k in range(l + 1)
            )
            scale = max(1.0, abs(h1))
            assert abs(h1 - direct) <= 1e-10 * scale
            j = specfun.radial_basis("j", l, x).real
            n = specfun.radial_basis("n", l, x).real
            assert abs(h1 - (j + 1j * n)) <= 1e-10 * scale
    xs = np.linspace(0.5, 20.0, 60).tolist()
    assert_holds("hankel envelope", itertools.product(range(7), xs))
    xs = (0.5, 1.0, 5.0, 20.0)
    assert_holds("evanescent series real", itertools.product(EVANESCENT, xs))
    for kind in ("j_evan", "n_evan"):
        for l in range(7):
            for x in xs:
                assert specfun.radial_basis(kind, l, x).imag == 0.0
    ok(3, "hankel closed form, envelope, and real evanescent series, l <= 6")


def test_criterion_4_wigner_completeness_and_rotation():
    rng = np.random.default_rng(4)
    angles = (0.8, 1.1, -0.5)
    rot = rotation_matrix_zyz(*angles)
    assert_holds("wigner completeness", [(l, angles, 24) for l in range(4)])
    for l in range(4):
        block = wigner_block_quadrature(3, l, rot.T, order=24)
        euler = wigner_block_euler(l, *angles)
        assert np.abs(block - euler).max() <= 1e-8
        labels = multi_indices(3, l)
        c = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        cp = rotate_coeffs(3, l, euler, c)
        for _ in range(20):
            p = SphericalPoint(3, random_angles(rng, 3))
            lhs = sum(cp[i] * eval_harmonic(3, L, p) for i, L in enumerate(labels))
            mapped = to_angles(rot @ to_cartesian(np.array(p.angles)))
            p2 = SphericalPoint(3, tuple(mapped))
            rhs = sum(c[i] * eval_harmonic(3, L, p2) for i, L in enumerate(labels))
            assert abs(lhs - rhs) <= 1e-8
    ok(4, "wigner completeness and pointwise rotation expansion, d=3, l <= 3")


def test_criterion_5_killing_exactness():
    for p, q in ((1, 3), (2, 3)):
        sig = Signature(p, q)
        for a in range(sig.n):
            for b in range(sig.n):
                res = killing_residual(sig, killing_field(sig, a, b))
                assert all(poly.is_zero() for row in res for poly in row)
        assert structure_check(sig).n_generators == sig.n * (sig.n + 1) // 2
    assert_holds("killing structure constants", [(1, 3), (2, 3)])
    ok(5, "killing equation and so(p,q)/poincare brackets exact for (1,3), (2,3)")


def test_criterion_6_wronskian():
    params = [AdSParams(d, delta) for d in (3, 5) for delta in (3.1, 4.2)]
    grid = list(itertools.product(params, (0.0, 0.5, 1.3, 2.7), (0, 1, 2, 3)))
    rhos = np.linspace(0.2, 1.0, 5)
    assert_holds("radial wronskian", [(*point, rho) for point in grid for rho in rhos])
    for p, omega, l in grid:
        vals = [radial_wronskian(p, omega, l, rho) for rho in rhos]
        drift = max(abs(v - vals[0]) for v in vals) / abs(vals[0])
        assert drift <= 1e-8
    ok(6, "wronskian constant in rho and equal to -(2l + d - 2) on the full grid")


def test_criterion_7_complex_structure():
    rng = np.random.default_rng(7)
    p = AdSParams(3, 4.2)
    grid = [(w, l) for w in (0.5, 1.5, 2.5, -0.5, -1.5, -2.5) for l in range(4)]
    jf = candidate_jfactors(1, p, grid)
    modes = [random_real_mode_vector(3, [0.5, 1.5, 2.5], 3, rng) for _ in range(40)]
    pairs = zip(modes[::2], modes[1::2])  # (phi, eta) in draw order
    assert_holds("J conditions and compatibility", [(p, jf, phi, eta) for phi, eta in pairs])
    params = [AdSParams(d, delta) for d in (3, 5) for delta in (3.7, 4.2)]
    omegas = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    points = itertools.product((1, 2, 3, 4), params, omegas, (0, 1, 2, 3))
    assert_holds("candidate boost recurrences", points)
    ok(7, "nondiagonal conditions, J^2, omega-compatibility, boost recurrences")


def test_criterion_8_diagonal_case():
    rng = np.random.default_rng(8)
    p = AdSParams(3, 4.2)
    grid = [(w, l) for w in (0.5, 1.5, -0.5, -1.5) for l in range(3)]
    jd = diagonal_jfactors(grid)
    phis = [random_real_mode_vector(3, [0.5, 1.5], 2, rng) for _ in range(20)]
    assert_holds("diagonal zero norm", [(p, jd, phi) for phi in phis])
    for omega in np.linspace(0.01, 0.99, 25):
        assert diagonal_boost_mismatch(float(omega)) is True
    for omega in (1.0, 1.0 + 1e-12, 1.5, 7.0):
        assert diagonal_boost_mismatch(float(omega)) is False
    ok(8, "diagonal case: zero norm for real solutions, boost mismatch on (0,1)")


def test_criterion_9_flux():
    omega, mass = 2.0, 1.0
    rs_ls = list(itertools.product((3.0, 5.0, 10.0), (0, 1, 2)))
    mink = {"d": 3, "mass": mass}
    assert_holds("mode flux values", [("minkowski", mink, omega, l, r) for r, l in rs_ls])
    p = AdSParams(3, 4.2, R=1.3)
    assert_holds("mode flux values", [("ads", p, w, l, 0.7) for w in (2.5, 3.5) for l in (0, 1, 2)])
    p_r = math.sqrt(omega * omega - mass * mass)
    want = 2.0 * omega / p_r
    vals = []
    for r, l in rs_ls:
        f = specfun.radial_basis("h1", l, p_r * r)
        df = p_r * specfun.radial_basis_deriv("h1", l, p_r * r)
        v = mode_flux("minkowski", {"d": 3}, omega, l, (f, df), rho=r)
        assert v.verdict == "outgoing"
        vals.append(v.flux_per_time)
    assert max(vals) - min(vals) <= 1e-8 * want
    for kind in ("j", "n"):
        f = specfun.radial_basis(kind, 1, p_r * 5.0)
        df = p_r * specfun.radial_basis_deriv(kind, 1, p_r * 5.0)
        assert mode_flux("minkowski", {"d": 3}, omega, 1, (f, df), rho=5.0).verdict == "standing"
    for channel in ("a", "b"):
        f = radial_eval(p, 2.5, 1, channel, 0.7)
        df = radial_eval_deriv(p, 2.5, 1, channel, 0.7)
        assert mode_flux("ads", p, 2.5, 1, (f, df), rho=0.7).verdict == "standing"
    ok(9, "hankel flux 2w/p (r-independent), combined AdS flux 4wR^(d-1)/p, standing reals")


def test_criterion_10_structures():
    rng = np.random.default_rng(10)
    while True:
        a = rng.normal(size=(6, 6))
        om = a - a.T
        if abs(np.linalg.det(om)) > 1e-6:
            break
    sp = FiniteSymplecticSpace(om)
    s = om.T @ om
    w_eig, v_eig = np.linalg.eigh(s)
    from adskg.structures import ComplexStructureMatrix

    J = ComplexStructureMatrix(sp, om @ (v_eig @ np.diag(w_eig**-0.5) @ v_eig.T))
    for _ in range(20):
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        for sign in (1, -1):
            pu = polarization_project(J, sign, u)
            pv = polarization_project(J, sign, v)
            assert abs(sp.pairing(pu, pv)) <= 1e-10
        split = sp.pairing(
            polarization_project(J, 1, u), polarization_project(J, -1, v)
        ) + sp.pairing(polarization_project(J, -1, u), polarization_project(J, 1, v))
        assert abs(split - sp.pairing(u, v)) <= 1e-10
        _, cross = g_inner_from_J(
            sp, J, polarization_project(J, 1, u), polarization_project(J, -1, v)
        )
        assert abs(cross) <= 1e-10
        _, full = g_inner_from_J(sp, J, u, v)
        _, mp = g_inner_from_J(
            sp, J, polarization_project(J, -1, u), polarization_project(J, 1, v)
        )
        assert abs(mp - full) <= 1e-10

    def oracle(basis):
        basis = np.atleast_2d(basis)
        k = basis.shape[0]
        gram = basis @ sp.omega @ basis.T
        rank = np.linalg.matrix_rank(gram, tol=1e-8)
        radical = k - rank
        iso = rank == 0
        coiso = radical == sp.dim - k
        if iso and coiso:
            return "lagrangian"
        if iso:
            return "isotropic"
        if coiso:
            return "coisotropic"
        if radical == 0:
            return "symplectic"
        return "none"

    eye = np.eye(6)
    for r in range(1, 7):
        for subset in itertools.combinations(range(6), r):
            basis = eye[list(subset)]
            assert classify_subspace(sp, basis) == oracle(basis)

    n, length, e, k = 128, 2.0 * math.pi, 1.7, 4.0
    assert_holds("plane-wave symplectic quadrature", [(n, e, k)])
    xs = np.arange(n) * (length / n)
    eta = SampledField((length,), np.cos(-k * xs), -e * np.sin(-k * xs))
    zeta = SampledField((length,), np.sin(-k * xs), e * np.cos(-k * xs))
    _, om_val = theta_omega_quadrature(eta, zeta, orientation=1)
    assert abs(om_val.imag) <= 1e-12
    ok(10, "polarization identities, subspace classifier vs oracle, plane-wave omega")


def test_criterion_11_flat_limit():
    # at m = 1, E = 2 (p = sqrt 3) the radius r sets p r = 0.5 .. 15; the d = 3 combined
    # mode's error against h1_l(p r) falls as R^-2 for every l <= 10
    rs = (np.linspace(0.5, 15.0, 12) / math.sqrt(3.0)).tolist()
    assert_holds("flat limit", [(l, 1.0, 2.0, r) for l in range(11) for r in rs])
    ok(11, "d = 3 combined tube mode tends to h1(p r) as R^-2, l <= 10, p r <= 15")
