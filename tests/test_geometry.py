import math
from fractions import Fraction

import numpy as np
import pytest

from adskg import geometry
from adskg.geometry import (
    Polynomial,
    PolyVectorField,
    Signature,
    killing_field,
    killing_residual,
    lie_bracket,
    minkowski_killing_spherical,
    spherical_frame_components,
    structure_check,
    translation_field,
)


def residual_is_zero(sig, field):
    return all(p.is_zero() for row in killing_residual(sig, field) for p in row)


class TestKillingField:
    def test_equal_labels_vanish(self):
        sig = Signature(1, 3)
        assert killing_field(sig, 2, 2).is_zero()

    def test_euclidean_rotation_value(self):
        sig = Signature(0, 3)
        k12 = killing_field(sig, 0, 1)
        assert k12.evaluate((1, 0, 0)) == (0, 1, 0)

    def test_pseudo_orthogonality_polynomial(self):
        # eta(K_{ab}(X), X) vanishes identically
        for sig in (Signature(1, 3), Signature(2, 3)):
            n = sig.n
            xs = [Polynomial.variable(n, i) for i in range(n)]
            for a in range(n):
                for b in range(n):
                    field = killing_field(sig, a, b)
                    acc = Polynomial(n)
                    for i in range(n):
                        acc = acc + field.components[i] * xs[i] * sig.eta[i]
                    assert acc.is_zero()

    def test_antisymmetry_in_labels(self):
        sig = Signature(1, 3)
        assert (killing_field(sig, 0, 2) + killing_field(sig, 2, 0)).is_zero()


class TestKillingResidual:
    def test_all_generators_exact_zero(self):
        for p, q in ((0, 3), (1, 3), (2, 3), (1, 5), (4, 4)):
            sig = Signature(p, q)
            for a in range(sig.n):
                for b in range(sig.n):
                    assert residual_is_zero(sig, killing_field(sig, a, b))

    def test_translations_zero(self):
        sig = Signature(1, 3)
        for a in range(4):
            assert residual_is_zero(sig, translation_field(sig, a))

    def test_dilation_not_killing(self):
        sig = Signature(1, 3)
        dil = PolyVectorField([Polynomial.variable(4, i) for i in range(4)])
        res = killing_residual(sig, dil)
        for m in range(4):
            for n in range(4):
                want = Fraction(2 * sig.eta[m]) if m == n else Fraction(0)
                got = res[m][n].coeffs.get((0, 0, 0, 0), Fraction(0))
                assert got == want
                if m == n:
                    assert len(res[m][n].coeffs) == 1


class TestLieBracket:
    def test_self_bracket_zero(self):
        sig = Signature(1, 3)
        v = killing_field(sig, 0, 2)
        assert lie_bracket(v, v).is_zero()

    def test_rotation_algebra_by_hand(self):
        # spatial block of (1,3): [K_12, K_23] = K_13 (indices 1,2,3 spatial)
        sig = Signature(1, 3)
        k12 = killing_field(sig, 1, 2)
        k23 = killing_field(sig, 2, 3)
        k13 = killing_field(sig, 1, 3)
        assert (lie_bracket(k12, k23) - k13).is_zero()

    def test_translations_commute(self):
        sig = Signature(1, 3)
        for a in range(4):
            for b in range(4):
                assert lie_bracket(
                    translation_field(sig, a), translation_field(sig, b)
                ).is_zero()


def random_field(rng, n, degree=3):
    """A nonlinear polynomial vector field with Fraction coefficients, some zero components."""
    comps = []
    for _ in range(n):
        coeffs = {}
        for _ in range(int(rng.integers(0, 5))):
            mono = [0] * n
            for axis in rng.integers(0, n, size=int(rng.integers(0, degree + 1))):
                mono[axis] += 1
            num, den = int(rng.integers(-7, 8)), int(rng.integers(1, 6))
            coeffs[tuple(mono)] = Fraction(num, den)
        comps.append(Polynomial(n, coeffs))
    return PolyVectorField(comps)


def textbook_bracket(v, w):
    """[V, W]^Q = sum_P V^P d_P W^Q - W^P d_P V^Q in public Polynomial arithmetic."""
    n = v.n
    comps = []
    for q in range(n):
        acc = Polynomial(n)
        for p in range(n):
            acc = acc + v.components[p] * w.components[q].diff(p)
            acc = acc - w.components[p] * v.components[q].diff(p)
        comps.append(acc)
    return PolyVectorField(comps)


class TestLieBracketExact:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_textbook_formula(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            v, w = random_field(rng, n), random_field(rng, n)
            got = lie_bracket(v, w)
            assert got == textbook_bracket(v, w)
            assert all(type(c) is Fraction for p in got.components for c in p.coeffs.values())

    @pytest.mark.parametrize("n", [2, 5])
    def test_apply_to_is_the_textbook_derivative(self, n):
        # apply_to shares lie_bracket's transport sum; V(f) = sum_P V^P d_P f is the reference
        rng = np.random.default_rng(200 + n)
        for _ in range(25):
            v, f = random_field(rng, n), random_field(rng, n).components[0]
            want = Polynomial(n)
            for p in range(n):
                want = want + v.components[p] * f.diff(p)
            got = v.apply_to(f)
            assert got == want and all(type(c) is Fraction for c in got.coeffs.values())

    def test_non_integer_coefficients_survive(self):
        n = 2
        x, y = Polynomial.variable(n, 0), Polynomial.variable(n, 1)
        v = PolyVectorField([x * x * Fraction(1, 3), Polynomial(n)])
        w = PolyVectorField([Polynomial(n), y * x * Fraction(5, 7)])
        # [V, W]^1 = V^0 d_0 W^1 = x^2/3 * 5y/7; [V, W]^0 = -W^1 d_1 V^0 = 0
        want = PolyVectorField([Polynomial(n), x * x * y * Fraction(5, 21)])
        assert lie_bracket(v, w) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_antisymmetry_and_jacobi(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(6):
            u, v, w = (random_field(rng, n, degree=2) for _ in range(3))
            assert lie_bracket(v, w) == lie_bracket(w, v) * -1
            jacobi = (
                lie_bracket(u, lie_bracket(v, w))
                + lie_bracket(v, lie_bracket(w, u))
                + lie_bracket(w, lie_bracket(u, v))
            )
            assert jacobi.is_zero()

    def test_perturbed_killing_field_reported(self, monkeypatch):
        sig = Signature(1, 3)
        exact = geometry.killing_field
        half_x0 = Polynomial.variable(4, 0) * Fraction(1, 2)
        bump = PolyVectorField([Polynomial(4), Polynomial(4), Polynomial(4), half_x0])

        def perturbed(sig, a, b):
            field = exact(sig, a, b)
            return field + bump if (a, b) == (1, 2) else field

        monkeypatch.setattr(geometry, "killing_field", perturbed)
        rep = structure_check(sig)
        assert not rep.ok
        assert ("KK", (1, 2), (0, 3)) in rep.mismatches
        assert ("TK", 0, (1, 2)) in rep.mismatches
        assert not any(kind == "TT" for kind, *_ in rep.mismatches)


class TestStructure:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_signature_up_to_8(self, n):
        for p in range(n + 1):
            assert structure_check(Signature(p, n - p)).ok, (p, n - p)

    def test_poincare_1_3(self):
        rep = structure_check(Signature(1, 3))
        assert rep.ok
        assert rep.n_generators == 10
        assert rep.n_rotations == 6
        assert rep.n_translations == 4

    def test_so_2_3(self):
        rep = structure_check(Signature(2, 3))
        assert rep.ok
        assert rep.n_generators == 15

    def test_trivial_0_2(self):
        rep = structure_check(Signature(0, 2))
        assert rep.ok
        assert rep.n_rotations == 1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            structure_check(Signature(4, 5))


class TestBoostAction:
    def test_infinitesimal_boost_on_coordinates(self):
        # (1 + eps K_{03}) sends (t, x3) -> (t - eps x3, x3 - eps t)
        sig = Signature(1, 3)
        k03 = killing_field(sig, 0, 3)
        n = 4
        t = Polynomial.variable(n, 0)
        x3 = Polynomial.variable(n, 3)
        assert k03.apply_to(t) == -1 * x3
        assert k03.apply_to(x3) == -1 * t


class TestSphericalFrame:
    def test_time_translation(self):
        vt, vr, vxi = minkowski_killing_spherical("T0", 0, 0, (0.3, 2.0, (0, 0, 1.0)))
        assert vt == 1.0 and vr == 0.0 and np.all(vxi == 0.0)

    def test_rotation_k12_is_pure_phi(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = rng.uniform(0.2, math.pi - 0.2)
            phi = rng.uniform(0, 2 * math.pi)
            xi = np.array(
                [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
            )
            vt, vr, vxi = minkowski_killing_spherical("Kjk", 1, 2, (0.0, 3.0, xi))
            assert vt == 0.0 and vr == 0.0
            # project onto d/dtheta and d/dphi
            vphi = (-vxi[0] * xi[1] + vxi[1] * xi[0]) / (xi[0] ** 2 + xi[1] ** 2)
            grad_theta = np.array(
                [
                    math.cos(theta) * math.cos(phi),
                    math.cos(theta) * math.sin(phi),
                    -math.sin(theta),
                ]
            )
            vtheta = float(vxi @ grad_theta)
            assert vphi == pytest.approx(1.0, abs=1e-12)
            assert vtheta == pytest.approx(0.0, abs=1e-12)

    def test_boost_matches_cartesian_pushforward(self):
        # closed spherical forms vs chain rule through r = |x|, xi = x/r
        sig = Signature(1, 3)
        rng = np.random.default_rng(3)
        for kk in (1, 2, 3):
            field = killing_field(sig, 0, kk)
            for _ in range(10):
                t = rng.uniform(-2, 2)
                x = rng.normal(size=3)
                r = float(np.linalg.norm(x))
                xi = x / r
                cart = field.evaluate((t, *x))
                want = spherical_frame_components(cart, (t, r, xi))
                got = minkowski_killing_spherical("K0j", kk, 0, (t, r, xi))
                assert got[0] == pytest.approx(want[0], abs=1e-12)
                assert got[1] == pytest.approx(want[1], abs=1e-12)
                assert np.abs(np.asarray(got[2]) - want[2]).max() < 1e-12

    def test_spatial_translations_match_pushforward(self):
        sig = Signature(1, 3)
        rng = np.random.default_rng(4)
        for kk in (1, 2, 3):
            field = translation_field(sig, kk)
            for _ in range(5):
                t = rng.uniform(-2, 2)
                x = rng.normal(size=3)
                r = float(np.linalg.norm(x))
                xi = x / r
                cart = field.evaluate((t, *x))
                want = spherical_frame_components(cart, (t, r, xi))
                got = minkowski_killing_spherical("Tj", kk, 0, (t, r, xi))
                assert got[0] == pytest.approx(want[0], abs=1e-13)
                assert got[1] == pytest.approx(want[1], abs=1e-13)
                assert np.abs(np.asarray(got[2]) - want[2]).max() < 1e-13

    def test_rotations_match_pushforward(self):
        sig = Signature(1, 3)
        rng = np.random.default_rng(5)
        for (j, k) in ((1, 2), (2, 3), (1, 3)):
            field = killing_field(sig, j, k)
            for _ in range(5):
                t = rng.uniform(-2, 2)
                x = rng.normal(size=3)
                r = float(np.linalg.norm(x))
                xi = x / r
                cart = field.evaluate((t, *x))
                want = spherical_frame_components(cart, (t, r, xi))
                got = minkowski_killing_spherical("Kjk", j, k, (t, r, xi))
                assert got[0] == pytest.approx(want[0], abs=1e-13)
                assert got[1] == pytest.approx(want[1], abs=1e-13)
                assert np.abs(np.asarray(got[2]) - want[2]).max() < 1e-13

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            minkowski_killing_spherical("T0", 0, 0, (0.0, 0.0, (0, 0, 1.0)))
