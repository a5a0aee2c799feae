import math

import numpy as np
import pytest

from adskg.harmonics import (
    LadderCoeffs,
    MultiIndex,
    SphericalPoint,
    all_indices,
    eval_harmonic,
    eval_harmonic_angles,
    eval_harmonic_dcos,
    harmonic_fn,
    harmonic_grid_matrix,
    harmonic_gram,
    ladder_coeffs,
    multi_indices,
    norm_const,
    rotate_coeffs,
    rotation_matrix_zyz,
    sphere_inner,
    sphere_quadrature,
    to_angles,
    to_cartesian,
    wigner_block_euler,
    wigner_block_quadrature,
    wigner_small_d,
)

RNG = np.random.default_rng(42)


def random_point(d, rng=RNG):
    angles = list(rng.uniform(0.2, math.pi - 0.2, size=d - 2))
    angles.append(rng.uniform(0.0, 2.0 * math.pi))
    return SphericalPoint(d, tuple(angles))


class TestMultiIndex:
    def test_validation(self):
        MultiIndex((3, 2, 1), -1)
        with pytest.raises(ValueError):
            MultiIndex((1, 2), 0)
        with pytest.raises(ValueError):
            MultiIndex((2, 1), 2)
        with pytest.raises(ValueError):
            MultiIndex((-1,), 0)

    def test_block_enumeration_counts(self):
        assert len(multi_indices(3, 2)) == 5
        # S^3: sum over l2 <= l of (2 l2 + 1)
        assert len(multi_indices(4, 2)) == 1 + 3 + 5
        assert [L.m for L in multi_indices(3, 1)] == [-1, 0, 1]


class TestNormAndEval:
    def test_constant_harmonic_two_sphere(self):
        L = MultiIndex((0,), 0)
        for _ in range(3):
            p = random_point(3)
            assert eval_harmonic(3, L, p) == pytest.approx(1.0 / math.sqrt(4 * math.pi))

    def test_norm_l1(self):
        assert norm_const(3, MultiIndex((1,), 0)) == pytest.approx(
            math.sqrt(3.0 / (4.0 * math.pi)), rel=1e-14
        )

    def test_y10_at_pi_third(self):
        p = SphericalPoint(3, (math.pi / 3.0, 0.0))
        want = math.sqrt(3.0 / (4.0 * math.pi)) / 2.0
        assert eval_harmonic(3, MultiIndex((1,), 0), p).real == pytest.approx(want, rel=1e-12)

    def test_constant_harmonic_three_sphere(self):
        assert norm_const(4, MultiIndex((0, 0), 0)) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi**2), rel=1e-13
        )

    def test_conjugation(self):
        for d in (3, 4, 5):
            for L in all_indices(d, 3):
                p = random_point(d)
                lhs = np.conj(eval_harmonic(d, L, p))
                rhs = eval_harmonic(d, L.conjugate(), p)
                assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            eval_harmonic(4, MultiIndex((1,), 0), random_point(4))


class TestQuadrature:
    def test_orthonormality_small(self):
        for d in (3, 4, 5):
            idx = all_indices(d, 3)
            y, w = harmonic_grid_matrix(d, idx, order=16)
            gram = (np.conj(y) * w) @ y.T
            assert np.abs(gram - np.eye(len(idx))).max() < 1e-10

    def test_sphere_inner_unit_norm(self):
        f = harmonic_fn(3, MultiIndex((0,), 0))
        assert sphere_inner(3, f, f, order=8) == pytest.approx(1.0, abs=1e-10)

    def test_sphere_inner_orthogonality(self):
        f = harmonic_fn(3, MultiIndex((2,), 1))
        g = harmonic_fn(3, MultiIndex((2,), 0))
        assert abs(sphere_inner(3, f, g, order=24)) < 1e-10

    def test_sphere_inner_d4(self):
        f = harmonic_fn(4, MultiIndex((1, 1), 1))
        assert sphere_inner(4, f, f, order=24) == pytest.approx(1.0, abs=1e-8)

    def test_quadrature_order_guard(self):
        with pytest.raises(ValueError):
            sphere_quadrature(3, 2)

    def test_grid_matrix_point_order(self):
        # wigner_block_quadrature pairs grid-matrix reference rows with
        # pointwise rows at sphere_quadrature's angles: same points, same order
        for d in (3, 4, 5):
            idx = all_indices(d, 3)
            y, w = harmonic_grid_matrix(d, idx, order=5)
            angles, w_quad = sphere_quadrature(d, 5)
            assert np.array_equal(w, w_quad)
            pointwise = np.stack([eval_harmonic_angles(d, L, angles) for L in idx])
            assert np.abs(y - pointwise).max() < 1e-13

    def test_grid_matrix_and_gram_below_quadrature_guard(self):
        # order l_max + 1 integrates every product exactly, even below 4
        idx = all_indices(4, 2)
        y, w = harmonic_grid_matrix(4, idx, order=3)
        gram = harmonic_gram(4, idx, order=3)
        assert np.abs((np.conj(y) * w) @ y.T - gram).max() < 1e-13
        assert np.abs(gram - np.eye(len(idx))).max() < 1e-13


class TestLadder:
    def test_hand_value(self):
        lc = ladder_coeffs(3, 1, 0)
        assert lc.chi_minus == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)

    def test_lowering_vanishes_at_top(self):
        for d in (3, 4, 6):
            for l in range(0, 5):
                lc = ladder_coeffs(d, l, l)
                assert lc.chi_minus == 0.0
                assert lc.delta_minus == 0.0

    def test_lowering_vanishes_at_zero(self):
        for d in (3, 4, 6):
            lc = ladder_coeffs(d, 0, 0)
            assert lc.chi_minus == 0.0 and lc.delta_minus == 0.0

    def test_handy_relation(self):
        for d in range(3, 9):
            for l in range(0, 11):
                for s in range(0, l + 1):
                    lhs = ladder_coeffs(d, l + 1, s).chi_minus
                    rhs = ladder_coeffs(d, l, s).chi_plus
                    assert abs(lhs - rhs) <= 1e-14

    def test_delta_relations(self):
        for d in (3, 5):
            for l in range(1, 6):
                lc = ladder_coeffs(d, l, 0)
                assert lc.delta_minus == pytest.approx((l + d - 2) * lc.chi_minus)
                assert lc.delta_plus == pytest.approx(-l * lc.chi_plus)


def contiguous_residual(d, L, p):
    l, lsub = L.levels[0], (L.levels[1] if d > 3 else abs(L.m))
    lc = ladder_coeffs(d, l, lsub)
    x = math.cos(p.angles[0])
    lhs = x * eval_harmonic(d, L, p)
    down = (
        lc.chi_minus * eval_harmonic(d, MultiIndex((l - 1,) + L.levels[1:], L.m), p)
        if lc.chi_minus != 0.0
        else 0.0
    )
    up = lc.chi_plus * eval_harmonic(d, MultiIndex((l + 1,) + L.levels[1:], L.m), p)
    return abs(lhs - down - up)


def derivative_residual(d, L, p):
    l, lsub = L.levels[0], (L.levels[1] if d > 3 else abs(L.m))
    lc = ladder_coeffs(d, l, lsub)
    x = math.cos(p.angles[0])
    lhs = (1.0 - x * x) * eval_harmonic_dcos(d, L, p)
    down = (
        lc.delta_minus * eval_harmonic(d, MultiIndex((l - 1,) + L.levels[1:], L.m), p)
        if lc.delta_minus != 0.0
        else 0.0
    )
    up = lc.delta_plus * eval_harmonic(d, MultiIndex((l + 1,) + L.levels[1:], L.m), p)
    return abs(lhs - down - up)


class TestContiguous:
    def test_cos_relation(self):
        rng = np.random.default_rng(7)
        for d in (3, 4, 5, 6):
            for L in all_indices(d, 4):
                p = random_point(d, rng)
                assert contiguous_residual(d, L, p) < 1e-10

    def test_derivative_relation(self):
        rng = np.random.default_rng(8)
        for d in (3, 4, 5, 6):
            for L in all_indices(d, 4):
                p = random_point(d, rng)
                assert derivative_residual(d, L, p) < 1e-10


class TestWigner:
    def test_small_d_l0(self):
        assert wigner_small_d(0, 0.7).tolist() == [[1.0]]

    def test_small_d_identity_at_zero(self):
        assert np.abs(wigner_small_d(1, 0.0) - np.eye(3)).max() < 1e-15

    def test_rows_unit(self):
        for l in range(4):
            d = wigner_small_d(l, 1.234)
            rows = (d**2).sum(axis=1)
            assert np.abs(rows - 1.0).max() < 1e-12

    def test_euler_block_matches_quadrature(self):
        a = (0.7, 0.9, -0.4)
        rot = rotation_matrix_zyz(*a)
        for l in (1, 2, 3):
            de = wigner_block_euler(l, *a)
            dq = wigner_block_quadrature(3, l, rot.T, order=20)
            assert np.abs(de - dq).max() < 1e-11

    def test_completeness_quadrature_built(self):
        rot = rotation_matrix_zyz(1.1, 0.5, 2.0)
        for l in range(4):
            dq = wigner_block_quadrature(3, l, rot.T, order=24)
            gram = dq @ np.conj(dq.T)
            assert np.abs(gram - np.eye(2 * l + 1)).max() < 1e-8

    def test_identity_rotation_preserves_coeffs(self):
        for l in (0, 1, 3):
            n = 2 * l + 1
            c = RNG.normal(size=n) + 1j * RNG.normal(size=n)
            block = wigner_block_euler(l, 0.0, 0.0, 0.0)
            assert np.abs(rotate_coeffs(3, l, block, c) - c).max() < 1e-14

    def test_phi_rotation_phase_convention(self):
        alpha = 0.77
        l = 2
        block = wigner_block_euler(l, alpha, 0.0, 0.0)
        c = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        got = rotate_coeffs(3, l, block, c)
        ms = np.arange(-l, l + 1)
        want = np.exp(-1j * ms * alpha) * c
        assert np.abs(got - want).max() < 1e-13

    def test_pointwise_rotation_d3(self):
        rng = np.random.default_rng(9)
        angles = (0.6, 1.2, -0.8)
        rot = rotation_matrix_zyz(*angles)
        for l in range(4):
            labels = multi_indices(3, l)
            c = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
            cp = rotate_coeffs(3, l, wigner_block_euler(l, *angles), c)
            for _ in range(5):
                p = random_point(3, rng)
                lhs = sum(cp[i] * eval_harmonic(3, L, p) for i, L in enumerate(labels))
                mapped = to_angles(rot @ to_cartesian(np.array(p.angles)))
                p2 = SphericalPoint(3, tuple(mapped))
                rhs = sum(c[i] * eval_harmonic(3, L, p2) for i, L in enumerate(labels))
                assert abs(lhs - rhs) < 1e-8

    def test_pointwise_rotation_d4_quadrature_block(self):
        rng = np.random.default_rng(10)
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1.0
        for l in (1, 2):
            labels = multi_indices(4, l)
            block = wigner_block_quadrature(4, l, q, order=14)
            c = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
            cp = rotate_coeffs(4, l, block, c)
            for _ in range(4):
                p = random_point(4, rng)
                lhs = sum(cp[i] * eval_harmonic(4, L, p) for i, L in enumerate(labels))
                mapped = to_angles(q.T @ to_cartesian(np.array(p.angles)))
                p2 = SphericalPoint(4, tuple(mapped))
                rhs = sum(c[i] * eval_harmonic(4, L, p2) for i, L in enumerate(labels))
                assert abs(lhs - rhs) < 1e-8

    def test_block_conjugation_symmetry(self):
        # conj(D_{m'm}) equals D_{-m',-m}, inherited from conj(Y^m) = Y^{-m}
        l = 2
        block = wigner_block_euler(l, 0.3, 1.1, -0.7)
        n = 2 * l + 1
        flipped = block[::-1, ::-1]
        assert np.abs(np.conj(block) - flipped).max() < 1e-13

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rotate_coeffs(3, 2, np.eye(3), np.zeros(3, dtype=complex))


def small_d_factorial_sum(mp, l, mp_, m, beta):
    """The textbook factorial sum for d^l_{m'm}(beta) in mpmath arithmetic."""
    half = mp.mpf(beta) / 2
    sb, cb = mp.sin(half), mp.cos(half)
    f = mp.factorial
    tot = mp.mpf(0)
    for s in range(max(0, m - mp_), min(l + m, l - mp_) + 1):
        num = (-1) ** (s + mp_ - m) * sb ** (2 * s + mp_ - m) * cb ** (2 * l - 2 * s - mp_ + m)
        tot += num / (f(s) * f(s + mp_ - m) * f(l - mp_ - s) * f(l + m - s))
    return mp.sqrt(f(l + mp_) * f(l - mp_) * f(l + m) * f(l - m)) * tot


class TestWignerEigenbasis:
    # wigner_small_d is exp(-i beta J_y) from the eigenbasis of J_y: the
    # factorial sum at high precision, and the group properties, are its oracles

    @pytest.mark.parametrize("l", [0, 1, 7, 29, 45, 60, 100])
    def test_against_mpmath_factorial_sum(self, l):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1000 + l)
        for beta in rng.uniform(0.0, math.pi, size=2):
            d = wigner_small_d(l, beta)
            picks = [(l, l), (-l, l), (0, 0)]
            picks += [tuple(rng.integers(-l, l + 1, size=2)) for _ in range(8)]
            with mp.workdps(40 + l):
                for mp_, m in picks:
                    want = float(small_d_factorial_sum(mp, l, int(mp_), int(m), beta))
                    assert abs(d[mp_ + l, m + l] - want) <= 1e-13, (l, mp_, m, beta)

    def test_unitary_through_l_100(self):
        rng = np.random.default_rng(7)
        for l in range(101):
            d = wigner_small_d(l, rng.uniform(0.0, 2.0 * math.pi))
            assert np.abs(d @ d.T - np.eye(2 * l + 1)).max() <= 1e-13, l

    @pytest.mark.parametrize("l", [1, 5, 17, 40])
    def test_index_symmetries(self, l):
        # d_{m'm} = (-1)^(m - m') d_{mm'} = d_{-m,-m'}
        d = wigner_small_d(l, 2.1)
        ms = np.arange(-l, l + 1)
        sign = (-1.0) ** (ms[None, :] - ms[:, None])
        assert np.abs(d - sign * d.T).max() <= 1e-13
        assert np.abs(d - d[::-1, ::-1].T).max() <= 1e-13

    @pytest.mark.parametrize("l", [3, 20, 60])
    def test_composition(self, l):
        b1, b2 = 0.83, 1.91
        both = wigner_small_d(l, b1 + b2)
        assert np.abs(wigner_small_d(l, b1) @ wigner_small_d(l, b2) - both).max() <= 1e-13

    @pytest.mark.parametrize("l", [0, 1, 4, 33])
    def test_at_pi(self, l):
        # d^l_{m'm}(pi) = (-1)^(l - m) delta_{m',-m}
        ms = np.arange(-l, l + 1)
        want = np.zeros((2 * l + 1, 2 * l + 1))
        want[ms[::-1] + l, ms + l] = (-1.0) ** (l - ms)
        assert np.abs(wigner_small_d(l, math.pi) - want).max() <= 1e-13

    def test_default_order_quadrature_matches_euler(self):
        a = (2.2, 1.3, -0.6)
        rot = rotation_matrix_zyz(*a)
        for l in range(9):
            dq = wigner_block_quadrature(3, l, rot.T)
            assert np.abs(dq - wigner_block_euler(l, *a)).max() <= 1e-12, l

    @pytest.mark.parametrize("l", [2.5, 2.0, -1, "3", None])
    def test_bad_l_rejected(self, l):
        with pytest.raises(ValueError):
            wigner_small_d(l, 0.4)
        with pytest.raises(ValueError):
            wigner_block_euler(l, 0.1, 0.4, 0.2)

    def test_numpy_integer_l_accepted(self):
        assert wigner_small_d(np.int64(2), 0.4).shape == (5, 5)


def laplace_beltrami_fd(d, L, angles, h=1e-3):
    """Sphere Laplacian by nested finite differences.

    Delta_{S^n} = sin^(1-n) d/dth (sin^(n-1) d/dth) + sin^(-2) Delta_{S^(n-1)},
    flattened into per-angle second/first derivative terms.
    """

    def y(a):
        return eval_harmonic(d, L, SphericalPoint(d, tuple(a)))

    def second(i, a):
        ap, am = list(a), list(a)
        ap[i] += h
        am[i] -= h
        return (y(ap) - 2.0 * y(a) + y(am)) / h**2

    def first(i, a):
        ap, am = list(a), list(a)
        ap[i] += h
        am[i] -= h
        return (y(ap) - y(am)) / (2.0 * h)

    total = 0.0
    pref = 1.0
    for idx in range(d - 2):
        n = d - 1 - idx
        th = angles[idx]
        total += pref * (second(idx, angles) + (n - 1) / math.tan(th) * first(idx, angles))
        pref /= math.sin(th) ** 2
    total += pref * second(d - 2, angles)
    return total


class TestLaplacianEigenvalue:
    # eigenvalue -l(l + d - 2): the defining property, checked by a route
    # (finite differences) independent of the ladder-relation machinery
    def test_eigenvalue_across_dimensions(self):
        rng = np.random.default_rng(21)
        for d in (3, 4, 5):
            for L in all_indices(d, 3):
                angles = list(rng.uniform(0.6, math.pi - 0.6, size=d - 2)) + [
                    rng.uniform(0.0, 2.0 * math.pi)
                ]
                got = laplace_beltrami_fd(d, L, angles)
                l = L.levels[0]
                want = -l * (l + d - 2.0) * eval_harmonic(d, L, SphericalPoint(d, tuple(angles)))
                assert abs(got - want) <= 1e-4 * (1.0 + abs(want))


class TestCoordinates:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for d in (3, 4, 6):
            for _ in range(10):
                p = random_point(d, rng)
                back = to_angles(to_cartesian(np.array(p.angles)))
                assert np.abs(back - np.array(p.angles)).max() < 1e-12

    def test_unit_norm(self):
        for d in (3, 5):
            p = random_point(d)
            assert np.linalg.norm(to_cartesian(np.array(p.angles))) == pytest.approx(1.0)
