import cmath
import math

import numpy as np
import pytest

from adskg import specfun
from adskg.specfun import (
    ConvergenceError,
    PoleError,
    a_coeff,
    double_factorial,
    gamma_value,
    gegenbauer_c,
    hyp2f1,
    legendre_p,
    log_gamma_signed,
    phase_shifted_trig,
    radial_basis,
    s_even,
    s_odd,
    s_plus,
)


class TestGamma:
    def test_factorial_point(self):
        assert gamma_value(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_half_integer(self):
        assert gamma_value(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_reflection_negative_half(self):
        g = log_gamma_signed(-0.5)
        assert g.sign == -1
        assert g.sign * math.exp(g.log_abs) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_pole_flag(self):
        for x in (0.0, -1.0, -7.0, -3.0 + 1e-10):
            assert log_gamma_signed(x).is_pole
        assert not log_gamma_signed(-3.0 + 1e-6).is_pole

    def test_pole_raises_on_value(self):
        with pytest.raises(PoleError):
            log_gamma_signed(-2.0).value()

    def test_pole_rule_same_for_floats_and_arrays(self):
        # one _near_pole rule: round for floats, np.rint for arrays, half to even
        # alike; no infinite or nan x is a pole, and a float raises no warning
        rng = np.random.default_rng(12)
        offsets = rng.choice([0.0, 1e-9, -1e-9, 9e-10, 1.1e-9], size=300)
        near = rng.integers(-40, 3, size=300) + offsets
        xs = [math.inf, -math.inf, math.nan, 0.0, -0.0, 0.5, -0.5, -2.5, 1e300, -1e300]
        xs += near.tolist() + rng.uniform(-40.0, 3.0, size=300).tolist()
        with np.errstate(invalid="ignore"):
            arrays = specfun._near_pole(np.array(xs), specfun._ARRAY).tolist()
        floats = [bool(specfun._near_pole(x, specfun._FLOAT)) for x in xs]
        assert floats == arrays
        assert floats[:10] == [False, False, False, True, True, False, False, False, False, True]

    def test_against_stdlib_lgamma(self):
        # independent oracle across the working range
        rng = np.random.default_rng(11)
        for x in rng.uniform(0.05, 170.0, size=200):
            g = log_gamma_signed(float(x))
            assert g.sign == 1
            assert g.log_abs == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)
        for x in rng.uniform(-50.0, -0.05, size=200):
            if abs(x - round(x)) < 1e-3:
                continue
            g = log_gamma_signed(float(x))
            ref = math.gamma(x)
            assert g.sign * math.exp(g.log_abs) == pytest.approx(ref, rel=1e-11)

    def test_recurrence(self):
        rng = np.random.default_rng(3)
        for x in rng.uniform(0.1, 50.0, size=100):
            assert gamma_value(x + 1.0) == pytest.approx(x * gamma_value(x), rel=1e-12)


class TestDoubleFactorial:
    def test_conventions(self):
        assert double_factorial(-1) == 1.0
        assert double_factorial(0) == 1.0

    def test_small_values(self):
        assert double_factorial(5) == 15.0
        assert double_factorial(6) == 48.0

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            double_factorial(-2)


class TestACoeff:
    def test_k_zero(self):
        for l in range(8):
            assert a_coeff(0, l) == 1.0

    def test_hand_value(self):
        assert a_coeff(2, 2) == 3.0

    def test_support(self):
        assert a_coeff(3, 2) == 0.0
        assert a_coeff(-1, 2) == 0.0
        for l in range(6):
            for k in range(-2, l + 4):
                if k < 0 or k > l:
                    assert a_coeff(k, l) == 0.0
                else:
                    assert a_coeff(k, l) > 0.0

    def test_bit_equal_below_the_factorial_range(self):
        # (l + k)! converts to a float through l + k = 170
        for l in range(171):
            for k in range(min(l, 170 - l) + 1):
                ref = math.factorial(l + k) / (2.0**k * math.factorial(k) * math.factorial(l - k))
                assert repr(a_coeff(k, l)) == repr(ref)

    @pytest.mark.parametrize("k, l", [(85, 86), (86, 86), (82, 90), (171, 200)])
    def test_overflow_names_k_and_l(self, k, l):
        with pytest.raises(OverflowError) as exc:
            a_coeff(k, l)
        assert str(exc.value) == f"a_coeff(k = {k}, l = {l}): (l + k)! = {l + k}! is beyond the float range"


class TestOrthoPoly:
    """legendre_p and gegenbauer_c, the two orthogonal-polynomial families in use."""

    def test_gegenbauer_degree_zero(self):
        for x in (-0.7, 0.0, 0.9):
            assert gegenbauer_c(0, 1.5, x) == 1.0

    def test_legendre_l1(self):
        assert legendre_p(1, 0, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_gegenbauer_degree_one(self):
        assert gegenbauer_c(1, 1.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_gegenbauer_classical_values(self):
        # C_2^alpha(x) = 2 alpha(alpha+1) x^2 - alpha
        rng = np.random.default_rng(5)
        for _ in range(40):
            alpha = rng.uniform(0.5, 6.0)
            x = rng.uniform(-1.0, 1.0)
            want = 2.0 * alpha * (alpha + 1.0) * x * x - alpha
            assert gegenbauer_c(2, alpha, x) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_legendre_matches_rodrigues_expansion(self):
        # P_3^2(x) = 15 x (1 - x^2), no Condon-Shortley sign
        for x in np.linspace(-1, 1, 9):
            assert legendre_p(3, 2, x) == pytest.approx(
                15.0 * x * (1.0 - x * x), abs=1e-12
            )

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            legendre_p(2, 3, 0.1)
        with pytest.raises(ValueError):
            legendre_p(2, 0, 1.5)
        with pytest.raises(ValueError):
            gegenbauer_c(2, -0.7, 0.1)

    def test_high_degree_against_mpmath(self):
        # recurrence stability up to degree 30 (mpmath legenp carries the
        # Condon-Shortley sign; ours does not)
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = int(rng.integers(5, 31))
            alpha = float(rng.uniform(0.6, 8.0))
            x = float(rng.uniform(-0.95, 0.95))
            want = float(mp.gegenbauer(n, alpha, x))
            assert gegenbauer_c(n, alpha, x) == pytest.approx(
                want, rel=1e-11, abs=1e-11
            )
        for _ in range(15):
            l = int(rng.integers(5, 31))
            m = int(rng.integers(0, l + 1))
            x = float(rng.uniform(-0.95, 0.95))
            want = (-1.0) ** m * float(mp.legenp(l, m, x))
            assert legendre_p(l, m, x) == pytest.approx(
                want, rel=1e-11, abs=1e-11
            )


class TestHyp2F1:
    def test_unit_at_zero(self):
        assert hyp2f1(2.3, -1.1, 0.7, 0.0) == 1.0

    def test_log_closed_form(self):
        assert hyp2f1(1, 1, 2, 0.5) == pytest.approx(-math.log(0.5) / 0.5, rel=1e-12)

    def test_terminating_by_hand(self):
        assert hyp2f1(-1, 3, 2, 0.25) == pytest.approx(1.0 - 1.5 * 0.25, rel=1e-14)

    def test_terminating_matches_direct_polynomial(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = rng.integers(1, 6)
            b = rng.uniform(0.5, 4.0)
            c = rng.uniform(0.5, 4.0)
            z = rng.uniform(0.0, 0.95)
            # direct Pochhammer polynomial
            tot, term = 1.0, 1.0
            for k in range(int(n)):
                term *= (-n + k) * (b + k) / ((c + k) * (k + 1.0)) * z
                tot += term
            assert hyp2f1(float(-n), b, c, z) == pytest.approx(tot, rel=1e-13, abs=1e-13)

    def test_binomial_identity(self):
        # 2F1(a, b; b; z) = (1-z)^(-a)
        for z in (0.1, 0.5, 0.9):
            assert hyp2f1(0.75, 2.0, 2.0, z) == pytest.approx((1 - z) ** -0.75, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            hyp2f1(1.0, 1.0, -2.0, 0.3)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 2.0, 0.97)

    def test_infinite_total_raises(self):
        # the terms pass the float range, and an infinite total is no value
        with pytest.raises(ConvergenceError, match=r"hyp2f1\(100,100;1;0.95\) sums to inf after \d+ steps"):
            hyp2f1(100, 100, 1, 0.95)

    @pytest.mark.parametrize(
        "c, want",
        [(-math.inf, 1.0), (math.inf, 1.0), pytest.param(math.nan, "sums to nan after 0 steps", id="nan")],
    )
    def test_non_finite_c_same_outcome_for_floats_and_arrays(self, c, want):
        # _near_pole calls no infinite or nan c a pole, for floats and arrays alike; a nan
        # c makes the first term nan, which ends the series at once
        try:
            scalar = hyp2f1(1.0, 1.0, c, 0.5)
        except ConvergenceError as exc:
            scalar = exc
        values, faults = specfun._hyp2f1_grid(np.ones(1), np.ones(1), np.array([c]), 0.5)
        if isinstance(want, str):
            assert want in str(scalar)
            assert (type(faults[0]), str(faults[0])) == (type(scalar), str(scalar))
        else:
            assert not faults
            assert (scalar, values[0].item()) == (want, want)

    def test_against_mpmath_near_domain_edge(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(8)
        for _ in range(15):
            a = float(rng.uniform(-2.0, 3.0))
            b = float(rng.uniform(-2.0, 3.0))
            c = float(rng.uniform(0.6, 4.0))
            z = float(rng.uniform(0.5, 0.95))
            want = float(mp.hyp2f1(a, b, c, z))
            assert hyp2f1(a, b, c, z) == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestRadialBasis:
    def test_j0_closed_form(self):
        assert radial_basis("j", 0, 1.0).real == pytest.approx(math.sin(1.0), rel=1e-14)

    def test_h1_l0(self):
        want = -1j * cmath.exp(2j) / 2.0
        got = radial_basis("h1", 0, 2.0)
        assert abs(got - want) < 1e-14

    def test_n_evan_real(self):
        v = radial_basis("n_evan", 0, 1.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(-math.cosh(1.0), rel=1e-13)

    def test_j_evan_real_and_value(self):
        v = radial_basis("j_evan", 0, 1.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(math.sinh(1.0), rel=1e-13)

    @pytest.mark.parametrize("kind", ["j_evan", "n_evan"])
    def test_evanescent_against_mpmath(self, kind):
        # i^{-l} j_l(ix) and i^{l+1} n_l(ix) from complex-argument Bessel functions
        mp = pytest.importorskip("mpmath")
        bessel, power = {"j_evan": (mp.besselj, lambda l: -l), "n_evan": (mp.bessely, lambda l: l + 1)}[kind]
        for l in range(7):
            for x in (0.5, 2.0, 5.0):
                with mp.workdps(30):
                    z = mp.mpc(0, x)
                    want = mp.sqrt(mp.pi / (2 * z)) * bessel(l + 0.5, z) * mp.mpc(0, 1) ** power(l)
                got = radial_basis(kind, l, x)
                assert got.imag == 0.0
                assert got.real == pytest.approx(float(want.real), rel=1e-13)

    def test_j1_closed_form(self):
        for x in (0.3, 2.0, 7.5, 20.0):
            want = math.sin(x) / x**2 - math.cos(x) / x
            assert radial_basis("j", 1, x).real == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_n1_closed_form(self):
        for x in (0.3, 2.0, 7.5, 20.0):
            want = -math.cos(x) / x**2 - math.sin(x) / x
            assert radial_basis("n", 1, x).real == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_series_trig_crossover_consistency(self):
        # both evaluation routes at the same x near the crossover point
        from adskg.specfun import _series_j, _series_n

        for l in range(7):
            x = l + 4.0
            s, c = phase_shifted_trig(l, x)
            j_trig = s_odd(l, x) * s + s_even(l, x) * c
            n_trig = -s_odd(l, x) * c + s_even(l, x) * s
            assert _series_j(l, x) == pytest.approx(j_trig, rel=1e-11, abs=1e-13)
            assert _series_n(l, x) == pytest.approx(n_trig, rel=1e-11, abs=1e-13)

    def test_hankel_reconstruction(self):
        for l in range(7):
            for x in np.linspace(0.5, 20.0, 40):
                h1 = radial_basis("h1", l, float(x))
                jn = radial_basis("j", l, float(x)) + 1j * radial_basis("n", l, float(x))
                assert abs(h1 - jn) <= 1e-10 * max(1.0, abs(h1))

    def test_hankel_sum_overflow_names_the_sum(self):
        # the first power of x beyond the float range, per sum; h1 raises what s_odd raises
        for fn, message in (
            (lambda: s_odd(2, 1e155), "s_odd(l = 2, x = 1e+155): x^3 is beyond the float range"),
            (lambda: s_even(3, 1e155), "s_even(l = 3, x = 1e+155): x^2 is beyond the float range"),
            (lambda: radial_basis("h1", 2, 1e155), "s_odd(l = 2, x = 1e+155): x^3 is beyond the float range"),
        ):
            with pytest.raises(OverflowError) as exc:
                fn()
            assert str(exc.value) == message

    def test_h2_is_conjugate_route(self):
        for l in range(5):
            for x in (0.7, 3.3, 12.0):
                h2 = radial_basis("h2", l, x)
                jn = radial_basis("j", l, x) - 1j * radial_basis("n", l, x)
                assert abs(h2 - jn) <= 1e-10 * max(1.0, abs(h2))

    def test_envelope_identity(self):
        for l in range(7):
            for x in np.linspace(0.5, 20.0, 40):
                h1 = radial_basis("h1", l, float(x))
                j = radial_basis("j", l, float(x)).real
                n = radial_basis("n", l, float(x)).real
                assert abs(h1) ** 2 == pytest.approx(j * j + n * n, rel=1e-10)

    def test_trig_decomposition_identity(self):
        for l in range(7):
            for x in np.linspace(0.5, 20.0, 25):
                x = float(x)
                s, c = phase_shifted_trig(l, x)
                want = s_odd(l, x) * s + s_even(l, x) * c
                j = radial_basis("j", l, x).real
                assert j == pytest.approx(want, rel=1e-10, abs=1e-10 * max(1.0, abs(s_odd(l, x))))

    def test_s_plus_matches_direct_sum(self):
        # independent route: literal sum of (+-i)^(k-l-1) a_k / x^(k+1)
        for l in range(7):
            for x in (0.5, 1.7, 8.0):
                direct = sum(
                    (1j) ** (k - l - 1) * a_coeff(k, l) / x ** (k + 1) for k in range(l + 1)
                )
                assert abs(s_plus(l, x, kind=1) - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_neumann_overflow_reported(self):
        with pytest.raises(OverflowError):
            radial_basis("n", 30, 1e-12)

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            radial_basis("j", -1, 1.0)
        with pytest.raises(ValueError):
            radial_basis("j", 0, 0.0)
        with pytest.raises(ValueError):
            radial_basis("bogus", 0, 1.0)
