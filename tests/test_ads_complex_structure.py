import math

import numpy as np
import pytest

from adskg.ads_complex_structure import (
    ConditionReport,
    JFactors,
    apply_J,
    boost_recurrence_residual,
    boost_recurrence_residual_ba,
    candidate_jab,
    candidate_jfactors,
    check_conditions,
    complete_nondiagonal,
    diagonal_boost_mismatch,
    diagonal_jfactors,
    g_rho,
    jfactors_from_json,
)
from adskg.ads_modes import (
    AdSParams,
    ModeVector,
    hypergeo_params,
    is_real_solution,
    omega_rho,
    random_real_mode_vector,
)
from adskg.specfun import PoleError, log_gamma_signed

P3 = AdSParams(3, 4.2)
GRID = [(om, l) for om in (0.5, 1.5, -0.5, -1.5) for l in (0, 1, 2)]


def entry_diff(phi, psi):
    keys = set(phi.entries) | set(psi.entries)
    worst = 0.0
    for k in keys:
        a1, b1 = phi.get(*k)
        a2, b2 = psi.get(*k)
        worst = max(worst, abs(a1 - a2), abs(b1 - b2))
    return worst


class TestApplyJ:
    def test_zero_vector(self):
        jf = diagonal_jfactors(GRID)
        zero = ModeVector([(0.5, 1.0), (-0.5, 1.0)], {})
        assert apply_J(jf, zero).entries == {}

    def test_diagonal_squares_to_minus_one_on_real(self):
        rng = np.random.default_rng(0)
        jf = diagonal_jfactors(GRID)
        phi = random_real_mode_vector(3, [0.5, 1.5], 2, rng)
        twice = apply_J(jf, apply_J(jf, phi))
        minus = phi.map_entries(lambda o, lv, m, a, b: (-a, -b))
        assert entry_diff(twice, minus) < 1e-14

    def test_antidiagonal_squares_to_minus_one(self):
        jf = JFactors({k: (0.0, -1.0, 1.0, 0.0) for k in GRID})
        rng = np.random.default_rng(1)
        phi = random_real_mode_vector(3, [0.5, 1.5], 2, rng)
        twice = apply_J(jf, apply_J(jf, phi))
        minus = phi.map_entries(lambda o, lv, m, a, b: (-a, -b))
        assert entry_diff(twice, minus) < 1e-14

    def test_missing_entry_rejected(self):
        jf = JFactors({(0.5, 0): (0, -1, 1, 0), (-0.5, 0): (0, -1, 1, 0)})
        phi = ModeVector([(0.5, 1.0), (-0.5, 1.0)], {(0.5, (1,), 0): (1.0, 0.0)})
        with pytest.raises(KeyError):
            apply_J(jf, phi)


class TestCheckConditions:
    def test_diagonal_passes_essentials_fails_positivity(self):
        rep = check_conditions(diagonal_jfactors(GRID))
        assert rep.case == "diagonal"
        assert rep.essential_ok and rep.real_products_ok
        assert not rep.positivity_ok

    def test_hand_nondiagonal_entry(self):
        jf = JFactors({k: (0.0, -2.0, 0.5, 0.0) for k in GRID})
        rep = check_conditions(jf)
        assert rep.case == "nondiagonal"
        assert rep.essential_ok
        assert rep.positivity_ok
        assert rep.residuals["square_a"] < 1e-14
        assert rep.residuals["compat"] < 1e-14

    def test_invalid_entry_detected(self):
        jf = JFactors({k: (0.0, 1.0, 1.0, 0.0) for k in GRID})
        rep = check_conditions(jf)
        assert rep.case == "invalid"
        assert not rep.square_ok
        assert not rep.positivity_ok
        assert rep.residuals["square_a"] == pytest.approx(2.0)  # |0 + 1 + 1|

    def test_asymmetric_grid_rejected(self):
        jf = JFactors({(0.5, 0): (1j, 0.0, 0.0, 1j)})
        with pytest.raises(ValueError):
            check_conditions(jf)

    def test_reality_violation_detected(self):
        jf = JFactors({(0.5, 0): (1j, 0, 0, 1j), (-0.5, 0): (1j, 0, 0, 1j)})
        rep = check_conditions(jf)
        assert not rep.reality_ok

    @pytest.mark.parametrize("jab", [-1e-3, 1e-3, -1e-6, 1e-6, -1e-9, 1e-9, -1e-11, 1e-11, -1e-13, 1e-13])
    def test_small_jab_is_nondiagonal(self, jab):
        # jba = -1/jab is large; it must not set the scale jab is tested against
        rep = check_conditions(JFactors({(w, 0): complete_nondiagonal(jab) for w in (0.5, -0.5)}))
        assert rep.case == "nondiagonal" and rep.essential_ok
        assert rep.positivity_ok == (jab < 0.0)

    def test_pairs_match_two_key_reports(self):
        table = candidate_jfactors(1, P3, GRID).table
        table[(1.5, 0)], table[(-1.5, 0)] = (1j, 0.0, 0.0, 1j), (-1j, 0.0, 0.0, -1j)
        table[(0.5, 1)] = table[(-0.5, 1)] = (1j, 0.0, 0.0, 1j)  # diagonal, but not real
        table[(1.5, 2)] = (-1j, 0.0, 0.0, -1j)  # diagonal beside a nondiagonal mirror
        table[(-0.5, 2)] = (0.0, 1.0, 1.0, 0.0)  # square fails
        jf = JFactors(table)
        rep = check_conditions(jf)
        for k, (w, l) in enumerate(jf.keys()):
            alone = check_conditions(JFactors({(w, l): jf.get(w, l), (-w, l): jf.get(-w, l)}))
            for name in ("reality_ok", "square_ok", "compat_ok", "offdiag_ok", "case"):
                assert rep.pairs[name][k] == getattr(alone, name)
            assert rep.pairs["positivity_ok"][k] == alone.positivity_ok
            for name, worst in alone.residuals.items():
                assert rep.pairs["residuals"][name][k] == worst
        assert set(rep.pairs["case"]) == {"diagonal", "nondiagonal", "invalid"}


class TestCompleteNondiagonal:
    def test_minus_one(self):
        assert complete_nondiagonal(-1.0) == (0.0, -1.0, 1.0, 0.0)

    def test_minus_two(self):
        jaa, jab, jba, jbb = complete_nondiagonal(-2.0)
        assert jab == -2.0 and jba == 0.5 and jaa == 0.0 and jbb == 0.0

    def test_nonzero_jaa(self):
        jaa, jab, jba, jbb = complete_nondiagonal(-2.0, jaa=1.0)
        assert jba == pytest.approx(1.0)
        assert jbb == -jaa
        # square condition: jaa^2 + jab jba = -1
        assert jaa * jaa + jab * jba == pytest.approx(-1.0)

    def test_random_negative_jab_passes_conditions(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            jab = -float(rng.uniform(0.1, 5.0))
            table = {k: complete_nondiagonal(jab) for k in GRID}
            rep = check_conditions(JFactors(table))
            assert rep.case == "nondiagonal" and rep.essential_ok and rep.positivity_ok

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            complete_nondiagonal(0.0)


class TestGRho:
    def test_diagonal_gives_zero_norm(self):
        rng = np.random.default_rng(3)
        jf = diagonal_jfactors(GRID)
        for _ in range(20):
            phi = random_real_mode_vector(3, [0.5, 1.5], 2, rng)
            assert abs(g_rho(P3, jf, phi)) < 1e-12

    def test_antidiagonal_peak_value(self):
        grid = [(2.0, 0), (-2.0, 0)]
        jf = JFactors({k: (0.0, -1.0, 1.0, 0.0) for k in grid})
        phi = ModeVector(
            [(2.0, 1.0), (-2.0, 1.0)],
            {(2.0, (0,), 0): (1.0, 0.0), (-2.0, (0,), 0): (1.0, 0.0)},
        )
        assert g_rho(P3, jf, phi) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_positive_definite_sampling(self):
        rng = np.random.default_rng(4)
        jf = JFactors({k: (0.0, -1.7, 1.0 / 1.7, 0.0) for k in GRID})
        for _ in range(20):
            phi = random_real_mode_vector(3, [0.5, 1.5], 2, rng)
            assert g_rho(P3, jf, phi) > 0.0

    def test_non_real_rejected(self):
        jf = diagonal_jfactors(GRID)
        phi = ModeVector([(0.5, 1.0), (-0.5, 1.0)], {(0.5, (0,), 0): (1.0 + 1.0j, 0.0)})
        with pytest.raises(ValueError):
            g_rho(P3, jf, phi)


class TestBoostRecurrences:
    def test_constant_jab_fails_generically(self):
        _, res_plus = boost_recurrence_residual(P3, lambda w, l: 1.0, 0.7, 1)
        want = abs(1.0 + (4.2 - 0.7 - 1 - 3) * (4.2 + 0.7 + 1) / ((2 + 3) * (2 + 3 - 2)))
        assert res_plus == pytest.approx(want, rel=1e-12)
        assert res_plus > 0.1

    def test_candidate_one_example_point(self):
        jab = lambda w, l: candidate_jab(1, P3, w, l)
        rm, rp = boost_recurrence_residual(P3, jab, 0.7, 1)
        scale = abs(jab(0.7, 1))
        assert rm <= 1e-10 * scale and rp <= 1e-10 * scale

    def test_all_candidates_on_grid(self):
        for d in (3, 5):
            for delta in (3.7, 4.2):
                p = AdSParams(d, delta)
                for which in (1, 2, 3, 4):
                    jab = lambda w, l: candidate_jab(which, p, w, l)
                    for omega in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
                        for l in (0, 1, 2, 3):
                            rm, rp = boost_recurrence_residual(p, jab, omega, l)
                            scale = abs(jab(omega, l))
                            assert rm <= 1e-10 * scale
                            assert rp <= 1e-10 * scale

    def test_jba_side_follows_automatically(self):
        jba = lambda w, l: complete_nondiagonal(candidate_jab(1, P3, w, l))[2]
        for omega in (0.0, 0.5, 1.5, 2.5):
            for l in (0, 1, 2):
                rm, rp = boost_recurrence_residual_ba(P3, jba, omega, l)
                scale = abs(jba(omega, l))
                assert rm <= 1e-10 * scale and rp <= 1e-10 * scale

    def test_gamma_ratio_oracle(self):
        # independent route: the ratio jab(w-1, l+1)/jab(w, l) collapses to
        # first-order Gamma shifts, Gamma(x+1) = x Gamma(x)
        from adskg.ads_modes import hypergeo_params

        p = AdSParams(3, 4.2)
        for omega in (0.4, 1.3):
            for l in (0, 2):
                hp = hypergeo_params(p, omega, l)
                ratio = candidate_jab(1, p, omega - 1.0, l + 1) / candidate_jab(1, p, omega, l)
                want = -hp.alpha_a * (hp.beta_b - 1.0) / (hp.gamma * (hp.gamma - 1.0))
                assert ratio == pytest.approx(want, rel=1e-11)


class TestCandidates:
    def test_real_valued(self):
        for which in (1, 2, 3, 4):
            v = candidate_jab(which, P3, 0.9, 1)
            assert isinstance(v, float)

    def test_frequency_symmetry_exact(self):
        for which in (1, 2, 3, 4):
            assert candidate_jab(which, P3, 1.3, 2) == candidate_jab(which, P3, -1.3, 2)
        # -omega swaps the Gamma arguments of each pair; the sum must not follow
        p = AdSParams(5, 3.3)
        assert candidate_jab(2, p, 0.75, 5) == candidate_jab(2, p, -0.75, 5)
        for d, delta in ((3, 4.2), (4, 4.9), (5, 3.3), (6, 6.7)):
            p = AdSParams(d, delta)
            for which in (1, 2, 3, 4):
                for omega in np.arange(0.05, 5.0, 0.2):
                    for l in range(11):
                        assert candidate_jab(which, p, omega, l) == candidate_jab(which, p, -omega, l)

    def test_sides_summed_in_ascending_order(self):
        # the stated summation order, term for term, fixes every bit of the value
        p = AdSParams(5, 3.37)
        for omega in (-2.35, 0.55, 4.1):
            for l in (0, 3):
                hp = hypergeo_params(p, omega, l)
                a, b = [hp.alpha_a, hp.beta_a], [hp.alpha_b, hp.beta_b]
                g = [hp.gamma, hp.gamma - 1.0]
                sides = {
                    1: (a, b + g),
                    2: ([1.0 - x for x in b], [1.0 - x for x in a] + g),
                    3: ([], b + [1.0 - x for x in a] + g),
                    4: (a + [1.0 - x for x in b], g),
                }
                for which, (numerator, denominator) in sides.items():
                    total, sign = 0.0, (-1) ** l if which in (1, 2) else 1
                    for x in sorted(numerator):
                        g = log_gamma_signed(x)
                        total, sign = total + g.log_abs, sign * g.sign
                    for x in sorted(denominator):
                        g = log_gamma_signed(x)
                        total, sign = total - g.log_abs, sign * g.sign
                    assert repr(candidate_jab(which, p, omega, l)) == repr(sign * math.exp(total))

    def test_pole_reported_with_argument(self):
        # Delta = 4, omega = 0, l = 0, d = 3: alpha_b = (4 - 0 - 0 - 1)/2 ... no pole;
        # push alpha_b onto a pole: Delta - omega - l - d + 2 = 0
        p = AdSParams(3, 3.0)
        with pytest.raises(PoleError):
            candidate_jab(1, p, 2.0, 0)  # alpha_b = (3 - 2 - 0 - 1)/2 = 0

    def test_candidate_completion_passes_conditions(self):
        jf = candidate_jfactors(1, P3, GRID)
        rep = check_conditions(jf)
        assert rep.case == "nondiagonal"
        assert rep.essential_ok and rep.real_products_ok
        assert max(rep.residuals.values()) <= 1e-10

    def test_candidate_J_squares_and_compat(self):
        rng = np.random.default_rng(5)
        jf = candidate_jfactors(1, P3, GRID)
        for _ in range(5):
            phi = random_real_mode_vector(3, [0.5, 1.5], 2, rng)
            eta = random_real_mode_vector(3, [0.5, 1.5], 2, rng)
            twice = apply_J(jf, apply_J(jf, phi))
            minus = phi.map_entries(lambda o, lv, m, a, b: (-a, -b))
            assert entry_diff(twice, minus) < 1e-10
            base = omega_rho(P3, phi, eta)
            after = omega_rho(P3, apply_J(jf, phi), apply_J(jf, eta))
            assert abs(after - base) <= 1e-10 * max(1.0, abs(base))
            assert is_real_solution(apply_J(jf, phi))

    @pytest.mark.parametrize("d, delta", [(3, 4.2), (5, 3.37)])
    def test_against_mpmath_gamma_products(self, d, delta):
        # the four candidates straight from Gamma and reciprocal Gamma
        mp = pytest.importorskip("mpmath")
        p = AdSParams(d, delta)
        for omega in (-7.3, -2.35, 0.0, 0.55, 4.1, 9.85):
            for l in range(6):
                with mp.workdps(30):
                    w = mp.mpf(omega)
                    aa, ba = (delta - w + l) / 2, (delta + w + l) / 2
                    ab, bb = (delta - w - l - d + 2) / 2, (delta + w - l - d + 2) / 2
                    g = l + mp.mpf(d) / 2
                    G, R = mp.gamma, mp.rgamma
                    common = R(g) * R(g - 1)
                    want = [
                        (-1) ** l * G(aa) * G(ba) * R(ab) * R(bb) * common,
                        (-1) ** l * G(1 - ab) * G(1 - bb) * R(1 - aa) * R(1 - ba) * common,
                        R(ab) * R(bb) * R(1 - aa) * R(1 - ba) * common,
                        G(aa) * G(ba) * G(1 - ab) * G(1 - bb) * common,
                    ]
                for which, ref in zip((1, 2, 3, 4), map(float, want)):
                    got = candidate_jab(which, p, omega, l)
                    assert abs(got - ref) <= 1e-8 * abs(ref), (which, omega, l)

    def test_real_at_zero_frequency(self):
        jf = candidate_jfactors(1, P3, [(0.0, l) for l in range(3)])
        for (omega, l) in jf.keys():
            for v in jf.get(omega, l):
                assert abs(v.imag) == 0.0


class TestDiagonalBoostMismatch:
    def test_inside_unit_interval(self):
        assert diagonal_boost_mismatch(0.5) is True

    def test_above_one(self):
        assert diagonal_boost_mismatch(1.5) is False

    def test_boundary_from_below(self):
        assert diagonal_boost_mismatch(1.0 - 1e-12) is True
        assert diagonal_boost_mismatch(1.0) is False


class TestJson:
    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_key_refused(self, omega):
        # a nan key would leave the keys unsorted, so that stored keys read as missing
        v = (1j, 0j, 0j, 1j)
        with pytest.raises(ValueError, match=rf"\(omega, l\) = \({omega}, 0\) has a non-finite omega"):
            JFactors({(0.5, 0): v, (omega, 0): v, (-0.5, 0): v})

    def test_non_integer_l_key_refused(self):
        # truncating l would file (0.5, 0.5) under the key (0.5, 0) and replace its entry
        v = (1j, 0j, 0j, 1j)
        message = r"\(omega, l\) = \(0.5, 0.5\) has a non-integer l"
        with pytest.raises(ValueError, match=message):
            JFactors({(0.5, 0): v, (0.5, 0.5): v})
        with pytest.raises(ValueError, match=message):
            candidate_jfactors(1, P3, [(0.5, 0.5), (-0.5, 0.5)])
        assert JFactors({(0.5, 1.0): v}).keys() == [(0.5, 1)]
        # a lookup at l = 0.5 is refused too, not answered by the (0.5, 0) entry
        for lookup in (JFactors({(0.5, 0): v}).get, JFactors({(0.5, 0): v}).has):
            with pytest.raises(ValueError, match=message):
                lookup(0.5, 0.5)

    def test_round_trip(self):
        jf = candidate_jfactors(2, P3, GRID)
        back = jfactors_from_json(jf.to_json())
        assert back.table == jf.table
