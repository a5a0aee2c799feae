import json
import math

import numpy as np
import pytest

from adskg.ads_modes import (
    AdSParams,
    ModeVector,
    act_rotation,
    act_time_translation,
    delta_for_mass,
    hypergeo_params,
    is_real_solution,
    mode_vector_from_json,
    omega_rho,
    radial_eval,
    radial_eval_deriv,
    radial_wronskian,
    random_real_mode_vector,
)
from adskg.harmonics import wigner_block_euler
from adskg.specfun import PoleError


class TestParams:
    def test_guard(self):
        AdSParams(d=3, Delta=1.1)
        with pytest.raises(ValueError):
            AdSParams(d=3, Delta=0.9)
        with pytest.raises(ValueError):
            AdSParams(d=3, Delta=4.0, R=-1.0)

    def test_delta_for_mass_massless(self):
        assert delta_for_mass(0.0, 1.0, 3) == pytest.approx(3.0)

    def test_delta_for_mass_consistency(self):
        # Delta (Delta - d) = m^2 R^2
        for m, r, d in ((0.5, 1.0, 3), (2.0, 0.7, 5)):
            delta = delta_for_mass(m, r, d)
            assert delta * (delta - d) == pytest.approx(m * m * r * r, rel=1e-12)


class TestHypergeoParams:
    def test_hand_arithmetic(self):
        hp = hypergeo_params(AdSParams(3, 4.0), 0.0, 0)
        assert hp.alpha_a == 2.0 and hp.beta_a == 2.0
        assert hp.gamma == 1.5

    def test_frequency_swap_symmetry(self):
        p = AdSParams(3, 4.2)
        for omega in (0.3, 1.7):
            for l in (0, 2):
                hp = hypergeo_params(p, omega, l)
                hm = hypergeo_params(p, -omega, l)
                assert hm.alpha_a == hp.beta_a and hm.beta_a == hp.alpha_a
                assert hm.alpha_b == hp.beta_b and hm.beta_b == hp.alpha_b

    def test_shifted_alpha_b(self):
        # alpha_b - 1 = (Delta - omega - l - d) / 2, the boost-recurrence factor
        p = AdSParams(3, 4.2)
        hp = hypergeo_params(p, 0.7, 1)
        assert hp.alpha_b - 1.0 == pytest.approx(0.5 * (4.2 - 0.7 - 1 - 3))


class TestRadial:
    def test_channel_a_leading_coefficient(self):
        p = AdSParams(3, 4.2)
        for l in (0, 1, 3):
            for rho in (1e-4, 1e-3):
                val = radial_eval(p, 0.7, l, "a", rho)
                assert val / math.sin(rho) ** l == pytest.approx(1.0, abs=1e-5)

    def test_channel_b_divergence_rate(self):
        p = AdSParams(3, 4.2)
        val = radial_eval(p, 0.7, 0, "b", 1e-3)
        assert val * math.sin(1e-3) == pytest.approx(1.0, abs=1e-5)

    def test_zero_frequency_conformal_case(self):
        p = AdSParams(3, 3.0)
        for l in (0, 1, 2):
            for rho in np.linspace(0.1, 1.2, 7):
                val = radial_eval(p, 0.0, l, "a", float(rho))
                assert val > 0.0

    def test_derivative_matches_finite_difference(self):
        p = AdSParams(5, 4.2)
        h = 1e-6
        for l in (0, 2):
            for channel in ("a", "b"):
                for rho in (0.4, 0.9):
                    fd = (
                        radial_eval(p, 1.3, l, channel, rho + h)
                        - radial_eval(p, 1.3, l, channel, rho - h)
                    ) / (2 * h)
                    an = radial_eval_deriv(p, 1.3, l, channel, rho)
                    assert an == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("d, delta", [(3, 4.2), (5, 3.1)])
    def test_against_mpmath(self, d, delta):
        # S = sin^e cos^Delta 2F1(a, b; c; sin^2) and dS/drho by mpmath's numerical derivative
        mp = pytest.importorskip("mpmath")
        rhos = (0.3, 0.7, 1.2)
        p = AdSParams(d, delta)
        for omega in (-10.0, -2.35, 0.0, 10.0):
            for l in (0, 1, 6):
                for channel in ("a", "b"):
                    with mp.workdps(20):
                        w = mp.mpf(omega)
                        if channel == "a":
                            e, a, b = l, (delta - w + l) / 2, (delta + w + l) / 2
                            c = l + mp.mpf(d) / 2
                        else:
                            e = 2 - d - l
                            a, b = (delta - w - l - d + 2) / 2, (delta + w - l - d + 2) / 2
                            c = 2 - l - mp.mpf(d) / 2

                        def profile(r):
                            s = mp.sin(r)
                            return s**e * mp.cos(r) ** delta * mp.hyp2f1(a, b, c, s * s)

                        refs = [(float(profile(r)), float(mp.diff(profile, mp.mpf(r)))) for r in rhos]
                    for rho, (s_ref, ds_ref) in zip(rhos, refs):
                        scale_w = max(1.0, abs(omega))
                        amplitude = math.hypot(s_ref, ds_ref / scale_w)
                        s_got = radial_eval(p, omega, l, channel, rho)
                        ds_got = radial_eval_deriv(p, omega, l, channel, rho)
                        where = (omega, l, channel, rho)
                        assert abs(s_got - s_ref) <= 1e-8 * amplitude, where
                        assert abs(ds_got - ds_ref) <= 1e-8 * amplitude * scale_w, where

    def test_domain_guard(self):
        p = AdSParams(3, 4.2)
        with pytest.raises(ValueError):
            radial_eval(p, 0.7, 0, "a", 1.5)
        with pytest.raises(ValueError):
            radial_eval(p, 0.7, 0, "a", 0.0)

    def test_even_d_channel_b_pole_reported(self):
        with pytest.raises(PoleError):
            radial_eval(AdSParams(4, 4.0), 0.5, 0, "b", 0.5)


class TestRadialEquation:
    def test_channels_solve_the_wave_equation(self):
        # tan^(1-d) (tan^(d-1) S')' + [w^2 - l(l+d-2)/sin^2 - Delta(Delta-d)/cos^2] S = 0,
        # second derivative by finite differences of the analytic first derivative
        h = 1e-5
        for d, delta in ((3, 4.2), (5, 3.4)):
            p = AdSParams(d=d, Delta=delta)
            for omega in (0.0, 0.8, 2.1):
                for l in (0, 1, 3):
                    for channel in ("a", "b"):
                        for rho in (0.3, 0.7, 1.1):
                            s = radial_eval(p, omega, l, channel, rho)
                            ds = radial_eval_deriv(p, omega, l, channel, rho)
                            d2s = (
                                radial_eval_deriv(p, omega, l, channel, rho + h)
                                - radial_eval_deriv(p, omega, l, channel, rho - h)
                            ) / (2.0 * h)
                            # (tan^(d-1) S')' / tan^(d-1) = S'' + (d-1) S'/(sin cos)
                            radial_term = d2s + (d - 1.0) * ds / (
                                math.sin(rho) * math.cos(rho)
                            )
                            potential = (
                                omega * omega
                                - l * (l + d - 2.0) / math.sin(rho) ** 2
                                - delta * (delta - d) / math.cos(rho) ** 2
                            )
                            residual = radial_term + potential * s
                            scale = abs(d2s) + abs(potential * s) + 1.0
                            assert abs(residual) <= 1e-5 * scale


class TestWronskian:
    def test_constancy_and_value_across_grid(self):
        for d, delta in ((3, 3.1), (3, 4.2), (5, 3.1), (5, 4.2)):
            p = AdSParams(d=d, Delta=delta)
            for omega in (0.0, 0.5, 1.3, 2.7):
                for l in (0, 1, 2, 3):
                    vals = [radial_wronskian(p, omega, l, rho) for rho in np.linspace(0.2, 1.0, 5)]
                    target = -(2.0 * l + d - 2.0)
                    drift = max(abs(v - vals[0]) for v in vals) / abs(vals[0])
                    assert drift <= 1e-8
                    assert vals[0] == pytest.approx(target, rel=1e-6)

    def test_point_pair_example(self):
        p = AdSParams(3, 4.2)
        w03 = radial_wronskian(p, 0.7, 1, 0.3)
        w09 = radial_wronskian(p, 0.7, 1, 0.9)
        assert w03 == pytest.approx(w09, rel=1e-8)

    def test_scaling_bilinearity(self):
        # scaling channel a by c scales the pairing by c
        p = AdSParams(3, 4.2)
        rho = 0.6
        sa = radial_eval(p, 0.7, 1, "a", rho)
        sb = radial_eval(p, 0.7, 1, "b", rho)
        dsa = radial_eval_deriv(p, 0.7, 1, "a", rho)
        dsb = radial_eval_deriv(p, 0.7, 1, "b", rho)
        w = math.tan(rho) ** 2 * (sa * dsb - sb * dsa)
        c = 3.7
        w_scaled = math.tan(rho) ** 2 * ((c * sa) * dsb - sb * (c * dsa))
        assert w_scaled == pytest.approx(c * w, rel=1e-12)


class TestModeVector:
    def test_grid_membership_enforced(self):
        with pytest.raises(ValueError):
            ModeVector([(1.0, 1.0)], {(2.0, (0,), 0): (1.0, 0.0)})

    def test_positive_weights(self):
        with pytest.raises(ValueError):
            ModeVector([(1.0, -1.0)], {})

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        phi = random_real_mode_vector(4, [0.5, 1.5], 2, rng)
        assert mode_vector_from_json(phi.to_json()) == phi

    def test_reality_predicate(self):
        grid = [(1.0, 1.0), (-1.0, 1.0)]
        zero = ModeVector(grid, {})
        assert is_real_solution(zero)
        unpaired = ModeVector(grid, {(1.0, (1,), 1): (1.0 + 2.0j, 0.0)})
        assert not is_real_solution(unpaired)
        c = 0.7 - 0.3j
        paired = ModeVector(
            grid,
            {(1.0, (1,), 1): (c, 0.0), (-1.0, (1,), -1): (np.conj(c), 0.0)},
        )
        assert is_real_solution(paired)

    def test_explicit_zero_entries_are_kept(self):
        grid = [(1.0, 0.5), (-1.0, 0.5)]
        given = {(1.0, (1,), 0): (0.0, 0.0), (-1.0, (1,), -1): (1.0, 2.0j)}
        phi = ModeVector(grid, given)
        assert phi.entries == given
        assert len(phi._entries) == 2
        assert phi.get(1.0, (1,), 1) == (0.0, 0.0)
        rows = json.loads(phi.to_json())["entries"]
        assert [(row["omega"], row["m"]) for row in rows] == [(-1.0, -1), (1.0, 0)]  # sorted
        back = mode_vector_from_json(phi.to_json())
        assert back == phi and back.entries == given
        assert back != ModeVector(grid, {(-1.0, (1,), -1): (1.0, 2.0j)})

    def test_label_validation(self):
        grid = [(1.0, 1.0)]
        for levels, m in (((1,), 2), ((1, 2), 0), ((-1,), 0), ((), 0)):
            with pytest.raises(ValueError):
                ModeVector(grid, {(1.0, levels, m): (1.0, 0.0)})
        with pytest.raises(ValueError):
            ModeVector(grid, {(1.0, (1,), 0): (1.0, 0.0), (1.0, (1, 0), 0): (1.0, 0.0)})

    def test_reality_needs_symmetric_grid(self):
        phi = ModeVector([(1.0, 1.0)], {})
        with pytest.raises(ValueError):
            is_real_solution(phi)


class TestOmegaRho:
    def test_antisymmetry_diagonal(self):
        rng = np.random.default_rng(4)
        p = AdSParams(3, 4.2)
        phi = random_real_mode_vector(3, [0.7, 1.3], 2, rng)
        assert abs(omega_rho(p, phi, phi)) < 1e-12

    def test_peak_pair_value(self):
        p = AdSParams(3, 4.2)
        grid = [(2.0, 1.0), (-2.0, 1.0)]
        eta = ModeVector(grid, {(2.0, (2,), 0): (1.0, 0.0)})
        zeta = ModeVector(grid, {(-2.0, (2,), 0): (0.0, 1.0)})
        assert omega_rho(p, eta, zeta) == pytest.approx(5.0 * math.pi)

    def test_real_inputs_real_output(self):
        rng = np.random.default_rng(5)
        p = AdSParams(5, 4.2)
        eta = random_real_mode_vector(5, [0.5], 1, rng)
        zeta = random_real_mode_vector(5, [0.5], 1, rng)
        val = omega_rho(p, eta, zeta)
        assert abs(val.imag) < 1e-12 * max(1.0, abs(val))

    def test_swap_relabel_antisymmetry(self):
        rng = np.random.default_rng(6)
        p = AdSParams(3, 4.2)
        eta = random_real_mode_vector(3, [0.7], 2, rng)
        zeta = random_real_mode_vector(3, [0.7], 2, rng)
        assert omega_rho(p, eta, zeta) == pytest.approx(-omega_rho(p, zeta, eta), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        p = AdSParams(3, 4.2)
        a = ModeVector([(1.0, 1.0)], {})
        b = ModeVector([(2.0, 1.0)], {})
        with pytest.raises(ValueError):
            omega_rho(p, a, b)

    def test_dimension_mismatch_rejected(self):
        grid = [(1.0, 1.0), (-1.0, 1.0)]
        a = ModeVector(grid, {(1.0, (1,), 0): (1.0, 0.0)})
        b = ModeVector(grid, {(-1.0, (1, 0), 0): (0.0, 1.0)})
        with pytest.raises(ValueError):
            omega_rho(AdSParams(3, 4.2), a, b)

    def test_partners_across_label_spaces(self):
        # eta reaches l = 3, zeta only l = 1; an -omega off the grid pairs with zero
        p = AdSParams(3, 4.2)
        grid = [(2.0, 1.0), (-2.0, 1.0), (3.0, 1.0)]
        eta = ModeVector(
            grid,
            {(2.0, (1,), 1): (1.0, 0.0), (3.0, (0,), 0): (1.0, 1.0), (2.0, (3,), 0): (1.0, 0.0)},
        )
        zeta = ModeVector(grid, {(-2.0, (1,), -1): (0.0, 2.0), (-2.0, (0,), 0): (5.0, 5.0)})
        assert omega_rho(p, eta, zeta) == pytest.approx(3.0 * 2.0 * math.pi)
        assert omega_rho(p, zeta, eta) == pytest.approx(-3.0 * 2.0 * math.pi)


class TestIsometries:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(7)
        phi = random_real_mode_vector(3, [0.7], 1, rng)
        assert act_time_translation(0.0, phi) == phi

    def test_time_translation_preserves_omega_rho(self):
        rng = np.random.default_rng(8)
        p = AdSParams(3, 4.2)
        eta = random_real_mode_vector(3, [0.7, 1.9], 2, rng)
        zeta = random_real_mode_vector(3, [0.7, 1.9], 2, rng)
        base = omega_rho(p, eta, zeta)
        for dt in (0.3, 1.7, -2.2):
            shifted = omega_rho(p, act_time_translation(dt, eta), act_time_translation(dt, zeta))
            assert abs(shifted - base) < 1e-12 * max(1.0, abs(base))

    def test_rotation_preserves_omega_rho(self):
        rng = np.random.default_rng(9)
        p = AdSParams(3, 4.2)
        eta = random_real_mode_vector(3, [0.7, 1.3], 2, rng)
        zeta = random_real_mode_vector(3, [0.7, 1.3], 2, rng)
        blocks = {l: wigner_block_euler(l, 0.4, 1.0, -0.9) for l in range(3)}
        base = omega_rho(p, eta, zeta)
        rotated = omega_rho(p, act_rotation(blocks, eta), act_rotation(blocks, zeta))
        assert abs(rotated - base) < 1e-10 * max(1.0, abs(base))

    def test_rotation_preserves_reality(self):
        rng = np.random.default_rng(10)
        phi = random_real_mode_vector(3, [0.7], 2, rng)
        blocks = {l: wigner_block_euler(l, 1.2, 0.8, 0.1) for l in range(3)}
        assert is_real_solution(act_rotation(blocks, phi), tol=1e-10)

    def test_missing_block_rejected(self):
        rng = np.random.default_rng(11)
        phi = random_real_mode_vector(3, [0.7], 2, rng)
        with pytest.raises(ValueError):
            act_rotation({0: np.eye(1)}, phi)
