import math
import re

import numpy as np
import pytest

from adskg import flux
from adskg.ads_modes import AdSParams, _channel_grid, radial_eval, radial_eval_deriv
from adskg.flux import (
    DiagonalMetricPoint,
    ads_combined_mode,
    em_tensor,
    extrema_relation,
    mode_flux,
    radial_momentum_density,
)
from adskg.specfun import ConvergenceError, radial_basis, radial_basis_deriv

MINK4 = DiagonalMetricPoint((-1.0, 1.0, 1.0, 1.0), {})


def plane_wave_jet(e, k, t, x):
    """phi = cos(E t - k x) and its first/second derivatives."""
    ph = e * t - k * x
    phi = math.cos(ph)
    dphi = np.array([-e * math.sin(ph), k * math.sin(ph), 0.0, 0.0])
    ddphi = np.array(
        [
            [-e * e * math.cos(ph), e * k * math.cos(ph), 0.0, 0.0],
            [e * k * math.cos(ph), -k * k * math.cos(ph), 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    return phi, dphi, ddphi


def minimal_tensor(phi, dphi, m, metric):
    """Pre-simplification minimal tensor, the independent reference for b = 0."""
    n = metric.dim
    grad_sq = sum(metric.inverse(al) * dphi[al] * dphi[al] for al in range(n))
    out = np.zeros((n, n))
    for mu in range(n):
        for nu in range(n):
            g = metric.g_diag[mu] if mu == nu else 0.0
            out[mu, nu] = dphi[mu] * dphi[nu] - 0.5 * g * grad_sq + 0.5 * g * m * m * phi * phi
    return out


class TestEmTensor:
    def test_b_zero_reduces_to_minimal(self):
        e, k = 1.3, 0.7
        m = math.sqrt(e * e - k * k)
        jet = plane_wave_jet(e, k, 0.4, 1.1)
        got = em_tensor(0.0, jet, m, MINK4)
        want = minimal_tensor(jet[0], jet[1], m, MINK4)
        assert np.abs(got - want).max() < 1e-14

    def test_plane_wave_momentum_component(self):
        # rightmover cos(Et - kx): T_tx = -Ek sin^2, so -T_tx > 0 (outgoing)
        e, k = 1.3, 0.7
        m = math.sqrt(e * e - k * k)
        for (t, x) in ((0.0, 0.3), (0.4, 1.1), (2.0, -0.5)):
            jet = plane_wave_jet(e, k, t, x)
            got = em_tensor(0.0, jet, m, MINK4)
            want = -e * k * math.sin(e * t - k * x) ** 2
            assert got[0, 1] == pytest.approx(want, abs=1e-14)

    def test_flat_curvature_term_vanishes(self):
        e, k = 1.3, 0.7
        m = math.sqrt(e * e - k * k)
        jet = plane_wave_jet(e, k, 0.2, 0.9)
        zero_ricci = [[0.0] * 4 for _ in range(4)]
        with_r = em_tensor(0.35, jet, m, MINK4, ricci=zero_ricci)
        without = em_tensor(0.35, jet, m, MINK4)
        assert np.abs(with_r - without).max() == 0.0

    def test_b_enters_linearly(self):
        e, k = 1.3, 0.7
        m = math.sqrt(e * e - k * k)
        jet = plane_wave_jet(e, k, 0.1, 0.2)
        t0 = em_tensor(0.0, jet, m, MINK4)
        t1 = em_tensor(1.0, jet, m, MINK4)
        th = em_tensor(0.5, jet, m, MINK4)
        assert np.abs(th - 0.5 * (t0 + t1)).max() < 1e-13

    def test_christoffel_term(self):
        # spherical-coordinate style Gamma^r_{theta theta} enters T_{theta theta}
        metric = DiagonalMetricPoint((-1.0, 1.0, 4.0), {(1, 2, 2): -2.0})
        phi, dphi = 0.7, np.array([0.1, 0.2, 0.3])
        ddphi = np.zeros((3, 3))
        got = em_tensor(1.0, (phi, dphi, ddphi), 0.0, metric)
        base = em_tensor(1.0, (phi, dphi, np.zeros((3, 3))), 0.0,
                         DiagonalMetricPoint((-1.0, 1.0, 4.0), {}))
        assert got[2, 2] - base[2, 2] == pytest.approx(-1.0 * phi * (-2.0) * dphi[1])


class TestRadialDensity:
    def test_zero_component(self):
        t = np.zeros((4, 4))
        assert radial_momentum_density(t, MINK4) == 0.0

    def test_minkowski_spherical(self):
        t = np.zeros((4, 4))
        t[0, 1] = 0.25
        assert radial_momentum_density(t, MINK4) == pytest.approx(-0.25)

    def test_sign_linearity(self):
        t = np.zeros((4, 4))
        t[0, 1] = -1.5
        assert radial_momentum_density(t, MINK4) == pytest.approx(1.5)


class TestModeFlux:
    def test_minkowski_hankel_value_and_r_independence(self):
        omega, mass = 2.0, 1.0
        p_r = math.sqrt(omega * omega - mass * mass)
        want = 2.0 * omega / p_r
        vals = []
        for r in (3.0, 5.0, 10.0):
            f = radial_basis("h1", 1, p_r * r)
            df = p_r * radial_basis_deriv("h1", 1, p_r * r)
            v = mode_flux("minkowski", {"d": 3}, omega, 1, (f, df), rho=r)
            assert v.verdict == "outgoing"
            assert v.flux_per_time == pytest.approx(want, rel=1e-10)
            vals.append(v.flux_per_time)
        assert max(vals) - min(vals) < 1e-10 * want

    def test_hankel_negative_frequency_incoming(self):
        omega, mass = -2.0, 1.0
        p_r = math.sqrt(omega * omega - mass * mass)
        f = radial_basis("h1", 0, p_r * 5.0)
        df = p_r * radial_basis_deriv("h1", 0, p_r * 5.0)
        v = mode_flux("minkowski", {"d": 3}, omega, 0, (f, df), rho=5.0)
        assert v.verdict == "incoming"

    def test_real_radial_standing(self):
        omega = 2.0
        p_r = math.sqrt(3.0)
        for kind in ("j", "n"):
            f = radial_basis(kind, 2, p_r * 5.0)
            df = p_r * radial_basis_deriv(kind, 2, p_r * 5.0)
            v = mode_flux("minkowski", {"d": 3}, omega, 2, (f, df), rho=5.0)
            assert v.verdict == "standing"
            assert v.flux_per_time == 0.0

    def test_ads_combined_mode_flux(self):
        p = AdSParams(3, 4.2, R=1.3)
        omega = 2.5
        for l in (0, 1, 2):
            for rho in (0.4, 0.9):
                f, df, p_r = ads_combined_mode(p, omega, l, rho)
                v = mode_flux("ads", p, omega, l, (f, df), rho=rho)
                want = 4.0 * omega * p.R ** (p.d - 1) / p_r
                assert v.verdict == "outgoing"
                assert v.flux_per_time == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("l", [53, 56])
    def test_combined_mode_overflow_names_its_point(self, l):
        # p_r is 2e-6 next to the shell: p_r^(l + 1) is subnormal at l = 53, where
        # (2l+d-4)!!/p_r^(l+1) is inf, and 0 at l = 56
        p, omega = AdSParams(3, 4.0), 2.000000000001
        message = f"f_b = (2l+d-4)!!/p_r^(l+1) overflows at omega = {omega}, l = {l}"
        with pytest.raises(OverflowError, match=re.escape(message)):
            ads_combined_mode(p, omega, l, 0.7)
        # the array form keeps the point, as values that are not finite
        at = np.array([omega]), np.array([l])
        f, df, _ = flux._combined_mode(p, *at, _channel_grid(p, *at, 0.7)[0])
        assert not np.isfinite(f).any() and not np.isfinite(df).any()

    def test_ads_real_channels_standing(self):
        p = AdSParams(3, 4.2)
        for channel in ("a", "b"):
            f = radial_eval(p, 1.5, 1, channel, 0.7)
            df = radial_eval_deriv(p, 1.5, 1, channel, 0.7)
            v = mode_flux("ads", p, 1.5, 1, (f, df), rho=0.7)
            assert v.verdict == "standing"

    @pytest.mark.parametrize("f, df", [(complex(math.nan), 1.0), (complex(math.inf, 1.0), 1e300j)])
    def test_non_finite_flux_raises(self, f, df):
        # a nan flux has no sign: it must not pass for "incoming"
        p = AdSParams(3, 4.2)
        want = r"ads flux at omega = 3000.0, l = 2 is (nan|inf|-inf)$"
        with pytest.raises(ConvergenceError, match=want):
            mode_flux("ads", p, 3000.0, 2, (f, df), rho=0.7)

    def test_phase_rotation_does_not_change_direction(self):
        # multiplying the mode coefficient by -i leaves the flux invariant
        omega = 2.0
        p_r = math.sqrt(3.0)
        f = radial_basis("h1", 1, p_r * 5.0)
        df = p_r * radial_basis_deriv("h1", 1, p_r * 5.0)
        v1 = mode_flux("minkowski", {"d": 3}, omega, 1, (f, df), rho=5.0)
        v2 = mode_flux("minkowski", {"d": 3}, omega, 1, (-1j * f, -1j * df), rho=5.0)
        assert v1.flux_per_time == pytest.approx(v2.flux_per_time, rel=1e-14)

    def test_conjugation_flips_flux(self):
        omega = 2.0
        p_r = math.sqrt(3.0)
        f = radial_basis("h1", 1, p_r * 5.0)
        df = p_r * radial_basis_deriv("h1", 1, p_r * 5.0)
        v1 = mode_flux("minkowski", {"d": 3}, omega, 1, (f, df), rho=5.0)
        v2 = mode_flux("minkowski", {"d": 3}, omega, 1, (np.conj(f), np.conj(df)), rho=5.0)
        assert v2.flux_per_time == pytest.approx(-v1.flux_per_time, rel=1e-14)

    def test_rightmover_composition(self):
        # alpha cos(Et) j + beta sin(Et) n with alpha, beta > 0 is outgoing:
        # complex radial profile (alpha j + i beta n) / 2
        omega = 2.0
        p_r = math.sqrt(3.0)
        r = 6.0
        j = radial_basis("j", 1, p_r * r)
        n = radial_basis("n", 1, p_r * r)
        dj = p_r * radial_basis_deriv("j", 1, p_r * r)
        dn = p_r * radial_basis_deriv("n", 1, p_r * r)
        for alpha, beta, want in ((1.0, 1.0, "outgoing"), (2.0, 0.3, "outgoing"),
                                  (1.0, -1.0, "incoming"), (-0.5, 2.0, "incoming")):
            f = 0.5 * (alpha * j + 1j * beta * n)
            df = 0.5 * (alpha * dj + 1j * beta * dn)
            v = mode_flux("minkowski", {"d": 3}, omega, 1, (f, df), rho=r)
            assert v.verdict == want


def surface_flux_integral(omega, l, m_idx, f, df, r, d=3, order=12):
    """Time-averaged surface integral of the momentum density.

    phi = e^{-i omega t} Y f + c.c. on the radius-r cylinder; with b = 0
    the density is -T_tr sqrt|g^tt g^rr| = -dphi_t dphi_r, integrated
    over the sphere with weight r^(d-1) and averaged over one period.
    """
    from adskg.harmonics import MultiIndex, eval_harmonic_angles, sphere_quadrature

    angles, w = sphere_quadrature(d, order)
    y = eval_harmonic_angles(d, MultiIndex((l,) * (d - 2), m_idx), angles)
    n_t = 64
    ts = np.arange(n_t) * (2.0 * math.pi / abs(omega) / n_t)
    total = 0.0
    for t in ts:
        u = np.exp(-1j * omega * t) * y
        dphi_t = 2.0 * np.real(-1j * omega * u * f)
        dphi_r = 2.0 * np.real(u * df)
        total += float(np.sum(w * (-dphi_t * dphi_r))) * r ** (d - 1)
    return total / n_t


class TestFluxAgainstTensorIntegral:
    def test_minkowski_routes_agree(self):
        # Wronskian flux = time-averaged em-tensor surface integral
        omega, mass = 2.0, 1.0
        p_r = math.sqrt(omega * omega - mass * mass)
        r = 5.0
        for l, m_idx in ((0, 0), (1, 1), (2, -1)):
            f = radial_basis("h1", l, p_r * r)
            df = p_r * radial_basis_deriv("h1", l, p_r * r)
            direct = surface_flux_integral(omega, l, m_idx, f, df, r)
            v = mode_flux("minkowski", {"d": 3}, omega, l, (f, df), rho=r)
            assert direct == pytest.approx(v.flux_per_time, rel=1e-10)

    def test_ads_convention_factor(self):
        # the tube flux convention carries a factor 2 relative to the bare
        # single-mode surface integral of the momentum density
        p = AdSParams(3, 4.2, R=1.0)
        omega, l, m_idx, rho = 2.5, 1, 0, 0.7
        f, df, _ = ads_combined_mode(p, omega, l, rho)
        from adskg.harmonics import MultiIndex, eval_harmonic_angles, sphere_quadrature

        angles, w = sphere_quadrature(3, 12)
        y = eval_harmonic_angles(3, MultiIndex((l,), m_idx), angles)
        n_t = 64
        ts = np.arange(n_t) * (2.0 * math.pi / omega / n_t)
        total = 0.0
        weight = p.R ** (p.d - 1) * math.tan(rho) ** (p.d - 1)
        for t in ts:
            u = np.exp(-1j * omega * t) * y
            dphi_t = 2.0 * np.real(-1j * omega * u * f)
            dphi_rho = 2.0 * np.real(u * df)
            total += float(np.sum(w * (-dphi_t * dphi_rho))) * weight
        direct = total / n_t
        v = mode_flux("ads", p, omega, l, (f, df), rho=rho)
        assert v.flux_per_time == pytest.approx(2.0 * direct, rel=1e-10)


class TestExtrema:
    TS = np.linspace(0.0, 25.0, 5000)

    def test_cos_future_of_sin(self):
        assert extrema_relation(self.TS, np.cos(self.TS), np.sin(self.TS)) == "future"

    def test_sin_future_of_minus_cos(self):
        assert extrema_relation(self.TS, np.sin(self.TS), -np.cos(self.TS)) == "future"

    def test_cycle_continues(self):
        assert extrema_relation(self.TS, -np.cos(self.TS), -np.sin(self.TS)) == "future"
        assert extrema_relation(self.TS, -np.sin(self.TS), np.cos(self.TS)) == "future"

    def test_past_direction(self):
        assert extrema_relation(self.TS, np.sin(self.TS), np.cos(self.TS)) == "past"

    def test_bessel_outwards_of_neumann(self):
        rs = np.linspace(5.0, 40.0, 6000)
        j = np.array([radial_basis("j", 1, x).real for x in rs])
        n = np.array([radial_basis("n", 1, x).real for x in rs])
        assert extrema_relation(rs, j, n, labels=("outwards", "inwards")) == "outwards"
        assert extrema_relation(rs, n, j, labels=("outwards", "inwards")) == "inwards"

    def test_coarse_sampling_ambiguous(self):
        ts = np.linspace(0.0, 25.0, 40)
        assert extrema_relation(ts, np.cos(ts), np.sin(ts)) == "ambiguous"

    def test_non_interlacing_ambiguous(self):
        ts = np.linspace(0.0, 25.0, 5000)
        assert extrema_relation(ts, np.cos(ts), np.cos(2.0 * ts)) == "ambiguous"
