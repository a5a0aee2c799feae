"""flux-classify's array driver runs each series family in one pass over its grid.

_channel_grid sums the value and derivative 2F1 series of both channels in
one _hyp2f1_grid call; _radial_grid takes sin x and cos x once, one table of
libm powers of x, and sums the j and n series of every l below the crossover
in one _power_series call.  Each element still takes the float functions'
operations in their order, so the grids stay bit for bit the scalar code,
values by repr and faults by str, however the blocks of a pass fall.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from adskg import ads_modes, cli, specfun


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return exc


def assert_channel_grid_is_radial_eval(p, omega, l, rho=0.7):
    """Every value and fault of _channel_grid against radial_eval and radial_eval_deriv,
    and radial_wronskian of each point: _wronskian of the point's channels, or the fault of
    channel a, else of channel b.  Returns the points that fault in channel a and in b."""
    omega, l = np.asarray(omega, dtype=float), np.asarray(l)
    channels, faults = ads_modes._channel_grid(p, omega, l, rho)
    wronskians = ads_modes._wronskian(p, rho, *channels)
    for i, (w, li) in enumerate(zip(omega.tolist(), l.tolist())):
        wronskian = outcome(ads_modes.radial_wronskian, p, w, li, rho)
        if fault := faults[0].get(i) or faults[1].get(i):
            assert (type(wronskian), str(wronskian)) == (type(fault), str(fault))
        else:
            assert repr(wronskian) == repr(wronskians[i].item())
        for k, channel in enumerate("ab"):
            value = outcome(ads_modes.radial_eval, p, w, li, channel, rho)
            deriv = outcome(ads_modes.radial_eval_deriv, p, w, li, channel, rho)
            # the deriv raises the value's fault first, so it is the point's fault
            if isinstance(deriv, Exception):
                fault = faults[k][i]
                assert (type(fault), str(fault)) == (type(deriv), str(deriv))
            else:
                assert i not in faults[k]
            for got, ref in ((channels[2 * k][i], value), (channels[2 * k + 1][i], deriv)):
                if isinstance(ref, Exception):
                    assert math.isnan(got)
                else:
                    assert repr(got.item()) == repr(ref)
    return tuple(sorted(f) for f in faults)


@pytest.mark.parametrize("d, delta", [(4, 3.3), (6, 4.7)])
def test_even_d_channel_b_block_is_empty(d, delta):
    # channel b's c = 2 - l - d/2 is a pole at every point: its two blocks are empty
    omega, l = cli._sweep_points([-2.5, 0.0, 0.5, 3.25, 9.0], 5)
    fault_a, fault_b = assert_channel_grid_is_radial_eval(ads_modes.AdSParams(d, delta), omega, l)
    assert fault_a == [] and fault_b == list(range(omega.size))
    faults_b = ads_modes._channel_grid(ads_modes.AdSParams(d, delta), omega, l, 0.7)[1][1]
    for i, li in enumerate(l.tolist()):
        assert type(faults_b[i]) is specfun.PoleError
        c = 2.0 - (li + d / 2.0)
        assert str(faults_b[i]) == f"channel b series parameter 2 - gamma = {c} is a nonpositive integer (even d = {d})"


def test_faults_in_channel_a_only():
    # alpha_b = -1 and -2: channel b's two series terminate, channel a's sum to -inf
    p = ads_modes.AdSParams(3, 3000.5)
    fault_a, fault_b = assert_channel_grid_is_radial_eval(p, [3001.5, 3003.5, 3005.5], [0, 2, 4])
    assert fault_a == [0, 1, 2] and fault_b == []


def test_faults_in_channel_b_only():
    # channel b at omega = 80, l = 34 trips the not-decreasing check
    p = ads_modes.AdSParams(3, 45.1208390683)
    omega, l = cli._sweep_points([79.5, 80.0, 80.5], 36)
    fault_a, fault_b = assert_channel_grid_is_radial_eval(p, omega, l)
    assert fault_a == [] and fault_b == [37 + 34]


def test_value_and_derivative_series_both_fault():
    # at l = 0 channel a's value and derivative series both sum to inf (the point
    # reports the value's), and channel b's value terminates (alpha_b = 0) while its
    # derivative series sums to inf; omega = 5 overflows both channels
    p = ads_modes.AdSParams(3, 3001.5)
    a, b, c = ads_modes._channel(p, 3000.5, 0, "a")[1]
    assert isinstance(outcome(specfun.hyp2f1, a, b, c, math.sin(0.7) ** 2), specfun.ConvergenceError)
    assert isinstance(outcome(specfun.hyp2f1_dz, a, b, c, math.sin(0.7) ** 2), specfun.ConvergenceError)
    fault_a, fault_b = assert_channel_grid_is_radial_eval(p, [3000.5, 5.0], [0, 0])
    assert fault_a == fault_b == [0, 1]
    assert not isinstance(outcome(ads_modes.radial_eval, p, 3000.5, 0, "b", 0.7), Exception)


def assert_radial_grid_is_radial_basis(x, lmax):
    """Every value of _radial_grid is radial_basis's or radial_basis_deriv's by repr, and
    not finite where they raise.  Returns the types of the exceptions they raised."""
    x = np.asarray(x, dtype=float)
    raised = set()
    for kind, (values, derivs) in zip(("h1", "j", "n"), specfun._radial_grid(x, lmax)):
        assert values.shape == derivs.shape == (x.size, lmax + 1)
        for fn, grid in ((specfun.radial_basis, values), (specfun.radial_basis_deriv, derivs)):
            for i, xi in enumerate(x.tolist()):
                for l in range(lmax + 1):
                    ref = outcome(fn, kind, l, xi)
                    got = grid[i, l].item()
                    if isinstance(ref, Exception):
                        raised.add(type(ref))
                        assert not (math.isfinite(got.real) and math.isfinite(got.imag))
                    else:
                        assert repr(got) == repr(ref)
    return raised


@pytest.mark.parametrize(
    "x, lmax",
    [
        ([1e-3, 0.2, 1.0, 2.9, 3.99], 0),  # every (x, l) by the series
        ([1e-3, 0.2, 1.0, 2.9, 3.99], 9),
        ([14.0, 19.5, 33.3, 1e3, 1e60], 9),  # every (x, l) by the trig decomposition
        ([5.0, 17.25, 250.0], 0),
        ([2.5], 0),  # one point
        ([7.3], 12),
        ([], 4),
    ],
)
def test_radial_grid_on_one_side_of_the_crossover(x, lmax):
    assert_radial_grid_is_radial_basis(x, lmax)


def radial_points():
    """x on both sides of the series/trig crossover l + 4 and next to it, small and large
    x, and x where the float forms raise: the n series overflows (tiny x), a power of x
    overflows (x^2 for x > 1.4e154)."""
    xs = [1e-30, 1e-8, 0.01, 0.3, 1.0, 2.5, 7.3, 19.0, 33.3, 100.0, 1e3, 1e60, 1e120, 1e154, 3e154]
    for l in range(13):
        c = l + 4.0
        xs += [c, math.nextafter(c, 0.0), math.nextafter(c, math.inf), c - 0.1, c + 0.1, c - 1.0]
    return sorted(set(xs))


@pytest.mark.parametrize("lmax", [0, 1, 12])
def test_radial_grid_bit_equal_to_radial_basis(lmax):
    raised = assert_radial_grid_is_radial_basis(radial_points(), lmax)
    assert OverflowError in raised
    if lmax == 12:
        assert ZeroDivisionError in raised  # h1 at x = 1e-30: x^13 underflows to 0


def test_one_hyp2f1_pass_per_channel_grid(monkeypatch):
    calls = []
    grid = specfun._hyp2f1_grid
    monkeypatch.setattr(ads_modes, "_hyp2f1_grid", lambda *args: calls.append(len(args[0])) or grid(*args))
    for d in (3, 4):
        omega, l = cli._sweep_points([0.5, 1.5, 2.5], 4)
        ads_modes._channel_grid(ads_modes.AdSParams(d, 3.3), omega, l, 0.7)
    # odd d: four blocks of 15 points; even d: channel b's two blocks are empty
    assert calls == [60, 30]


def test_one_series_pass_per_radial_grid(monkeypatch):
    series, passes = [], []
    power_series, libm = specfun._power_series, specfun._libm

    def counted_series(term, *args):
        series.append(np.shape(term))
        return power_series(term, *args)

    def counted_libm(fn, *args, **kwargs):
        passes.append(fn.__name__)
        return libm(fn, *args, **kwargs)

    # every libm pass, whether called directly or through the operations table
    ops = {
        name: functools.partial(counted_libm, *op.args, **op.keywords)
        if isinstance(op, functools.partial) and op.func is libm
        else op
        for name, op in vars(specfun._ARRAY).items()
    }
    monkeypatch.setattr(specfun, "_power_series", counted_series)
    monkeypatch.setattr(specfun, "_libm", counted_libm)
    monkeypatch.setattr(specfun, "_ARRAY", SimpleNamespace(**ops))
    specfun._radial_grid(np.array([0.5, 3.0, 6.5, 12.0, 40.0]), 10)
    # (x, l) with x < l + 4: 11 + 11 + 8 + 2 + 0 pairs, each with a j and an n element
    assert series == [(2 * 32,)]
    # sin x, cos x and the table of powers of x once each
    assert [passes.count(name) for name in ("sin", "cos", "pow")] == [1, 1, 1]
