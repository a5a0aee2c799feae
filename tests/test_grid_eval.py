"""Grid evaluation against the scalar code it replaces in the sweeps.

candidate-sweep, flux-classify and candidate_jfactors evaluate whole
(omega, l) grids in array form.  The scalar functions stay as the
reference, row by row: a sweep row is a fault exactly where they raise
for it, every other row matches them bit for bit (compared through repr,
which tells -0.0 and every float apart), and stderr names the exception
of each faulted row once, in row order, so its first line is what the
point-by-point scan meets first.  candidate_jfactors still raises the
first fault.
"""

import json
import math

import numpy as np
import pytest

from adskg import ads_complex_structure as acs
from adskg import ads_modes, cli, flux, specfun
from adskg.specfun import ConvergenceError, PoleError


def scalar_or_error(fn, *args):
    try:
        return fn(*args)
    except (PoleError, ConvergenceError, OverflowError, ValueError) as exc:
        return exc


def assert_same(value, ref):
    """A grid value (or fault) equals the scalar's value (or raised exception)."""
    if isinstance(ref, Exception):
        assert type(value) is type(ref) and str(value) == str(ref)
    else:
        assert repr(value) == repr(ref)


def run_cli(argv, monkeypatch, capsys):
    """Exit code, the rows of the captured table (as tuples of Python cells) and stderr of
    one CLI run."""
    written = []
    monkeypatch.setattr(cli, "write_rows", lambda header, rows, *_: written.append((header, rows)))
    rc = cli.main(argv)
    return rc, written[0][1].tolist() if written else None, capsys.readouterr().err


class TestLogGammaGrid:
    def draws(self):
        rng = np.random.default_rng(5)
        poles = -np.arange(0.0, 60.0)
        offsets = np.array([0.0, 1e-12, -1e-12, 1e-10, -1e-10, 0.99e-9, -0.99e-9, 1.01e-9, -1.01e-9, 1e-6])
        return np.concatenate(
            [
                rng.uniform(0.5, 171.0, 300),
                rng.uniform(-60.0, 0.5, 300),  # the reflection branch
                (poles[:, None] + offsets).ravel(),  # exact and near poles
                [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0, 2.0, 1e-300, -1e-300, 1e-8],
            ]
        )

    def test_bit_equal_to_scalar(self):
        x = self.draws()
        log_abs, sign, pole = specfun._log_gamma_grid(x.reshape(2, -1))
        for xi, la, s, is_pole in zip(x.tolist(), log_abs.ravel().tolist(), sign.ravel().tolist(), pole.ravel().tolist()):
            ref = specfun.log_gamma_signed(xi)
            assert is_pole == ref.is_pole
            if not is_pole:
                assert (repr(la), s) == (repr(ref.log_abs), ref.sign)
        assert pole.sum() > 60 and (sign == -1).any()


# (a, b, c, z) where the terms grow past 1e6 times the partial sum after 35 steps
NOT_DECREASING = (-35.3663856686626, 60.5, -34.75, 0.5)


class TestHyp2F1Grid:
    def test_bit_equal_to_scalar(self):
        rng = np.random.default_rng(9)
        n = 400
        a = rng.uniform(-30.0, 30.0, n)
        b = rng.uniform(-30.0, 30.0, n)
        c = np.where(rng.random(n) < 0.8, rng.uniform(0.2, 30.0, n), rng.uniform(-30.0, 0.5, n))
        a[:40] = -rng.integers(0, 12, 40)  # terminating series
        c[40:60] = -rng.integers(0, 20, 20) + rng.choice([0.0, 1e-10, -1e-10], 20)  # poles
        a[60], b[60], c[60] = NOT_DECREASING[:3]
        for z in (0.0, 0.1, 0.41501642854987947, 0.5, 0.95):
            values, faults = specfun._hyp2f1_grid(a, b, c, z)
            for i in range(n):
                ref = scalar_or_error(specfun.hyp2f1, a[i].item(), b[i].item(), c[i].item(), z)
                got = faults[i] if i in faults else values[i].item()
                assert_same(got, ref)
                if i in faults:
                    assert math.isnan(values[i])
        assert "terms not decreasing after 35 steps" in str(
            specfun._hyp2f1_grid(a, b, c, 0.5)[1][60]
        )

    def test_term_cap(self, monkeypatch):
        # 1/(1 - z) at z = 0.9 needs about 260 terms; a terminating series needs 4
        monkeypatch.setattr(specfun, "_HYP_MAX_TERMS", 50)
        a, b, c = np.array([1.0, -3.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0])
        ref = scalar_or_error(specfun.hyp2f1, 1.0, 1.0, 1.0, 0.9)
        values, faults = specfun._hyp2f1_grid(a, b, c, 0.9)
        assert isinstance(ref, ConvergenceError) and "50-term cap" in str(ref)
        assert_same(faults[0], ref)
        assert math.isnan(values[0]) and list(faults) == [0]
        assert_same(values[1].item(), specfun.hyp2f1(-3.0, 1.0, 1.0, 0.9))

    def test_non_finite_term_is_a_fault_at_once(self):
        # a nan term stops its series at the first step; an infinite total is no value
        a, b, c = (np.array(v) for v in ([math.nan, 100.0, 0.5], [1.0, 100.0, 0.5], [1.0, 1.0, 0.5]))
        values, faults = specfun._hyp2f1_grid(a, b, c, 0.95)
        for i in range(3):
            ref = scalar_or_error(specfun.hyp2f1, a[i].item(), b[i].item(), c[i].item(), 0.95)
            assert_same(faults[i] if i in faults else values[i].item(), ref)
        assert str(faults[0]) == "hyp2f1(nan,1.0;1.0;0.95) sums to nan after 0 steps"
        assert str(faults[1]).startswith("hyp2f1(100.0,100.0;1.0;0.95) sums to inf after ")
        assert list(faults) == [0, 1]

    def test_domain(self):
        with pytest.raises(ValueError, match="restricted to z"):
            specfun._hyp2f1_grid(np.ones(2), np.ones(2), np.ones(2), 0.96)


def hankel_sum(l, x, start):
    total = 0.0
    for k in range((l - start) // 2 + 1):
        total += (-1.0) ** k * specfun.a_coeff(2 * k + start, l) / x ** (2 * k + start + 1)
    return total


def test_hankel_sums_bit_equal_to_a_coeff_sums():
    for l in range(25):
        for x in (0.7, 3.0, 41.5):
            assert repr(specfun.s_odd(l, x)) == repr(hankel_sum(l, x, 0))
            assert repr(specfun.s_even(l, x)) == repr(hankel_sum(l, x, 1))


def reference_sweep(p, omegas, lmax, which_list):
    """candidate-sweep's rows, the exceptions of its faulted rows and its worst residual,
    by the scalar loop: a row faults where its value or either boost residual raises."""
    rows, faults, worst = [], [], 0.0
    for which in which_list:
        jab = lambda w, ll: acs.candidate_jab(which, p, w, ll)
        for w in omegas:
            for l in range(lmax + 1):
                try:
                    val = jab(w, l)
                    rm, rp = acs.boost_recurrence_residual(p, jab, w, l)
                except (PoleError, OverflowError) as exc:
                    rows.append([which, w, l, math.nan, "fault", math.nan, math.nan])
                    faults.append(exc)
                    continue
                scale = max(abs(val), 1e-300)
                worst = max(worst, rm / scale, rp / scale)
                rows.append([which, w, l, float(val), int(math.copysign(1.0, val)), rm / scale, rp / scale])
    return rows, faults, worst


def fault_lines(faults):
    """stderr's numeric error lines: each distinct message once, in row order."""
    return "".join(f"numeric error: {m}\n" for m in dict.fromkeys(map(str, faults)))


def sweep_outcome(faults, worst, tolerance=1e-10):
    """(exit code, stderr) of a candidate-sweep with these faults and worst residual."""
    rc = cli.EXIT_NUMERIC if faults else cli.EXIT_OK if worst <= tolerance else cli.EXIT_INVARIANT
    return rc, fault_lines(faults) + f"worst relative boost residual: {worst:.3e}\n"


def as_text(rows):
    return [[repr(v) for v in row] for row in rows]


class TestCandidateSweep:
    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    @pytest.mark.parametrize("step", ["0.1", "0.25", "0.3", "0.07"])
    def test_rows_equal_scalar_loop(self, d, step, monkeypatch, capsys):
        delta = d / 2.0 + 0.37 + 0.11 * (d % 3)
        omega = f"-2.1:3:{step}"
        p = ads_modes.AdSParams(d, delta)
        omegas = cli.parse_omega_range(omega)
        for which in (1, 2, 3, 4):
            argv = ["candidate-sweep", "--d", str(d), "--delta", repr(delta), "--lmax", "4"]
            rc, rows, err = run_cli(argv + [f"--omega={omega}", "--candidates", str(which)], monkeypatch, capsys)
            ref_rows, faults, worst = reference_sweep(p, omegas, 4, [which])
            assert as_text(rows) == as_text(ref_rows)
            assert (rc, err) == sweep_outcome(faults, worst)

    def test_all_candidates_in_one_run(self, monkeypatch, capsys):
        p = ads_modes.AdSParams(5, 3.7)
        rc, rows, _ = run_cli(["candidate-sweep", "--d", "5", "--delta", "3.7", "--omega", "0.05:4:0.1"], monkeypatch, capsys)
        assert rc == cli.EXIT_OK
        assert as_text(rows) == as_text(reference_sweep(p, cli.parse_omega_range("0.05:4:0.1"), 3, [1, 2, 3, 4])[0])

    # integer Delta puts Gamma poles at several rows and neighbours; with
    # candidate 3 the first is row 0's (omega - 1, l + 1) neighbour, ahead
    # of row 1's own value
    @pytest.mark.parametrize("delta, which, omega", [(4.0, 2, "-3:3:0.5"), (3.0, 3, "0:4:0.5")])
    def test_pole_is_the_scalar_scans_first(self, delta, which, omega, monkeypatch, capsys):
        p = ads_modes.AdSParams(3, delta)
        ref_rows, faults, worst = reference_sweep(p, cli.parse_omega_range(omega), 3, [which])
        argv = ["candidate-sweep", "--delta", repr(delta), f"--omega={omega}", "--lmax", "3"]
        rc, rows, err = run_cli(argv + ["--candidates", str(which)], monkeypatch, capsys)
        assert as_text(rows) == as_text(ref_rows)
        assert (rc, err) == sweep_outcome(faults, worst)
        # the first line is the scalar scan's first fault
        assert err.startswith(f"numeric error: {faults[0]}\n")
        assert str(faults[0]).startswith("Gamma pole at argument ") and 0 < len(faults) < len(rows)


def test_candidate_jfactors_table_bit_equal():
    for d, delta, which in ((3, 4.37, 1), (4, 2.93, 2), (5, 3.37, 3), (6, 4.61, 4)):
        p = ads_modes.AdSParams(d, delta)
        grid = [(s * w, l) for w in np.arange(0.5, 6.0, 0.3).tolist() for s in (1.0, -1.0) for l in range(7)]
        ref = {key: acs.complete_nondiagonal(acs.candidate_jab(which, p, *key)) for key in grid}
        table = acs.candidate_jfactors(which, p, grid).table
        assert table.keys() == ref.keys()
        assert all(repr(table[key]) == repr(ref[key]) for key in ref)


def test_candidate_jfactors_pole_is_the_first_key():
    p = ads_modes.AdSParams(3, 4.0)
    grid = [(w, l) for w in (2.5, -1.5, 1.0, 0.0) for l in range(3)]
    first = next(e for key in grid if isinstance(e := scalar_or_error(acs.candidate_jab, 1, p, *key), Exception))
    with pytest.raises(PoleError) as exc:
        acs.candidate_jfactors(1, p, grid)
    assert str(exc.value) == str(first)


def scalar_flux_row(p, kind, w, l, p_r):
    """The DirectionVerdict of one flux-classify row (cli.FLUX_ROWS name kind) by the
    scalar functions, or the exception they raise.  A combined row takes channel a's
    fault before channel b's; with a finite flux it faults where radial_wronskian is off
    by more than 1e-8 relative, since its flux then is too."""
    try:
        if kind in ("h1", "j", "n"):
            f = specfun.radial_basis(kind, l, p_r * 6.0)
            df = p_r * specfun.radial_basis_deriv(kind, l, p_r * 6.0)
            return flux.mode_flux("minkowski", {"d": p.d}, w, l, (f, df), rho=6.0)
        if kind == "combined":
            channels = [f(p, w, l, c, 0.7) for c in "ab" for f in (ads_modes.radial_eval, ads_modes.radial_eval_deriv)]
            try:
                fa, dfa, _ = flux.ads_combined_mode(p, w, l, 0.7)
            except ArithmeticError:
                return combined_flux_fault(p, w, l, channels)
            verdict = flux.mode_flux("ads", p, w, l, (fa, dfa), rho=0.7)
            residual = abs(ads_modes.radial_wronskian(p, w, l, 0.7) / -(2.0 * l + p.d - 2.0) - 1.0)
            return verdict if residual <= 1e-8 else cli._wronskian_fault(w, l, residual)
        channel = kind[-1]
        fr = ads_modes.radial_eval(p, w, l, channel, 0.7)
        dfr = ads_modes.radial_eval_deriv(p, w, l, channel, 0.7)
        return flux.mode_flux("ads", p, w, l, (fr, dfr), rho=0.7)
    except ArithmeticError as exc:
        return exc


def combined_flux_fault(p, w, l, channels):
    """The fault of a combined row whose float form raises on its own, past its channels
    (next to the shell p_r^(l + 1) is so small that f_b overflows, an OverflowError): the row names
    its flux, which the array form gives."""
    at = np.array([w]), np.array([l])
    fa, dfa, _ = flux._combined_mode(p, *at, tuple(np.array([c]) for c in channels))
    value = flux.mode_flux("ads", p, *at, (fa, dfa), rho=0.7).flux_per_time.item()
    return flux._flux_fault("ads", w, l, value)


def reference_flux(p, omegas, lmax):
    """flux-classify's rows and the exceptions of its faulted rows, by the scalar loop."""
    rows, faults = [], []
    mass = math.sqrt(abs(p.Delta * (p.Delta - p.d))) / p.R
    for w in omegas:
        for l in range(lmax + 1):
            p_r = math.sqrt(w * w - mass * mass) if w * w > mass * mass else None
            for spacetime, kind in cli.FLUX_ROWS[0 if p_r else 4 :]:
                v = scalar_flux_row(p, kind, w, l, p_r)
                if isinstance(v, Exception):
                    rows.append([spacetime, kind, w, l, math.nan, "fault"])
                    faults.append(v)
                else:
                    rows.append([spacetime, kind, w, l, v.flux_per_time, v.verdict])
    return rows, faults


def assert_flux_run_is_the_scalar_loops(argv, monkeypatch, capsys):
    """Run flux-classify: every row, the exit code and stderr are the scalar loop's.
    Returns the reference rows and the exceptions of the faulted ones."""
    tokens = [token for arg in argv for token in arg.split("=", 1)]
    settings = dict(zip(tokens[::2], tokens[1::2]))
    p = ads_modes.AdSParams(int(settings.get("--d", 3)), float(settings.get("--delta", 4.2)))
    omegas = [w for w in cli.parse_omega_range(settings["--omega"]) if w != 0.0]
    ref_rows, faults = reference_flux(p, omegas, int(settings.get("--lmax", 3)))
    rc, rows, err = run_cli(["flux-classify"] + argv, monkeypatch, capsys)
    assert as_text(rows) == as_text(ref_rows)
    assert (rc, err) == (cli.EXIT_NUMERIC if faults else cli.EXIT_OK, fault_lines(faults))
    return ref_rows, faults


class TestFluxClassify:
    @pytest.mark.parametrize("d, delta", [(3, 4.2), (3, 1.7), (5, 3.1), (5, 6.45), (7, 3.5)])
    def test_rows_equal_scalar_loop(self, d, delta, monkeypatch, capsys):
        # the grids straddle the mass shell sqrt|Delta (Delta - d)|
        argv = ["--d", str(d), "--delta", repr(delta), "--omega=-4:9:0.35", "--lmax", "6"]
        ref, faults = assert_flux_run_is_the_scalar_loops(argv, monkeypatch, capsys)
        assert not faults
        assert {row[1] for row in ref} == {"h1", "j", "n", "combined", "channel_a", "channel_b"}

    @pytest.mark.parametrize("d, omega", [(4, "0.5:3:0.5"), (6, "0.1:0.3:0.1"), (6, "9:10:0.5")])
    def test_even_d_channel_b_pole(self, d, omega, monkeypatch, capsys):
        _, faults = assert_flux_run_is_the_scalar_loops(["--d", str(d), "--omega", omega], monkeypatch, capsys)
        # every point's channel_b and combined rows fault; the rest have their values
        assert all(isinstance(exc, PoleError) for exc in faults)
        assert f"is a nonpositive integer (even d = {d})" in str(faults[0])

    def test_not_decreasing_series_names_its_point(self, monkeypatch, capsys):
        # channel b at omega = 80, l = 34 trips the not-decreasing check
        p = ads_modes.AdSParams(3, 45.1208390683)
        ref = scalar_or_error(ads_modes.radial_eval, p, 80.0, 34, "b", 0.7)
        assert isinstance(ref, ConvergenceError) and "not decreasing" in str(ref)
        argv = ["--d", "3", "--delta", "45.1208390683", "--omega", "79:81:0.5", "--lmax", "36"]
        _, faults = assert_flux_run_is_the_scalar_loops(argv, monkeypatch, capsys)
        # the combined and channel_b rows; other combined rows fault on their Wronskian
        named = [str(exc) for exc in faults if not str(exc).startswith("ads combined flux at")]
        assert named == [str(ref)] * 2
        omega, l = cli._sweep_points(cli.parse_omega_range("79:81:0.5"), 36)
        _, (faults_a, faults_b) = ads_modes._channel_grid(p, omega, l, 0.7)
        point = int(np.flatnonzero((omega == 80.0) & (l == 34))[0])
        assert not faults_a and list(faults_b) == [point] and str(faults_b[point]) == str(ref)

    def test_channel_grid_bit_equal_to_radial_eval(self):
        p = ads_modes.AdSParams(5, 3.3)
        omega, l = cli._sweep_points([-7.5, -0.3, 0.0, 1.1, 12.25], 8)
        channels, faults = ads_modes._channel_grid(p, omega, l, 1.2)
        assert faults == ({}, {})
        for i, (w, ll) in enumerate(zip(omega.tolist(), l.tolist())):
            ref = [
                f(p, w, ll, channel, 1.2)
                for channel in ("a", "b")
                for f in (ads_modes.radial_eval, ads_modes.radial_eval_deriv)
            ]
            assert [repr(c[i].item()) for c in channels] == [repr(v) for v in ref]


@pytest.fixture(scope="module")
def roadmap_flux_rows():
    """The scalar loop's rows of the ROADMAP grid flux-classify --omega 1:20:0.1 --lmax 10."""
    rows, faults = reference_flux(ads_modes.AdSParams(3, 4.2), cli.parse_omega_range("1:20:0.1"), 10)
    assert not faults
    return rows


HEADER = ["spacetime", "kind", "omega", "l", "flux_per_time", "verdict"]


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_roadmap_flux_grid_file_equals_scalar_loop(out_format, roadmap_flux_rows, tmp_path):
    out = tmp_path / f"flux.{out_format}"
    argv = ["flux-classify", "--d", "3", "--omega", "1:20:0.1", "--lmax", "10"]
    assert cli.main(argv + ["--format", out_format, "--out", str(out)]) == cli.EXIT_OK
    if out_format == "csv":
        # each cell spelled by fmt, the per-cell rule
        lines = [",".join(HEADER)] + [",".join(cli.fmt(v) for v in row) for row in roadmap_flux_rows]
        expected = "\n".join(lines) + "\n"
    else:
        expected = json.dumps([dict(zip(HEADER, row)) for row in roadmap_flux_rows], indent=1, sort_keys=True) + "\n"
    text = out.read_text()
    # line lists: a failing comparison reports the first differing line at once
    assert text.endswith("\n") and text.splitlines() == expected.splitlines()
    assert len(roadmap_flux_rows) == 13 * 11 * 2 + 178 * 11 * 6  # 13 omegas below the shell


def test_radial_grid_n_series_overflow_is_a_fault_of_j_and_n():
    # _j_n sums both series below the crossover, so radial_basis("j") raises n's overflow
    x = np.array([1e-30, 0.5])
    for kind in ("j", "n"):
        with pytest.raises(OverflowError, match="n_12 overflows at x = 1e-30"):
            specfun.radial_basis(kind, 12, 1e-30)
    _, j, n = (values[:, 12] for values, _ in specfun._radial_grid(x, 12))
    assert np.isnan(j[0]) and np.isnan(n[0])
    assert repr(j[1].item()) == repr(specfun.radial_basis("j", 12, 0.5))
    assert repr(n[1].item()) == repr(specfun.radial_basis("n", 12, 0.5))


# Each grid faults; the first fault is, in turn: channel b's pole at a point above the
# shell (after its Minkowski rows), channel a's value series summing to -inf at l = 0,
# a nan combined flux at l = 21 next to the shell, an x^2 overflow in the l = 0 h1
# derivative (a Minkowski row first), the combined row's Wronskian residual at
# omega = 200, l = 0, ahead of an a_k(l + 1/2) beyond the float range from l = 86 on
# (h1 value), and the combined rows' Wronskian residuals from omega = 36, l = 1 on.
FAULT_GRIDS = [
    ["--d", "4", "--omega", "2:3:0.5"],
    ["--omega", "3000:3001:1"],
    ["--d", "3", "--delta", "4", "--omega", "2.000000000001:2.000000000001:1", "--lmax", "60"],
    ["--omega", "1e154:1e154:1"],
    ["--omega", "200:201:0.5", "--lmax", "90"],
    ["--omega", "34:42:1", "--lmax", "10"],
]


@pytest.mark.parametrize("argv", FAULT_GRIDS, ids=lambda argv: " ".join(argv))
def test_fault_is_the_scalar_loops_first(argv, monkeypatch, capsys):
    _, faults = assert_flux_run_is_the_scalar_loops(argv, monkeypatch, capsys)
    assert faults


@pytest.mark.parametrize("omega, faulted", [("20:60:1", 239), ("20:120:1", 899)])
def test_combined_row_off_its_closed_form_faults(omega, faulted, monkeypatch, capsys):
    # above omega ~ 35 the channels' Wronskian drifts from -(2l + d - 2), and the combined
    # flux with it: those rows fault, and every other one is within 1e-8 of 4 omega / p_r
    argv = ["flux-classify", "--omega", omega, "--lmax", "10"]
    rc, rows, err = run_cli(argv, monkeypatch, capsys)
    combined = [row for row in rows if row[1] == "combined"]
    clean = [(w, value) for _, _, w, _, value, verdict in combined if verdict != "fault"]
    assert rc == cli.EXIT_NUMERIC and len(combined) - len(clean) == faulted
    assert all(line.startswith("numeric error: ads combined flux at") for line in err.splitlines())
    for w, value in clean:
        want = 4.0 * w / math.sqrt(w * w - 4.2 * (4.2 - 3.0))
        assert abs(value - want) <= 1e-8 * want


def test_n_series_overflow_point_fails_as_the_scalar_loop():
    # where the n series overflows, |h1| = |j + i n| is as large, so the h1 row's flux
    # overflows: all three Minkowski rows fault, h1 naming its flux and j and n the series
    p = ads_modes.AdSParams(3, 4.0)
    mass = 2.0
    w = math.sqrt(mass * mass + (1e-3 / 6.0) ** 2)
    omega, l = cli._sweep_points([w], 120)
    channels, _ = ads_modes._channel_grid(p, omega, l, 0.7)
    p_r = np.sqrt(omega * omega - mass * mass)
    x = p_r[0] * 6.0
    n_overflows = [ll for ll in range(121) if isinstance(scalar_or_error(specfun.radial_basis, "n", ll, x), OverflowError)]
    assert n_overflows
    fluxes, verdicts = cli._flux_grid(p, omega, l, 120, p_r, channels)
    first = n_overflows[0]
    refs = []
    for kind, name in enumerate(("h1", "j", "n")):
        refs.append(scalar_flux_row(p, name, w, first, p_r[first].item()))
        assert verdicts[first, kind] == "fault"
        got = cli._row_fault(kind, w, first, fluxes[first, kind].item(), p_r[first].item(), None, None, None)
        assert_same(got, refs[-1])
    assert str(refs[0]).startswith(f"minkowski flux at omega = {w}, l = {first} is")
    assert str(refs[1]) == str(refs[2]) == f"n_{first} overflows at x = {x}"


def test_mode_flux_standing_threshold_for_floats_and_arrays():
    # f = 1, f' = 1 + i eps at omega = r = 1: flux 2 eps against the scale 1, standing
    # at and below STANDING_TOL = 1e-12 only
    eps = [5e-13, 2e-12, -2e-12, 0.0, math.inf]
    omega, l = np.ones(len(eps)), np.zeros(len(eps), dtype=int)
    f, df = np.ones(len(eps)), np.array([complex(1.0, e) for e in eps])
    grid = flux.mode_flux("minkowski", {"d": 3}, omega, l, (f, df), rho=1.0)
    assert grid.verdict.tolist() == ["standing", "outgoing", "incoming", "standing", "fault"]
    for i, e in enumerate(eps):
        ref = scalar_or_error(flux.mode_flux, "minkowski", {"d": 3}, 1.0, 0, (1.0, complex(1.0, e)), 1.0)
        if isinstance(ref, Exception):
            assert isinstance(ref, ConvergenceError) and grid.verdict[i] == "fault"
        else:
            assert (ref.verdict, repr(ref.flux_per_time)) == (grid.verdict[i], repr(grid.flux_per_time[i].item()))


def test_candidate_grids_index_path_is_candidate_jab():
    # the Gamma arguments go by their index into the sorted distinct arguments: a 2-D
    # layout with repeated points, sides with tied arguments (omega = 0 makes alpha =
    # beta), pole omegas at an integer Delta, overflowing ratios, and +-inf and nan
    # omegas read per point exactly candidate_jab's value or first fault
    p = ads_modes.AdSParams(3, 4.0)
    row = [0.0, 0.5, -0.5, 1.0, 2.0, -3.0, 0.5, 100000.25, math.inf, -math.inf, math.nan, 0.0]
    omega = np.array([row, row[::-1], row[3:] + row[:3]])
    l = np.array([[0, 1, 2, 3, 0, 1, 2, 50, 0, 1, 2, 3], [3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0], [0] * 12])
    l[2, 4] = 50  # the 100000.25 of the last row
    order = [3, 1, 4, 2]
    seen = set()
    for which, (values, faults) in zip(order, acs._candidate_grids(order, p, omega, l)):
        assert values.shape == omega.shape
        for i, (w, li) in enumerate(zip(omega.ravel().tolist(), l.ravel().tolist())):
            ref = scalar_or_error(acs.candidate_jab, which, p, w, li)
            assert_same(faults[i] if i in faults else values.item(i), ref)
            seen.add(type(ref).__name__)
    assert seen == {"float", "PoleError", "ValueError", "OverflowError"}


ROADMAP_SWEEP = ["candidate-sweep", "--d", "3", "--omega", "0.05:20:0.1", "--lmax", "10"]
SWEEP_HEADER = ["candidate", "omega", "l", "jab", "sign_jab", "res_minus", "res_plus"]


@pytest.fixture(scope="module")
def roadmap_sweep():
    """The scalar loop's rows and worst residual of the ROADMAP grid, all four candidates."""
    omegas = cli.parse_omega_range("0.05:20:0.1")
    rows, faults, worst = reference_sweep(ads_modes.AdSParams(3, 4.2), omegas, 10, [1, 2, 3, 4])
    assert not faults
    return rows, worst


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_roadmap_sweep_file_equals_scalar_loop(out_format, roadmap_sweep, tmp_path, capsys):
    rows, worst = roadmap_sweep
    out = tmp_path / f"sweep.{out_format}"
    assert cli.main(ROADMAP_SWEEP + ["--format", out_format, "--out", str(out)]) == cli.EXIT_OK
    if out_format == "csv":
        lines = [",".join(SWEEP_HEADER)] + [",".join(cli.fmt(v) for v in row) for row in rows]
        expected = "\n".join(lines) + "\n"
    else:
        expected = json.dumps([dict(zip(SWEEP_HEADER, row)) for row in rows], indent=1, sort_keys=True) + "\n"
    text = out.read_text()
    assert text.endswith("\n") and text.splitlines() == expected.splitlines()
    assert len(rows) == 4 * 200 * 11
    assert capsys.readouterr().err == f"worst relative boost residual: {worst:.3e}\n"


# d = 3, Delta = 4.2: candidate 1 has no pole on this grid, candidates 2 and 4 each have
# one, at different points and arguments
SHARED_POLE_GRID = ["--delta", "4.2", "--omega", "1.3:5.3:0.5", "--lmax", "2"]


@pytest.mark.parametrize("order", [[1], [1, 2], [2, 1], [2, 4], [4, 2], [1, 4, 2], [4, 4, 1]])
def test_shared_gamma_pass_faults_in_candidate_order(order, monkeypatch, capsys):
    # the candidates share one Gamma table, yet each meets only its own arguments' faults,
    # and stderr names them in --candidates order
    p = ads_modes.AdSParams(3, 4.2)
    omegas = cli.parse_omega_range("1.3:5.3:0.5")
    argv = ["candidate-sweep"] + SHARED_POLE_GRID + ["--candidates"] + [str(c) for c in order]
    rc, rows, err = run_cli(argv, monkeypatch, capsys)
    ref_rows, faults, worst = reference_sweep(p, omegas, 2, order)
    assert as_text(rows) == as_text(ref_rows)
    assert (rc, err) == sweep_outcome(faults, worst)
    assert all(isinstance(exc, PoleError) for exc in faults)
    assert (rc == cli.EXIT_OK) == (order == [1])
    first = {str(reference_sweep(p, omegas, 2, [c])[1][0]) for c in (2, 4)}
    assert len(first) == 2  # candidates 2 and 4 fail first with different messages


def test_exp_overflow_is_the_scalar_loops_first(monkeypatch, capsys):
    # at omega = 1e5 the Gamma ratios pass the float range from l = 44 on: each candidate
    # faults with math.exp's OverflowError from row 43 on (its neighbours), unless a pole
    # comes first
    firsts = set()
    grids = [["--omega", "1e5:1e5:1"], ["--delta", "4", "--omega", "99999:100000:0.5"]]
    for extra in (grid + ["--lmax", "50"] for grid in grids):
        settings = dict(zip(extra[::2], extra[1::2]))
        p = ads_modes.AdSParams(3, float(settings.get("--delta", 4.2)))
        for order in ([1, 2, 3, 4], [3, 1]):
            ref_rows, faults, worst = reference_sweep(p, cli.parse_omega_range(settings["--omega"]), 50, order)
            argv = ["candidate-sweep"] + extra + ["--candidates"] + [str(c) for c in order]
            rc, rows, err = run_cli(argv, monkeypatch, capsys)
            assert as_text(rows) == as_text(ref_rows)
            assert (rc, err) == sweep_outcome(faults, worst)
            firsts.add(str(faults[0]))
    assert "math range error" in firsts and any(m.startswith("Gamma pole") for m in firsts)


def test_faulted_sweep_beyond_tolerance_exits_numeric(monkeypatch, capsys):
    # the clean rows at omega = 1e5 miss the boost recurrences by far more than the
    # tolerance, and the faulted ones still decide the exit code
    argv = ["candidate-sweep", "--omega", "1e5:1e5:1", "--lmax", "50", "--candidates", "1"]
    rc, rows, err = run_cli(argv, monkeypatch, capsys)
    worst = float(err.rsplit(": ", 1)[1])
    assert rc == cli.EXIT_NUMERIC and worst > 1e-10
    assert err.startswith("numeric error: math range error\n")
    assert 0 < [row[4] for row in rows].count("fault") < len(rows) == 51
