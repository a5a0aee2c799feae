import argparse
import csv
import io
import json
import math
import pathlib
import shlex
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import adskg
from adskg import ads_modes, cli, harmonics, specfun
from adskg._invariants import INVARIANTS
from adskg.ads_modes import random_real_mode_vector


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = README.parent / "perfbench"

# the options each subcommand reads, besides --config
READS = {
    "selfcheck": {"quadrature_order"},
    "harmonics-table": {"d", "lmax", "format", "out", "table"},
    "jfactor-audit": {
        "d", "delta", "radius", "omega", "lmax", "candidates", "format", "out",
        "tolerance", "preset", "jfactors", "modes",
    },
    "candidate-sweep": {"d", "delta", "omega", "lmax", "candidates", "format", "out", "tolerance"},
    "flux-classify": {"d", "delta", "radius", "omega", "lmax", "format", "out"},
}


class TestHelpers:
    def test_parse_omega_range(self):
        assert cli.parse_omega_range("0:3:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        assert cli.parse_omega_range("1:1:1") == [1.0]

    def test_parse_omega_rejects_garbage(self):
        with pytest.raises(ValueError):
            cli.parse_omega_range("nope")
        with pytest.raises(ValueError):
            cli.parse_omega_range("3:1:0.5")

    # the last has finite values but (stop - start) / step = inf points
    @pytest.mark.parametrize("text", ["0:inf:1", "nan:1:0.5", "0:1:nan", "-inf:1:1", "0:1:inf", "0:1e300:1e-300"])
    def test_non_finite_omega_is_a_config_error(self, text, capsys):
        assert cli.main(["candidate-sweep", f"--omega={text}"]) == cli.EXIT_CONFIG
        message = "--omega needs finite values with step > 0 and stop >= start"
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_omega_point_count_is_bounded_before_the_grid_is_built(self):
        # one point over the bound is refused before any point is built (under 10 kB
        # traced, where the grid would take megabytes), so a grid of 10^18 points is
        # refused as fast; a count at the bound is accepted
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as exc:
                cli.parse_omega_range("0:1000000:1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == "--omega gives 1000001 points, more than 1000000"
        assert peak < 10_000
        grid = cli.parse_omega_range("0:999999:1")
        assert len(grid) == cli.OMEGA_POINTS_MAX and grid[-1] == 999999.0

    def test_symmetric_grid(self):
        assert cli.symmetric_grid([0.0, 1.0]) == [-1.0, 0.0, 1.0]

    def test_fmt_is_17_digits(self):
        assert cli.fmt(math.pi) == f"{math.pi:.17g}"


class TestSelfcheck:
    def test_clean_build_exits_zero(self, capsys):
        assert cli.main(["selfcheck"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        # one line per invariant, with its worst residual and its tolerance
        assert len(lines) == len(INVARIANTS) + 1
        for line, entry in zip(lines, INVARIANTS):
            assert line.startswith(f"[pass] {entry.name}: residual ")
            assert line.endswith(f", tol {entry.tol:g}")
        assert lines[-1] == "14/14 checks passed"

    def test_evanescent_check_catches_a_sign_error(self, monkeypatch, capsys):
        # j_evan computed with the oscillating sign is j_l, not i_l: still real
        series_j = specfun._series_j
        monkeypatch.setattr(specfun, "_series_j", lambda l, x, sign=-1.0: series_j(l, x))
        assert cli.main(["selfcheck"]) == cli.EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "[fail] evanescent series real: residual " in out
        assert "13/14 checks passed" in out

    def test_nan_residual_fails(self, monkeypatch, capsys):
        radial_basis = specfun.radial_basis

        def nan_basis(kind, l, x):
            nan = kind in ("h1", "j", "n")
            return complex(math.nan, math.nan) if nan else radial_basis(kind, l, x)

        monkeypatch.setattr(specfun, "radial_basis", nan_basis)
        # nan at one rho only: a max that skips nan would pass the entry
        wronskian = ads_modes.radial_wronskian
        nan_at_1 = lambda p, omega, l, rho: math.nan if rho == 1.0 else wronskian(p, omega, l, rho)
        monkeypatch.setattr(ads_modes, "radial_wronskian", nan_at_1)
        nan_gram = lambda d, idx, order: np.full([len(idx)] * 2, np.nan)
        monkeypatch.setattr(harmonics, "harmonic_gram", nan_gram)
        assert cli.main(["selfcheck"]) == cli.EXIT_INVARIANT
        out = capsys.readouterr().out
        for name in ("hankel envelope", "harmonic orthonormality", "radial wronskian"):
            assert f"[fail] {name}: residual nan, tol " in out

    def test_meets_the_benchmark_oracle_at_each_order(self, monkeypatch, capsys):
        # perfbench runs selfcheck at generate.SELFCHECK_ORDERS and checks it with
        # oracles.check_selfcheck: one line per entry, then n/n
        monkeypatch.syspath_prepend(PERFBENCH)
        import generate
        import oracles

        for order in (4, *generate.SELFCHECK_ORDERS):
            rc = cli.main(["selfcheck", "--quadrature-order", str(order)])
            out = SimpleNamespace(rc=rc, stdout=capsys.readouterr().out)
            assert rc == cli.EXIT_OK, out.stdout
            assert oracles.check_selfcheck(adskg, None, out, None) == (len(INVARIANTS), None)


class TestCandidateSweep:
    def test_residual_column_small(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(
            [
                "candidate-sweep",
                "--d", "3",
                "--delta", "4.2",
                "--candidates", "1",
                "--omega", "0:3:0.5",
                "--lmax", "3",
                "--out", str(out),
            ]
        )
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        i_rm = header.index("res_minus")
        i_rp = header.index("res_plus")
        assert len(lines) == 1 + 7 * 4
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[i_rm]) <= 1e-10
            assert float(cells[i_rp]) <= 1e-10

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["candidate-sweep", "--omega", "0:2:0.5", "--lmax", "2"]
        cli.main(argv + ["--out", str(a)])
        cli.main(argv + ["--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        cli.main(["candidate-sweep", "--omega", "0:1:0.5", "--lmax", "1",
                  "--format", "json", "--out", str(out)])
        rows = json.loads(out.read_text())
        assert {"candidate", "omega", "l", "jab"} <= set(rows[0])


class TestJfactorAudit:
    def test_diagonal_preset_positivity_all_false(self, tmp_path):
        out = tmp_path / "audit.csv"
        rc = cli.main(
            ["jfactor-audit", "--preset", "diagonal", "--omega", "0.5:2:0.5",
             "--lmax", "2", "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        i_pos = header.index("positive")
        i_case = header.index("case")
        assert len(lines) > 1
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[i_pos] == "False"
            assert cells[i_case] == "diagonal"

    def test_diagonal_preset_has_no_zero_frequency(self, tmp_path):
        # the sign split of the diagonal J has no value at omega = 0, so its grid skips it
        out = tmp_path / "audit.json"
        argv = ["jfactor-audit", "--preset", "diagonal", "--omega", "0:2:0.5", "--lmax", "1"]
        assert cli.main(argv + ["--format", "json", "--out", str(out)]) == cli.EXIT_OK
        rows = json.loads(out.read_text())
        omegas = [-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0]
        assert [(row["omega"], row["l"]) for row in rows] == [(w, l) for w in omegas for l in (0, 1)]

    def test_candidate_preset_runs(self, tmp_path):
        out = tmp_path / "audit.csv"
        rc = cli.main(
            ["jfactor-audit", "--preset", "candidate", "--candidates", "1",
             "--omega", "0.5:1.5:0.5", "--lmax", "1", "--out", str(out)]
        )
        assert rc == cli.EXIT_OK

    def test_modes_input(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        phi = random_real_mode_vector(3, [0.5, 1.5], 1, rng)
        modes = tmp_path / "modes.json"
        modes.write_text(phi.to_json())
        out = tmp_path / "audit.csv"
        rc = cli.main(
            ["jfactor-audit", "--preset", "candidate", "--omega", "0.5:1.5:0.5",
             "--lmax", "1", "--modes", str(modes), "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        assert "g_rho" in capsys.readouterr().err

    def test_jfactors_file_input(self, tmp_path):
        from adskg.ads_complex_structure import JFactors, complete_nondiagonal

        grid = [(w, l) for w in (0.5, 1.0, -0.5, -1.0) for l in (0, 1)]
        jf = JFactors({k: complete_nondiagonal(-1.5) for k in grid})
        jf_path = tmp_path / "jf.json"
        jf_path.write_text(jf.to_json())
        out = tmp_path / "audit.csv"
        rc = cli.main(
            ["jfactor-audit", "--jfactors", str(jf_path), "--omega", "0.5:1:0.5",
             "--lmax", "1", "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        i_pos = header.index("positive")
        assert all(line.split(",")[i_pos] == "True" for line in lines[1:])

    def test_json_rows_equal_csv_rows(self, tmp_path):
        argv = ["jfactor-audit", "--omega", "0:1.5:0.5", "--lmax", "2", "--out"]
        assert cli.main(argv + [str(tmp_path / "a.csv")]) == cli.EXIT_OK
        assert cli.main(argv + [str(tmp_path / "a.json"), "--format", "json"]) == cli.EXIT_OK
        with open(tmp_path / "a.csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        json_rows = json.loads((tmp_path / "a.json").read_text())
        assert len(json_rows) == len(csv_rows) == 21
        for j_row, c_row in zip(json_rows, csv_rows):
            assert {key: cli.fmt(v) for key, v in j_row.items()} == c_row
            assert complex(j_row["jab"]) == complex(c_row["jab"])
            assert isinstance(j_row["positive"], bool)


def _malformed(entry, field, case):
    if case == "missing":
        del entry[field]
    else:
        entry[field] = {"one": [0.5], "three": [0.5, 0.25, 1.0], "string": "0.5+0.25j"}[case]


class TestMalformedFiles:
    """A bad entry in a --modes or --jfactors file is a config error naming it."""

    ARGV = ["jfactor-audit", "--omega", "0.5:1.5:0.5", "--lmax", "1"]

    @pytest.mark.parametrize(
        "field, case",
        [
            ("a", "one"),
            ("b", "three"),
            ("a", "string"),
            ("m", "missing"),
            ("levels", "string"),
            ("omega", "one"),
        ],
    )
    def test_modes(self, tmp_path, capsys, field, case):
        phi = random_real_mode_vector(3, [0.5, 1.5], 1, np.random.default_rng(0))
        data = json.loads(phi.to_json())
        _malformed(data["entries"][5], field, case)
        path = tmp_path / "modes.json"
        path.write_text(json.dumps(data))
        out = str(tmp_path / "audit.csv")
        assert cli.main(self.ARGV + ["--modes", str(path), "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "entry 5" in err and repr(field) in err

    @pytest.mark.parametrize(
        "field, case",
        [("jab", "one"), ("jbb", "three"), ("jaa", "string"), ("l", "missing"), ("l", "string")],
    )
    def test_jfactors(self, tmp_path, capsys, field, case):
        from adskg.ads_complex_structure import candidate_jfactors
        from adskg.ads_modes import AdSParams

        grid = [(w, l) for w in (-1.5, -1.0, -0.5, 0.5, 1.0, 1.5) for l in (0, 1)]
        rows = json.loads(candidate_jfactors(1, AdSParams(3, 4.2), grid).to_json())
        _malformed(rows[3], field, case)
        path = tmp_path / "jf.json"
        path.write_text(json.dumps(rows))
        out = str(tmp_path / "audit.csv")
        assert cli.main(self.ARGV + ["--jfactors", str(path), "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "entry 3" in err and repr(field) in err

    def test_nan_omega_key(self, tmp_path, capsys):
        from adskg.ads_complex_structure import diagonal_jfactors

        rows = json.loads(diagonal_jfactors([(w, l) for w in (-1.0, -0.5, 0.5, 1.0) for l in (0, 1)]).to_json())
        rows[2]["omega"] = math.nan
        path = tmp_path / "jf.json"
        path.write_text(json.dumps(rows))
        assert "NaN" in path.read_text()
        assert cli.main(self.ARGV + ["--jfactors", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: j-factor key (omega, l) = (nan, 0) has a non-finite omega\n"

    def test_non_integer_l_key(self, tmp_path, capsys):
        from adskg.ads_complex_structure import diagonal_jfactors

        rows = json.loads(diagonal_jfactors([(w, l) for w in (-1.0, -0.5, 0.5, 1.0) for l in (0, 1)]).to_json())
        rows[2]["l"] = 0.5
        path = tmp_path / "jf.json"
        path.write_text(json.dumps(rows))
        assert cli.main(self.ARGV + ["--jfactors", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: j-factor key (omega, l) = (-0.5, 0.5) has a non-integer l\n"

    def test_repeated_mode_key(self, tmp_path, capsys):
        # a dict of the entries would keep the second (a = 2) and drop the first
        entry = {"omega": 0.5, "levels": [0], "m": 0, "a": [1.0, 0.0], "b": [0.0, 0.0]}
        data = {"freq_grid": [{"omega": 0.5, "weight": 1.0}], "entries": [entry, {**entry, "a": [2.0, 0.0]}]}
        path = tmp_path / "modes.json"
        path.write_text(json.dumps(data))
        out = str(tmp_path / "audit.csv")
        assert cli.main(self.ARGV + ["--modes", str(path), "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err  # after the audit's own line
        assert err.endswith("config error: entries 0 and 1 repeat a key: (0.5, (0,), 0) and (0.5, (0,), 0)\n")

    def test_repeated_jfactor_key(self, tmp_path, capsys):
        # omega -0.0 equals 0.0, so the two entries at l = 0 are one key
        from adskg.ads_complex_structure import diagonal_jfactors

        rows = json.loads(diagonal_jfactors([(w, l) for w in (-0.5, 0.5) for l in (0, 1)]).to_json())
        rows[1:1] = [{**rows[0], "omega": 0.0}, {**rows[0], "omega": -0.0}]
        path = tmp_path / "jf.json"
        path.write_text(json.dumps(rows))
        assert cli.main(self.ARGV + ["--jfactors", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: entries 1 and 2 repeat a key: (0.0, 0) and (-0.0, 0)\n"

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "jf.json"
        path.write_text(json.dumps({"omega": 0.5}))
        assert cli.main(self.ARGV + ["--jfactors", str(path)]) == cli.EXIT_CONFIG


def test_mode_file_with_a_huge_level_exits_config(tmp_path, capsys, monkeypatch):
    # one entry at l = 100000 asks for (l + 1)^2 labels at d = 3: refused by their count
    monkeypatch.setattr(ads_modes, "all_indices", lambda d, lmax: pytest.fail("built the label space"))
    entry = {"omega": 0.5, "levels": [100000], "m": 0, "a": [1.0, 0.0], "b": [0.0, 0.0]}
    path = tmp_path / "modes.json"
    path.write_text(json.dumps({"freq_grid": [{"omega": 0.5, "weight": 1.0}], "entries": [entry]}))
    out = str(tmp_path / "audit.csv")
    assert cli.main(TestMalformedFiles.ARGV + ["--modes", str(path), "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.endswith("config error: the mode labels up to lmax = 100000 at d = 3 number 10000200001, more than 65536\n")


class TestFluxClassify:
    def test_real_channels_standing(self, tmp_path):
        out = tmp_path / "flux.csv"
        rc = cli.main(["flux-classify", "--omega", "2:3:0.5", "--lmax", "1",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        i_kind = header.index("kind")
        i_verdict = header.index("verdict")
        kinds = set()
        for line in lines[1:]:
            cells = line.split(",")
            kinds.add(cells[i_kind])
            if cells[i_kind] in ("j", "n", "channel_a", "channel_b"):
                assert cells[i_verdict] == "standing"
            if cells[i_kind] in ("h1", "combined"):
                assert cells[i_verdict] == "outgoing"
        assert {"h1", "combined", "channel_a"} <= kinds

    def test_non_finite_flux_exits_numeric(self, capsys):
        # the radial series overflow at omega = 3000: each AdS row is a fault naming the
        # 2F1 series of its channel, and the Minkowski rows keep their values
        rc = cli.main(["flux-classify", "--omega", "3000:3001:1", "--lmax", "2"])
        out, err = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rc == cli.EXIT_NUMERIC and len(rows) == 2 * 3 * 6
        for row in rows:
            faulted = row["spacetime"] == "ads"
            assert (row["verdict"] == "fault") == faulted
            assert math.isnan(float(row["flux_per_time"])) == faulted
        lines = err.splitlines()
        assert lines[0] == "numeric error: hyp2f1(-1497.9,1502.1;1.5;0.41501642854987947) sums to -inf after 114 steps"
        assert all(line.startswith("numeric error: hyp2f1(") for line in lines)
        assert len(lines) == len(set(lines))

    @pytest.mark.parametrize(
        "argv, message",
        [
            # h1 at l >= 86 needs a_k(l + 1/2) with (l + k)! beyond the float range
            (
                ["--omega", "200:201:0.5", "--lmax", "90"],
                "a_coeff(k = 86, l = 86): (l + k)! = 172! is beyond the float range",
            ),
            # x^2 of S^e_1 in the l = 0 h1 derivative at x = 6 p_r
            (["--omega", "1e154:1e154:1"], "s_even(l = 1, x = 6e+154): x^2 is beyond the float range"),
        ],
    )
    def test_overflow_names_its_cause(self, argv, message, capsys):
        rc = cli.main(["flux-classify"] + argv)
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_NUMERIC and ",fault\n" in out
        # at omega = 200 combined rows ahead of it fault on their channels' Wronskian
        lines = [line for line in err.splitlines() if "ads combined flux at" not in line]
        assert lines[0] == f"numeric error: {message}"

    @pytest.mark.parametrize(
        "argv, faulted",
        [
            (["flux-classify", "--d", "4", "--omega", "2:3:0.5"], ("verdict", "flux_per_time")),
            (["candidate-sweep", "--delta", "3.0", "--omega", "0:4:0.5", "--candidates", "3"], ("sign_jab", "jab")),
        ],
    )
    def test_faulted_run_writes_every_row(self, argv, faulted, tmp_path, capsys):
        # --out is written on exit 3 too; JSON spells a faulted row's value NaN
        out = tmp_path / "rows.json"
        assert cli.main(argv + ["--format", "json", "--out", str(out)]) == cli.EXIT_NUMERIC
        text = out.read_text()
        rows = json.loads(text)
        label, value = faulted
        bad = [row for row in rows if row[label] == "fault"]
        assert 0 < len(bad) < len(rows)
        assert all(math.isnan(row[value]) for row in bad)
        assert f'"{value}": NaN' in text
        assert capsys.readouterr().err.startswith("numeric error: ")


class TestHarmonicsTable:
    def test_ladder_table(self, tmp_path):
        out = tmp_path / "ladder.csv"
        rc = cli.main(["harmonics-table", "--table", "ladder", "--lmax", "2",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("d,l,l_sub")
        assert len(lines) == 1 + (1 + 2 + 3)

    def test_values_table(self, tmp_path):
        out = tmp_path / "values.csv"
        rc = cli.main(["harmonics-table", "--lmax", "1", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert len(out.read_text().strip().splitlines()) > 1

    @pytest.mark.parametrize("d", ["2", "0", "-3"])
    def test_ladder_table_below_d_3_is_a_config_error(self, d, capsys):
        argv = ["harmonics-table", "--table", "ladder", "--d", d, "--lmax", "1"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: ladder_coeffs requires d >= 3, got d = {d}\n")


class TestExitCodes:
    def test_config_error(self):
        assert cli.main(["jfactor-audit", "--d", "2"]) == cli.EXIT_CONFIG

    def test_bad_candidate_index(self):
        assert cli.main(["candidate-sweep", "--candidates", "7"]) == cli.EXIT_CONFIG

    def test_numeric_pole(self):
        rc = cli.main(["candidate-sweep", "--delta", "3.0", "--omega", "2:2:1",
                       "--lmax", "0", "--candidates", "1"])
        assert rc == cli.EXIT_NUMERIC

    def test_jfactor_audit_pole_is_a_numeric_error(self, capsys):
        # jfactor-audit stops at the first pole of its candidate grid, with no rows
        rc = cli.main(["jfactor-audit", "--omega", "0.5:20:0.1", "--lmax", "10"])
        assert rc == cli.EXIT_NUMERIC
        assert capsys.readouterr() == ("", "numeric error: Gamma pole at argument -8.0\n")

    def test_missing_config_file(self):
        assert cli.main(["selfcheck", "--config", "/nonexistent.conf"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["selfcheck", "--quadrature-order", "2"], "--quadrature-order must be >= 4"),
            (["selfcheck", "--quadrature-order", "0"], "--quadrature-order must be >= 4"),
            (["harmonics-table", "--lmax", "-1"], "--lmax must be >= 0"),
            (["flux-classify", "--lmax", "-2"], "--lmax must be >= 0"),
            (
                ["flux-classify", "--radius", "nan", "--omega", "2:3:0.5", "--lmax", "1"],
                "AdSParams requires finite Delta and R, got Delta = 4.2, R = nan",
            ),
            (
                ["flux-classify", "--delta", "inf", "--omega", "2:3:0.5", "--lmax", "1"],
                "AdSParams requires finite Delta and R, got Delta = inf, R = 1.0",
            ),
            (["jfactor-audit", "--radius", "nan"], "AdSParams requires finite Delta and R, got Delta = 4.2, R = nan"),
            (
                ["candidate-sweep", "--omega", "0:1e9:1e-9"],
                "--omega gives 1000000000000000001 points, more than 1000000",
            ),
        ],
    )
    def test_bad_value_is_a_config_error(self, argv, message, capsys):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_lowest_quadrature_order_passes(self, capsys):
        assert cli.main(["selfcheck", "--quadrature-order", "4"]) == cli.EXIT_OK
        assert "14/14 checks passed" in capsys.readouterr().out


class TestOptionTable:
    def test_each_subcommand_takes_the_options_it_reads(self):
        [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            name: {a.dest for a in parser._actions if a.dest != "help"}
            for name, parser in sub.choices.items()
        }
        assert dests == {name: reads | {"config"} for name, reads in READS.items()}
        assert sum(map(len, dests.values())) == 38
        assert cli.build_parser() is cli.build_parser()  # built once per process

    @pytest.mark.parametrize(
        "argv",
        [
            ["flux-classify", "--tolerance", "1e-14"],
            ["selfcheck", "--delta", "5"],
            ["candidate-sweep", "--radius", "2"],
            ["harmonics-table", "--candidates", "1"],
        ],
    )
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_readme_commands_run(self, tmp_path, capsys):
        block = README.read_text().split("## Command line", 1)[1].split("```sh\n", 1)[1]
        lines = [line for line in block.split("```", 1)[0].splitlines() if line.startswith("adskg ")]
        assert len(lines) >= 5
        for line in lines:
            argv = shlex.split(line)[1:]
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = str(tmp_path / argv[i])
            assert cli.main(argv) == cli.EXIT_OK, line


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("delta = 3.7\nlmax = 1\nomega = 0:1:0.5  # grid\n")
        out = tmp_path / "sweep.csv"
        rc = cli.main(
            ["candidate-sweep", "--config", str(conf), "--lmax", "2",
             "--candidates", "1", "--out", str(out)]
        )
        assert rc == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        # flag lmax=2 wins over config lmax=1: 3 omegas x 3 l-values
        assert len(lines) == 1 + 3 * 3

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus = 1\n")
        assert cli.main(["selfcheck", "--config", str(conf)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("selfcheck", "tolerance = 1e-9", "config key 'tolerance' does not apply"),
            ("flux-classify", "candidates = 1", "config key 'candidates' does not apply"),
            ("harmonics-table", "lmax = two", "config key 'lmax' needs int values, got 'two'"),
            ("candidate-sweep", "candidates = 1, x", "config key 'candidates' needs int values"),
            ("selfcheck", "quadrature-order = 3", "--quadrature-order must be >= 4"),
            ("harmonics-table", "lmax = -1", "--lmax must be >= 0"),
            ("harmonics-table", "format = xml", "--format must be one of csv, json, got 'xml'"),
            ("jfactor-audit", "candidates = 5", "candidate indices must lie in 1..4"),
        ],
    )
    def test_bad_config_value_names_it(self, tmp_path, capsys, command, line, message):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        assert cli.main([command, "--config", str(conf)]) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") and message in err

    def test_config_candidate_list(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("candidates = 1, 2\nomega = 0:1:0.5\nlmax = 1\n")
        out = tmp_path / "sweep.csv"
        assert cli.main(["candidate-sweep", "--config", str(conf), "--out", str(out)]) == cli.EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["candidate"] for row in rows] == ["1"] * 6 + ["2"] * 6
