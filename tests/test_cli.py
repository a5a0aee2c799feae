import csv
import json
import math

import numpy as np
import pytest

from adskg import cli, specfun
from adskg.ads_modes import random_real_mode_vector


class TestHelpers:
    def test_parse_omega_range(self):
        assert cli.parse_omega_range("0:3:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        assert cli.parse_omega_range("1:1:1") == [1.0]

    def test_parse_omega_rejects_garbage(self):
        with pytest.raises(ValueError):
            cli.parse_omega_range("nope")
        with pytest.raises(ValueError):
            cli.parse_omega_range("3:1:0.5")

    def test_symmetric_grid(self):
        assert cli.symmetric_grid([0.0, 1.0]) == [-1.0, 0.0, 1.0]
        assert cli.symmetric_grid([0.0, 1.0], include_zero=False) == [-1.0, 1.0]

    def test_fmt_is_17_digits(self):
        assert cli.fmt(math.pi) == f"{math.pi:.17g}"


class TestSelfcheck:
    def test_clean_build_exits_zero(self, capsys):
        assert cli.main(["selfcheck"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "[fail]" not in out

    def test_evanescent_check_catches_a_sign_error(self, monkeypatch, capsys):
        # j_evan computed with the oscillating sign is j_l, not i_l: still real
        series_j = specfun._series_j
        monkeypatch.setattr(specfun, "_series_j", lambda l, x, sign=-1.0: series_j(l, x))
        assert cli.main(["selfcheck"]) == cli.EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "[fail] evanescent series real" in out
        assert "12/13 checks passed" in out


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

    def test_not_a_list(self, tmp_path):
        path = tmp_path / "jf.json"
        path.write_text(json.dumps({"omega": 0.5}))
        assert cli.main(self.ARGV + ["--jfactors", str(path)]) == cli.EXIT_CONFIG


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
        # the radial series overflow at omega = 3000 without a series fault
        rc = cli.main(["flux-classify", "--omega", "3000:3001:1", "--lmax", "2"])
        out, err = capsys.readouterr()
        assert (rc, out) == (cli.EXIT_NUMERIC, "")
        assert err == "numeric error: ads flux at omega = 3000.0, l = 0 is nan\n"


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


class TestExitCodes:
    def test_config_error(self):
        assert cli.main(["jfactor-audit", "--d", "2"]) == cli.EXIT_CONFIG

    def test_bad_candidate_index(self):
        assert cli.main(["candidate-sweep", "--candidates", "7"]) == cli.EXIT_CONFIG

    def test_numeric_pole(self):
        rc = cli.main(["candidate-sweep", "--delta", "3.0", "--omega", "2:2:1",
                       "--lmax", "0", "--candidates", "1"])
        assert rc == cli.EXIT_NUMERIC

    def test_missing_config_file(self):
        assert cli.main(["selfcheck", "--config", "/nonexistent.conf"]) == cli.EXIT_CONFIG


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
