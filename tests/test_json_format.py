"""Every JSON file the package writes is byte for byte json.dumps(..., indent=1).

The writers fill a fixed template instead of running the stdlib's indent
encoder; the stdlib encoder on the same payload is the oracle here.  The
CLI's CSV rows have their oracle too: each line is the fmt spelling of
each cell, one cell at a time.
"""

import json
import math

import numpy as np
import pytest

from adskg import cli
from adskg.ads_complex_structure import (
    JFactors,
    candidate_jfactors,
    complete_nondiagonal,
    diagonal_jfactors,
)
from adskg.ads_modes import AdSParams, ModeVector, random_real_mode_vector
from adskg.harmonics import all_indices

EXTREMES = [1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, -0.0, math.nan, math.inf, -math.inf]
GRID = [(-1.25, 0.5), (-0.5, 1.0), (0.5, 1.0), (1.25, 0.5)]


def mode_payload(v):
    return {
        "freq_grid": [{"omega": w, "weight": x} for w, x in v.freq_grid],
        "entries": [
            {
                "omega": w,
                "levels": list(levels),
                "m": m,
                "a": [a.real, a.imag],
                "b": [b.real, b.imag],
            }
            for (w, levels, m), (a, b) in sorted(v.entries.items())
        ],
    }


def jfactors_payload(jf):
    names = ("jaa", "jab", "jba", "jbb")
    return [
        {"omega": w, "l": l, **{n: [v.real, v.imag] for n, v in zip(names, row)}}
        for (w, l), row in jf.table.items()
    ]


def mode_vectors(d):
    rng = np.random.default_rng(d)
    labels = [(idx.levels, idx.m) for idx in all_indices(d, 3)]
    picks = rng.choice(len(labels), size=7, replace=False)
    sparse = {
        (GRID[k % 4][0], *labels[i]): tuple(complex(*z) for z in rng.normal(size=(2, 2)))
        for k, i in enumerate(picks)
    }
    zeros = {(w, *labels[i]): (0j, 0j) for (w, _), i in zip(GRID, picks)}
    extremes = {
        (GRID[k % 4][0], *labels[k]): (complex(x, -x), complex(EXTREMES[-1 - k], x))
        for k, x in enumerate(EXTREMES)
    }
    return {
        "random": random_real_mode_vector(d, [0.5, 1.25], 2, rng),
        "sparse": ModeVector(GRID, sparse),
        "empty": ModeVector(GRID, {}),
        "zeros": ModeVector(GRID, zeros),
        "extremes": ModeVector(GRID, extremes),
    }


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_mode_vector_to_json(d):
    for name, v in mode_vectors(d).items():
        assert v.to_json() == json.dumps(mode_payload(v), indent=1), name
    empty = ModeVector([], {})
    assert empty.to_json() == json.dumps(mode_payload(empty), indent=1)


def jfactor_tables():
    p = AdSParams(3, 4.2)
    keys = [(w, l) for w in (-1.5, -0.5, 0.0, 0.5, 1.5) for l in range(3)]
    return [
        diagonal_jfactors([(w, l) for w, l in keys if w != 0.0]),
        *(candidate_jfactors(which, p, keys) for which in (1, 2, 3, 4)),
        JFactors({key: complete_nondiagonal(-1.5, 0.25) for key in keys}),
        JFactors({(0.5, l): (complex(x, -x),) * 4 for l, x in enumerate(EXTREMES)}),
        JFactors({}),
    ]


def test_jfactors_to_json():
    for jf in jfactor_tables():
        assert jf.to_json() == json.dumps(jfactors_payload(jf), indent=1)


def written(header, rows, tmp_path, out_format="json"):
    out = tmp_path / f"rows.{out_format}"
    cli.write_rows(header, rows, out_format, str(out))
    return out.read_text()


def expected(header, rows):
    payload = [dict(zip(header, row)) for row in rows]
    return json.dumps(payload, indent=1, sort_keys=True, default=cli.fmt) + "\n"


def expected_csv(header, rows):
    """The CSV text of rows with each cell spelled by fmt on its own."""
    return "\n".join([",".join(header), *(",".join(map(cli.fmt, row)) for row in rows)]) + "\n"


def as_table(rows, width):
    """cli.table of rows: a column of Python floats, ints, bools or complex numbers alone
    as an array of that type, any other column as the list of its cells."""
    columns = [list(cells) for cells in zip(*rows)] or [[] for _ in range(width)]
    arrays = []
    for cells in columns:
        kinds = set(map(type, cells))
        typed = len(kinds) == 1 and kinds <= {float, int, bool, complex}
        arrays.append(np.array(cells, dtype=kinds.pop()) if typed else cells)
    return cli.table(*arrays)


SUBCOMMANDS = [
    ["candidate-sweep", "--omega", "0:1:0.5", "--lmax", "1"],
    ["flux-classify", "--omega", "2:3:0.5", "--lmax", "1"],
    ["jfactor-audit", "--omega", "0:1:0.5", "--lmax", "1"],
    ["harmonics-table", "--d", "4", "--lmax", "1"],
    ["harmonics-table", "--table", "ladder", "--lmax", "2"],
    ["candidate-sweep", "--omega", "0.05:20:0.1", "--lmax", "10"],  # the stated grid, 8,800 rows
]


def captured(argv, monkeypatch):
    """The header and the table a CLI run hands write_rows."""
    calls = []
    monkeypatch.setattr(cli, "write_rows", lambda header, rows, *_: calls.append((header, rows)))
    cli.main(argv)
    monkeypatch.undo()
    [(header, rows)] = calls
    assert len(rows)
    return header, rows


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_cli_rows(argv, monkeypatch, tmp_path):
    header, rows = captured(argv, monkeypatch)
    assert written(header, rows, tmp_path) == expected(header, rows.tolist())


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_cli_rows_as_csv(argv, monkeypatch, tmp_path):
    header, rows = captured(argv, monkeypatch)
    assert written(header, rows, tmp_path, "csv") == expected_csv(header, rows.tolist())


def test_rows_of_every_cell_type(tmp_path):
    header = ["name", "count", "value", "flag", "z", "pct%", "quote\"d"]
    rows = [
        ["a,b\n\"c\"", 3, 0.1, True, 1 + 2j, None, "%s"],
        ["é", -7, -0.0, False, complex(-0.0, math.inf), 1e300, ""],
        *(["x", 0, x, True, complex(x, x), x, "y"] for x in EXTREMES),
    ]
    assert written(header, as_table(rows, 7), tmp_path) == expected(header, rows)
    assert written(header, as_table([], 7), tmp_path) == expected(header, []) == "[]\n"
    # a repeated name keeps its last column, as dict(zip(header, row)) does
    repeated = ["b", "a", "b"]
    assert written(repeated, as_table([[1, 2, 3]], 3), tmp_path) == expected(repeated, [[1, 2, 3]])


# -0.0 next to 0.0 (and 0j next to -0-0j below): equal as floats, spelled apart
CELLS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 0.1, -0.0, 1e300, 0.0, -5e-324, 1.0]
ZEROS = [0j, complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)]


def test_csv_rows_are_the_cells_spelled_one_by_one(tmp_path):
    # a typed field is spelled once per distinct bit pattern; a line is still each
    # cell's fmt spelling, here with a repeated name that CSV writes twice
    header = ["x", "z", "n", "flag", "sign", "x"]
    rows = []
    for k, (x, y) in enumerate(zip(CELLS, reversed(CELLS))):
        z = ZEROS[k % 4] if k < 8 else complex(x, -x)
        sign = "fault" if k % 4 == 3 else (1, -1)[k % 2]
        rows.append([x, z, k % 3 - 1, k % 2 == 0, sign, y])
    table = as_table(rows, len(header))
    assert [table.dtype[i].kind for i in range(len(header))] == ["f", "c", "i", "b", "O", "f"]
    assert written(header, table, tmp_path, "csv") == expected_csv(header, rows)
    assert written(header, table, tmp_path) == expected(header, rows)
    kinds = (float, complex, int, bool, object, float)
    empty = cli.table(*(np.array([], dtype=kind) for kind in kinds))
    assert written(header, empty, tmp_path, "csv") == "x,z,n,flag,sign,x\n"
    assert written(header, empty, tmp_path) == "[]\n"


def test_rows_are_checked(tmp_path):
    with pytest.raises(ValueError):
        cli.table(np.array([1, 3]), np.array([2]))
    with pytest.raises(ValueError):
        written(["a", "b"], cli.table(np.array([1])), tmp_path)
    # the fixed layout has no place for a nested list or object
    for cell in ([1, 2], [1], {"k": 1}):
        with pytest.raises(TypeError):
            written(["a", "b"], cli.table([0, cell], np.array([1, 2])), tmp_path)
