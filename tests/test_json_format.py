"""Every JSON file the package writes is byte for byte json.dumps(..., indent=1).

The writers fill a fixed template instead of running the stdlib's indent
encoder; the stdlib encoder on the same payload is the oracle here.
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


def written(header, rows, tmp_path):
    out = tmp_path / "rows.json"
    cli.write_rows(header, rows, "json", str(out))
    return out.read_text()


def expected(header, rows):
    payload = [dict(zip(header, row)) for row in rows]
    return json.dumps(payload, indent=1, sort_keys=True, default=cli.fmt) + "\n"


SUBCOMMANDS = [
    ["candidate-sweep", "--omega", "0:1:0.5", "--lmax", "1"],
    ["flux-classify", "--omega", "2:3:0.5", "--lmax", "1"],
    ["jfactor-audit", "--omega", "0:1:0.5", "--lmax", "1"],
    ["harmonics-table", "--d", "4", "--lmax", "1"],
    ["harmonics-table", "--table", "ladder", "--lmax", "2"],
]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_cli_rows(argv, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "write_rows", lambda header, rows, *_: calls.append((header, rows)))
    cli.main(argv)
    monkeypatch.undo()
    [(header, rows)] = calls
    assert rows
    assert written(header, rows, tmp_path) == expected(header, rows)


def test_rows_of_every_cell_type(tmp_path):
    header = ["name", "count", "value", "flag", "z", "pct%", "quote\"d"]
    rows = [
        ["a,b\n\"c\"", 3, 0.1, True, 1 + 2j, None, "%s"],
        ["é", -7, -0.0, False, complex(-0.0, math.inf), 1e300, ""],
        *(["x", 0, x, True, complex(x, x), x, "y"] for x in EXTREMES),
    ]
    assert written(header, rows, tmp_path) == expected(header, rows)
    assert written(header, [], tmp_path) == expected(header, []) == "[]\n"
    # a repeated name keeps its last column, as dict(zip(header, row)) does
    assert written(["b", "a", "b"], [[1, 2, 3]], tmp_path) == expected(["b", "a", "b"], [[1, 2, 3]])


def test_rows_are_checked(tmp_path):
    with pytest.raises(ValueError):
        written(["a", "b"], [[1, 2], [3]], tmp_path)
    with pytest.raises(ValueError):
        written(["a", "b"], [[1]], tmp_path)
    # the fixed layout has no place for a nested list or object
    for cell in ([1, 2], [1], {"k": 1}):
        with pytest.raises(TypeError):
            written(["a", "b"], [[0, 1], [cell, 2]], tmp_path)
