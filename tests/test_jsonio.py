"""The JSON record writer and the per-field spelling of CLI rows.

records joins the fixed pieces of the json.dumps(..., indent=1) layout with
the encoded cells in one str.join; json.dumps itself is the oracle.  An
object field of str, or of int and str, cells is spelled once per distinct
cell; a field holding bools keeps its cell-by-cell spelling, since True == 1.
"""

import json

import numpy as np
import pytest

from adskg import cli
from adskg._jsonio import encode_items, records

STRINGS = ['say "hi"', "back\\slash", "new\nline\ttab", "é ü ∞ 😀", "", "%s %% {}", "fault"]


def objects(fields, count):
    """count objects with the members fields, (key, width) with width None for a scalar,
    filled with numbers and the awkward STRINGS."""
    values = iter([*STRINGS, 0, -3, 2.5, -0.0, 1e300, True, None] * (count * 8 + 1))
    return [
        {key: next(values) if width is None else [next(values) for _ in range(width)] for key, width in fields}
        for _ in range(count)
    ]


def cells_of(objs, fields):
    return [
        cell
        for obj in objs
        for key, width in fields
        for cell in encode_items([obj[key]] if width is None else obj[key])
    ]


@pytest.mark.parametrize("count", [0, 1, 2, 5])
@pytest.mark.parametrize(
    "fields",
    [
        [("a", None)],
        [("omega", None), ("levels", 1), ("m", None), ("a", 2), ("b", 2)],
        [("x", 3), ("y", None), ("z", 1)],
        [('k"ey\\', None), ("ключ", 2)],
    ],
)
@pytest.mark.parametrize("depth", [1, 2])
def test_records_are_json_dumps_indent_1(fields, count, depth):
    objs = objects(fields, count)
    text = records(fields, count, cells_of(objs, fields), depth=depth)
    if depth == 1:
        assert text == json.dumps(objs, indent=1)
    else:
        assert '{\n "entries": ' + text + "\n}" == json.dumps({"entries": objs}, indent=1)


def test_records_of_objects_without_cells():
    for count in (1, 3):
        assert records([], count, []) == json.dumps([{}] * count, indent=1)


def written(header, columns, tmp_path, out_format="json"):
    path = tmp_path / f"rows.{out_format}"
    cli.write_rows(header, cli.table(*columns), out_format, str(path))
    return path.read_text()


@pytest.mark.parametrize("n", [0, 1, 4])
def test_rows_with_awkward_strings_and_repeated_names(n, tmp_path):
    header = ["name", "l", "name", "note"]
    columns = [STRINGS[:n], np.arange(n), STRINGS[::-1][:n], ["fault", 3, "x\\y", 7][:n]]
    rows = [dict(zip(header, row)) for row in zip(columns[0], range(n), *columns[2:])]
    expected = json.dumps(rows, indent=1, sort_keys=True) + "\n"
    assert written(header, columns, tmp_path) == (expected if n else "[]\n")


def test_int_and_str_field_is_spelled_once_per_distinct_cell():
    field = cli.table([1, "fault", -1, 1, "fault", 1, -1])["f0"]
    seen = []

    def spell(cells):
        seen.append(list(cells))
        return cli._json_column(cells)

    assert cli._spelled(field, spell) == ["1", '"fault"', "-1", "1", '"fault"', "1", "-1"]
    assert len(seen) == 1 and sorted(map(str, seen[0])) == ["-1", "1", "fault"]
    assert cli._spelled(field, cli._csv_column) == ["1", "fault", "-1", "1", "fault", "1", "-1"]


def test_strings_spell_as_themselves_in_csv():
    field = cli.table(["ads", "minkowski", "ads", "ads"])["f0"]
    assert cli._spelled(field, cli._csv_column) == ["ads", "minkowski", "ads", "ads"]
    assert cli._spelled(field, cli._json_column) == ['"ads"', '"minkowski"', '"ads"', '"ads"']


def test_bool_and_int_field_keeps_cell_by_cell_spelling():
    # True == 1 and False == 0, so these cells must not share a spelling
    field = cli.table([1, True, 0, False, 1, "fault"])["f0"]
    assert cli._spelled(field, cli._json_column) == ["1", "true", "0", "false", "1", '"fault"']
    assert cli._spelled(field, cli._csv_column) == ["1", "True", "0", "False", "1", "fault"]
