"""The package's JSON files: the json.dumps(..., indent=1) layout, written
without the pure-Python encoder, and the reader of their [re, im] fields.

json.dumps with an indent always runs the pure-Python encoder, about a
microsecond per value.  `records` instead fills a fixed %-template of the
indent=1 layout with spellings that `encode_items` takes from json.dumps
without an indent, one call per column or file, which runs the C encoder.
Both encoders spell floats with float.__repr__ (NaN and +-Infinity where
not finite), ints with int.__repr__ and strings with the same escaping, so
the text is byte for byte that of json.dumps(..., indent=1).
"""

import json
from itertools import chain
from operator import itemgetter

import numpy as np

# a raw newline never occurs in JSON without an indent (strings escape it),
# so it separates the encoded items of a list unambiguously
_SEP = "\n"
# the Python types json.loads gives numbers; bool is not one of them
_NUMBER = {int, float}


def encode_items(values, default=None):
    """The JSON spelling of each scalar in the list `values`."""
    text = json.dumps(values, separators=(_SEP, ": "), default=default)
    if text.startswith(("[[", "[{")) or "\n[" in text or "\n{" in text:
        raise TypeError("JSON record layouts take scalar values only")
    return text[1:-1].split(_SEP) if values else []


def encode_array(values):
    """encode_items of the elements of a numpy array, as an object array of its shape."""
    return np.array(encode_items(values.ravel().tolist()), dtype=object).reshape(values.shape)


def records(fields, count, cells, depth=1):
    """json.dumps(<list of count objects>, indent=1) text at nesting depth `depth`.

    fields: (key, width) per member in order, width None for a scalar and
    the length for a list of scalars; cells: the encoded scalars of all
    objects, object after object, in member order.
    """
    if count == 0:
        return "[]"
    pad = " " * depth

    def value(width):
        if width is None:
            return "%s"
        return "[\n" + ",\n".join([pad + "  %s"] * width) + "\n" + pad + " ]"

    members = ",\n".join(
        f"{pad} {json.dumps(key).replace('%', '%%')}: {value(width)}" for key, width in fields
    )
    record = f"{pad}{{\n{members}\n{pad}}}" if fields else pad + "{}"
    template = "[\n" + ",\n".join([record] * count) + "\n" + pad[1:] + "]"
    return template % tuple(cells)


def read_records(rows, numbers=(), lists=(), pairs=()):
    """Members of a list of JSON objects.

    Returns one list per name in `numbers` and then in `lists`, holding that
    member of every object, and a complex (objects, len(pairs)) array of the
    members named in `pairs`.  Each member named in `numbers` must be a
    number, in `lists` a list of numbers and in `pairs` a list of two
    numbers [re, im]; ValueError names the first object where one is
    missing or is not.
    """
    if type(rows) is not list:
        raise ValueError("expected a list of JSON objects")
    try:
        columns = [list(map(itemgetter(name), rows)) for name in (*numbers, *lists, *pairs)]
        listed = list(chain.from_iterable(columns[len(numbers) :]))
        cells = listed[len(lists) * len(rows) :]
        ok = (
            set(map(type, chain.from_iterable(columns[: len(numbers)]))) <= _NUMBER
            and set(map(type, listed)) <= {list}
            and set(map(type, chain.from_iterable(listed))) <= _NUMBER
            and set(map(len, cells)) <= {2}
        )
    except (KeyError, TypeError):
        ok = False
    if not ok:
        _raise_first_malformed(rows, numbers, lists, pairs)
    values = np.fromiter(chain.from_iterable(cells), float, 2 * len(cells)).view(complex)
    return columns[: len(numbers) + len(lists)], values.reshape(len(pairs), len(rows)).T


def _raise_first_malformed(rows, numbers, lists, pairs):
    kinds = (
        (numbers, "a number", lambda v: type(v) in _NUMBER),
        (lists, "a list of numbers", lambda v: type(v) is list and set(map(type, v)) <= _NUMBER),
        (
            pairs,
            "a list of two numbers [re, im]",
            lambda v: type(v) is list and len(v) == 2 and set(map(type, v)) <= _NUMBER,
        ),
    )
    for i, row in enumerate(rows):
        if type(row) is not dict:
            raise ValueError(f"entry {i} is not a JSON object")
        for names, kind, ok in kinds:
            for name in names:
                if name not in row:
                    raise ValueError(f"entry {i} has no {name!r}")
                if not ok(row[name]):
                    raise ValueError(f"entry {i}: {name!r} must be {kind}, got {row[name]!r}")
    raise ValueError("malformed list of JSON objects")
