"""The package's JSON files: the json.dumps(..., indent=1) layout, written
without the pure-Python encoder, and the reader of their [re, im] fields.

json.dumps with an indent always runs the pure-Python encoder, about a
microsecond per value.  `records` instead joins, in one str.join, the fixed
pieces of the indent=1 layout with spellings that `encode_items` takes from
json.dumps without an indent, one call per column or file, which runs the C
encoder.
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
    objects, object after object, in member order.  The text is one join of
    the cells with the fixed pieces between them: the opening before the
    first cell, a cycle of one piece before each cell of an object, and the
    closing after the last.
    """
    if count == 0:
        return "[]"
    pad = " " * depth
    pieces = _record_pieces(fields, pad)  # an object's text around its cells
    end = "\n" + pad[1:] + "]"
    if len(pieces) == 1:  # objects without cells
        return "".join(["[\n", pieces[0], *[",\n" + pieces[0]] * (count - 1), end])
    text = [None] * (2 * len(cells) + 1)
    text[:-1:2] = [pieces[-1] + ",\n" + pieces[0], *pieces[1:-1]] * count
    text[0] = "[\n" + pieces[0]
    text[1::2] = cells
    text[-1] = pieces[-1] + end
    return "".join(text)


def _record_pieces(fields, pad):
    """The text of one object of the indent=1 layout at indent `pad` around its m cells:
    m + 1 pieces, the text before each cell and then the text after the last."""
    pieces, text = [], pad + "{"
    for n, (key, width) in enumerate(fields):
        text += ("," if n else "") + "\n" + pad + " " + json.dumps(key) + ": "
        if width is None:
            pieces.append(text)
            text = ""
        else:
            pieces += [text + "[\n" + pad + "  "] + [",\n" + pad + "  "] * (width - 1)
            text = "\n" + pad + " ]"
    pieces.append(text + ("\n" + pad + "}" if fields else "}"))
    return pieces


def _is_number(cell):
    return type(cell) in _NUMBER


def _is_number_list(cell):
    return type(cell) is list and set(map(type, cell)) <= _NUMBER


def _is_pair(cell):
    return _is_number_list(cell) and len(cell) == 2


# the check of one cell of each field role
_ROLES = (
    (_is_number, "a number"),
    (_is_number_list, "a list of numbers"),
    (_is_pair, "a list of two numbers [re, im]"),
)


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
    roles = zip((numbers, lists, pairs), _ROLES)
    fields = [(name, check, kind) for names, (check, kind) in roles for name in names]
    try:
        columns = [list(map(itemgetter(name), rows)) for name, _, _ in fields]
        kept, paired = columns[: len(numbers) + len(lists)], columns[len(numbers) + len(lists) :]
        listed = kept[len(numbers) :]
        flat = list(_elements(paired))  # the [re, im] numbers, member after member
        # a pair of length 2 that is not a list fails the test of its elements: JSON's
        # other values with a length, strings and objects, hold strings
        ok = (
            set(map(type, chain.from_iterable(listed))) <= {list}
            and set(map(len, chain.from_iterable(paired))) <= {2}
            and set(map(type, chain(*kept[: len(numbers)], _elements(listed), flat))) <= _NUMBER
        )
    except (KeyError, TypeError):
        ok = False
    if not ok:
        _raise_first_malformed(rows, fields)
    values = np.fromiter(flat, float, len(flat)).view(complex)
    return kept, values.reshape(len(pairs), len(rows)).T


def _elements(columns):
    """The elements of the list cells of the columns, column after column."""
    return chain.from_iterable(chain.from_iterable(columns))


def keyed(keys, values):
    """dict(zip(keys, values)) of a file's entries in order; ValueError naming two entries
    whose keys are equal, where the dict would silently keep the later one."""
    table = dict(zip(keys, values))
    if len(table) < len(keys):
        refuse_repeats(keys)
    return table


def refuse_repeats(keys, ids=None):
    """ValueError naming the first two entries whose ids, by default their keys, are equal."""
    first = {}
    for i, key in enumerate(keys if ids is None else ids):
        if (j := first.setdefault(key, i)) != i:
            raise ValueError(f"entries {j} and {i} repeat a key: {keys[j]} and {keys[i]}")


def _raise_first_malformed(rows, fields):
    for i, row in enumerate(rows):
        if type(row) is not dict:
            raise ValueError(f"entry {i} is not a JSON object")
        for name, check, kind in fields:
            if name not in row:
                raise ValueError(f"entry {i} has no {name!r}")
            if not check(row[name]):
                raise ValueError(f"entry {i}: {name!r} must be {kind}, got {row[name]!r}")
    raise ValueError("malformed list of JSON objects")
