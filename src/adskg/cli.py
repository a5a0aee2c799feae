"""Command-line front end: invariant audits, sweeps, tables.

Subcommands: selfcheck (per entry of the _invariants registry, its worst residual
against its tolerance), harmonics-table, jfactor-audit, candidate-sweep,
flux-classify, each taking --config and the OPTIONS it reads (SUBCOMMANDS).
Options may come from flags or a flat key=value config file (flags win).
Exit codes: 0 ok, 1 invariant failure, 2 usage or config error, 3 numeric
pole or overflow (candidate-sweep and flux-classify still write every row, a
faulted one with nan and "fault"; jfactor-audit stops at its first pole).
"""

import argparse
import functools
import math
import sys
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import ads_complex_structure as acs
from . import ads_modes, flux, harmonics, specfun
from ._invariants import INVARIANTS
from ._jsonio import encode_items, records

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def fmt(x):
    """Fixed 17-significant-digit float formatting for deterministic files."""
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv_column(cells):
    """The fmt strings of a column's cells, formatted as a whole where all of them are
    Python floats, all ints and bools, or all strings."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        return list(map(format, cells, repeat(".17g")))
    if kinds <= {int, bool}:
        return list(map(str, cells))
    if kinds == {str}:
        return cells
    return list(map(fmt, cells))


def _json_column(cells):
    # complex values become the same fmt strings as in CSV cells
    return encode_items(cells, default=fmt)


def table(*columns):
    """The rows of an output file as a structured array, one field per column in order.

    A numpy array of bool, int, float or complex dtype makes a field of its dtype; any
    other column (a list, or an array of str or object dtype) makes an object field that
    holds its cells as they are, such as an int column with "fault" cells.  ValueError
    if the columns differ in length.
    """
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError("the columns of a table need one length")
    typed = [isinstance(c, np.ndarray) and c.dtype.kind in "biufc" for c in columns]
    dtype = [(f"f{i}", c.dtype if t else object) for i, (c, t) in enumerate(zip(columns, typed))]
    # zeros, not empty: numpy fills the object fields of an empty record array by record
    rows = np.zeros(lengths.pop() if lengths else 0, dtype)
    for name, column in zip(rows.dtype.names, columns):
        # fromiter stores each cell as it is, a list cell too
        rows[name] = column if isinstance(column, np.ndarray) else np.fromiter(column, object)
    return rows


def _spelled(field, spell):
    """spell(cells) of a table field, each string at its row.  A typed field is spelled
    once per distinct bit pattern (-0.0 apart from 0.0, a complex value by both parts),
    the strings gathered to the rows.  An object field whose cells are all str, or only
    int and str, is spelled once per distinct cell, since equal cells of these types
    spell alike; any other object field cell by cell."""
    if field.dtype == object:
        cells = field.tolist()
        if not set(map(type, cells)) <= {int, str}:
            return spell(cells)
        distinct = list(set(cells))
        strings = spell(distinct)
        if strings == distinct:  # each cell is its own spelling (CSV strings)
            return cells
        spelling = dict(zip(distinct, strings))
        return [spelling[cell] for cell in cells]
    keys = field.view(f"V{field.itemsize}" if field.dtype.kind == "c" else f"i{field.itemsize}")
    distinct, inverse = np.unique(keys, return_inverse=True)
    if len(distinct) == len(field):
        return spell(field.tolist())
    strings = np.array(spell(distinct.view(field.dtype).tolist()), dtype=object)
    return strings[inverse].tolist()


def write_rows(header, rows, out_format, out_path):
    """Write a `table` under header, one name per field: CSV lines of the fmt spelling
    of each cell, or json.dumps([dict(zip(header, row)) ...], indent=1, sort_keys=True)
    text, where a repeated name keeps its last column."""
    fields = [rows[name] for name in rows.dtype.names]
    if len(fields) != len(header):
        raise ValueError("each row needs one value per header name")
    if out_format == "csv":
        columns = [_spelled(field, _csv_column) for field in fields]
        text = "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"
    else:
        column = dict(zip(header, fields))
        keys = sorted(column)
        columns = [_spelled(column[key], _json_column) for key in keys]
        cells = list(chain.from_iterable(zip(*columns)))
        text = records([(key, None) for key in keys], len(rows), cells) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


OMEGA_POINTS_MAX = 10**6


def parse_omega_range(text):
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except Exception as exc:
        raise ValueError(f"--omega expects start:stop:step, got {text!r}") from exc
    # nan fails each comparison; a tiny step over a finite range can count inf points
    finite = 0.0 < step < math.inf and -math.inf < start <= stop < math.inf
    if not (finite and (stop - start) / step < math.inf):
        raise ValueError("--omega needs finite values with step > 0 and stop >= start")
    count = int(round((stop - start) / step))
    if count + 1 > OMEGA_POINTS_MAX:
        raise ValueError(f"--omega gives {count + 1} points, more than {OMEGA_POINTS_MAX}")
    grid = [start + i * step for i in range(count + 1)]
    return [round(w, 12) for w in grid if w <= stop + 1e-12]


def symmetric_grid(omegas):
    return sorted({*omegas, *(-w for w in omegas)})


def load_config(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {raw.strip()!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


class Option(NamedTuple):
    """Option ``name``: flag ``--name`` (underscores as dashes), config key ``name``."""

    type: type = str
    default: object = None
    help: str = None
    choices: tuple = None
    nargs: str = None
    low: int = None  # the least value; a smaller one is a config error


OPTIONS = {
    "config": Option(help="flat key=value defaults file"),
    "d": Option(int, 3, "spatial dimension"),
    "delta": Option(float, 4.2, "conformal weight"),
    "radius": Option(float, 1.0, "curvature radius"),
    "omega": Option(str, "0:3:0.5", "frequency grid start:stop:step"),
    "lmax": Option(int, 3, "largest angular momentum", low=0),
    "candidates": Option(int, None, "candidate indices (subset of 1..4)", nargs="*"),
    "format": Option(str, "csv", choices=("csv", "json")),
    "out": Option(help="output file (default stdout)"),
    "quadrature_order": Option(int, 24, "Gauss order per angle", low=4),
    "tolerance": Option(float, 1e-10, "largest accepted residual"),
    "table": Option(str, "values", choices=("values", "ladder")),
    "preset": Option(str, "candidate", choices=("candidate", "diagonal")),
    "jfactors": Option(help="JFactors JSON file to audit"),
    "modes": Option(help="ModeVector JSON to score with g_rho"),
}


def _config_settings(config, names):
    """The config values of the options in names, converted by their types."""
    settings = {}
    for key, text in config.items():
        if key not in OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        if key not in names:
            raise ValueError(f"config key {key!r} does not apply to this subcommand")
        opt = OPTIONS[key]
        try:
            split = text.replace(",", " ").split()
            settings[key] = [opt.type(v) for v in split] if opt.nargs else opt.type(text)
        except ValueError:
            kind = opt.type.__name__
            raise ValueError(f"config key {key!r} needs {kind} values, got {text!r}") from None
    return settings


def _check_settings(settings):
    """Raise ValueError for a value outside its option's choices or below its least value."""
    for key, value in settings.items():
        opt, flag = OPTIONS[key], "--" + key.replace("_", "-")
        if opt.choices and value not in opt.choices:
            raise ValueError(f"{flag} must be one of {', '.join(opt.choices)}, got {value!r}")
        if opt.low is not None and value < opt.low:
            raise ValueError(f"{flag} must be >= {opt.low}")
    if any(c not in (1, 2, 3, 4) for c in settings.get("candidates") or ()):
        raise ValueError("candidate indices must lie in 1..4")


# ---------------------------------------------------------------- selfcheck


def cmd_selfcheck(args):
    """One line per invariant: its worst residual over its sample against its tolerance."""
    passed = 0
    for k, entry in enumerate(INVARIANTS):
        try:
            # a generator per entry: the others do not change its sample
            points = entry.sample(args.quadrature_order, np.random.default_rng([2024, k]))
            worst = np.max([entry.rule(*point) for point in points])  # nan if any is nan
            line = f"residual {worst:.1e}, tol {entry.tol:g}"
        except Exception as exc:  # a numeric blow-up counts as a failure
            worst, line = math.nan, exc
        ok = worst <= entry.tol  # a nan residual fails
        print(f"[{'pass' if ok else 'fail'}] {entry.name}: {line}")
        passed += ok
    print(f"{passed}/{len(INVARIANTS)} checks passed")
    return EXIT_OK if passed == len(INVARIANTS) else EXIT_INVARIANT


# ----------------------------------------------------------- harmonics-table


def cmd_harmonics_table(args):
    d = args.d
    if args.table == "ladder":
        header = ["d", "l", "l_sub", "chi_minus", "chi_plus", "delta_minus", "delta_plus"]
        pairs = [(l, l_sub) for l in range(args.lmax + 1) for l_sub in range(l + 1)]
        coeffs = [harmonics.ladder_coeffs(d, *pair) for pair in pairs]
        values = [(c.chi_minus, c.chi_plus, c.delta_minus, c.delta_plus) for c in coeffs]
        rows = table(np.full(len(pairs), d), *np.array(pairs).T, *np.array(values).T)
        write_rows(header, rows, args.format, args.out)
        return EXIT_OK
    thetas = [0.3, 1.1, 2.2]
    phis = [0.0, 1.7]
    header = ["levels", "m"] + [f"angle{i}" for i in range(d - 1)] + ["re", "im"]
    levels, ms, angles, values = [], [], [], []
    for L in harmonics.all_indices(d, args.lmax):
        for th in thetas:
            for ph in phis:
                point = tuple([th] * (d - 2) + [ph])
                levels.append(" ".join(map(str, L.levels)))
                ms.append(L.m)
                angles.append(point)
                values.append(harmonics.eval_harmonic(d, L, harmonics.SphericalPoint(d, point)))
    angles, values = np.array(angles), np.array(values)
    rows = table(levels, np.array(ms), *angles.T, values.real, values.imag)
    write_rows(header, rows, args.format, args.out)
    return EXIT_OK


# ------------------------------------------------------------- jfactor-audit


def _build_jfactors(args, p, grid):
    if args.jfactors:
        with open(args.jfactors) as fh:
            return acs.jfactors_from_json(fh.read())
    if args.preset == "diagonal":
        return acs.diagonal_jfactors([(w, l) for (w, l) in grid if w != 0.0])
    which = args.candidates[0] if args.candidates else 1
    return acs.candidate_jfactors(which, p, grid)


def cmd_jfactor_audit(args):
    p = ads_modes.AdSParams(args.d, args.delta, args.radius)
    omegas = parse_omega_range(args.omega)
    grid = [(w, l) for w in symmetric_grid(omegas) for l in range(args.lmax + 1)]
    jf = _build_jfactors(args, p, grid)
    rep = acs.check_conditions(jf, tol=args.tolerance)
    header = [
        "omega",
        "l",
        "jaa",
        "jab",
        "jba",
        "jbb",
        "case",
        "square_residual",
        "compat_residual",
        "positive",
    ]
    res = rep.pairs["residuals"]
    square_a, square_b = np.array(res["square_a"]), np.array(res["square_b"])
    rows = table(
        jf._codes.real,  # omega + i l codes, in key order
        jf._codes.imag.astype(int),
        *jf._values.T,
        rep.pairs["case"],
        np.where(square_b > square_a, square_b, square_a),  # max(square_a, square_b)
        np.array(res["compat"]),
        np.array(rep.pairs["positivity_ok"], dtype=bool),
    )
    write_rows(header, rows, args.format, args.out)
    print(
        f"case={rep.case} essential_ok={rep.essential_ok} "
        f"positivity_ok={rep.positivity_ok}",
        file=sys.stderr,
    )
    if args.modes:
        with open(args.modes) as fh:
            phi = ads_modes.mode_vector_from_json(fh.read())
        g_val = acs.g_rho(p, jf, phi)
        print(f"g_rho(modes, modes) = {fmt(float(np.real(g_val)))}", file=sys.stderr)
    return EXIT_OK if rep.essential_ok else EXIT_INVARIANT


# ------------------------------------------------------------ candidate-sweep


def _sweep_points(omegas, lmax):
    """(omega, l) arrays of the rows of a sweep: omega-major, l = 0..lmax."""
    ls = np.arange(lmax + 1)
    return np.repeat(np.array(omegas, dtype=float), len(ls)), np.tile(ls, len(omegas))


def _report_faults(faults):
    """Print each distinct fault message once, in order: EXIT_NUMERIC if any, else None."""
    for message in dict.fromkeys(map(str, faults)):
        print(f"numeric error: {message}", file=sys.stderr)
    return EXIT_NUMERIC if faults else None


def cmd_candidate_sweep(args):
    p = ads_modes.AdSParams(args.d, args.delta)
    omegas, ls = _sweep_points(parse_omega_range(args.omega), args.lmax)
    which_list = args.candidates or [1, 2, 3, 4]
    header = ["candidate", "omega", "l", "jab", "sign_jab", "res_minus", "res_plus"]
    columns, faults = [], []
    worst = 0.0
    grids = acs._candidate_boost_grid(which_list, p, omegas, ls)
    for which, (val, rm, rp, found) in zip(which_list, grids):
        with np.errstate(all="ignore"):
            scale = np.maximum(np.abs(val), 1e-300)
            rm, rp = rm / scale, rp / scale
        # the largest ratio over the rows: fmax skips a nan one
        worst = float(np.fmax.reduce(np.concatenate([rm, rp]), initial=worst))
        sign = np.copysign(1.0, val).astype(int).astype(object)
        sign[list(found)] = "fault"
        columns.append((val, sign, rm, rp))
        faults += found.values()
    k = len(which_list)
    rows = table(
        np.repeat(which_list, omegas.size),
        np.tile(omegas, k),
        np.tile(ls, k),
        *map(np.concatenate, zip(*columns)),
    )
    write_rows(header, rows, args.format, args.out)
    failed = _report_faults(faults)
    print(f"worst relative boost residual: {worst:.3e}", file=sys.stderr)
    return failed or (EXIT_OK if worst <= args.tolerance else EXIT_INVARIANT)


# -------------------------------------------------------------- flux-classify


# The rows of a point, in order: all six above the mass shell, the last two below it.
FLUX_ROWS = (
    ("minkowski", "h1"),
    ("minkowski", "j"),
    ("minkowski", "n"),
    ("ads", "combined"),
    ("ads", "channel_a"),
    ("ads", "channel_b"),
)
MINKOWSKI_R, ADS_RHO = 6.0, 0.7
# a combined row's flux is 4 omega R^(d-1)/p_r times W/(-(2l+d-2)), W the Wronskian of its
# channels, so it is off by as much as W: held to the registry's flux tolerance
COMBINED_TOL = next(entry.tol for entry in INVARIANTS if entry.name == "mode flux values")


@np.errstate(all="ignore")
def _flux_grid(p, omega, l, lmax, p_r, channels):
    """(flux, verdict) arrays of shape (points, 6) over the FLUX_ROWS of the omega-major
    sweep points, by the array forms: bit for bit the float functions, "fault" where they
    raise, and None at the rows a point below the shell lacks (p_r nan there)."""
    fluxes = np.full((omega.size, len(FLUX_ROWS)), np.nan)
    verdicts = np.full(fluxes.shape, None, dtype=object)

    def put(row, at, spacetime, params, radial, rho):
        v = flux.mode_flux(spacetime, params, omega[at], l[at], radial, rho=rho)
        fluxes[at, row], verdicts[at, row] = v.flux_per_time, v.verdict

    up = np.flatnonzero(~np.isnan(p_r))
    if up.size:
        # the points above the shell are whole omega blocks of l = 0..lmax
        x = p_r[up][:: lmax + 1] * MINKOWSKI_R
        for row, (values, derivs) in enumerate(specfun._radial_grid(x, lmax)):
            radial = values.ravel(), specfun._cmul(p_r[up], derivs.ravel())
            put(row, up, "minkowski", {"d": p.d}, radial, MINKOWSKI_R)
        fa, dfa, _ = flux._combined_mode(p, omega[up], l[up], tuple(c[up] for c in channels))
        put(3, up, "ads", p, (fa, dfa), ADS_RHO)
    for channel in (0, 1):
        put(4 + channel, slice(None), "ads", p, channels[2 * channel : 2 * channel + 2], ADS_RHO)
    return fluxes, verdicts


@np.errstate(all="ignore")  # faulted channels are nan and inf
def _wronskian_residual(p, l, channels):
    """|W/(-(2l+d-2)) - 1| of the channels (S_a, dS_a, S_b, dS_b) at ADS_RHO: floats, or
    arrays bit for bit alike; nan where a channel is."""
    return abs(ads_modes._wronskian(p, ADS_RHO, *channels) / -(2.0 * l + p.d - 2.0) - 1.0)


def _wronskian_fault(w, l, residual):
    return specfun.ConvergenceError(
        f"ads combined flux at omega = {w}, l = {l}: its channels' Wronskian is off by "
        f"{residual:.3g} (relative), above {COMBINED_TOL:g}"
    )


def _row_fault(kind, w, l, flux_value, p_r, residual, fault_a, fault_b):
    """The exception behind the faulted flux-classify row FLUX_ROWS[kind] at (w, l): what
    radial_basis or radial_basis_deriv raises at a Minkowski row's x, the fault of the
    channels an AdS row reads (_channel_grid's, a before b), else its non-finite flux's,
    else a combined row's Wronskian residual."""
    spacetime, name = FLUX_ROWS[kind]
    if spacetime == "minkowski":
        try:
            specfun.radial_basis(name, l, p_r * MINKOWSKI_R)
            specfun.radial_basis_deriv(name, l, p_r * MINKOWSKI_R)
        except ArithmeticError as exc:
            return exc
    elif fault := (fault_a or fault_b, fault_a, fault_b)[kind - 3]:  # combined, a, b
        return fault
    if kind == 3 and math.isfinite(flux_value):
        return _wronskian_fault(w, l, residual)
    return flux._flux_fault(spacetime, w, l, flux_value)


def cmd_flux_classify(args):
    p = ads_modes.AdSParams(args.d, args.delta, args.radius)
    omegas = [w for w in parse_omega_range(args.omega) if w != 0.0]
    header = ["spacetime", "kind", "omega", "l", "flux_per_time", "verdict"]
    mass = math.sqrt(abs(p.Delta * (p.Delta - p.d))) / p.R
    omega, l = _sweep_points(omegas, args.lmax)
    channels, (faults_a, faults_b) = ads_modes._channel_grid(p, omega, l, ADS_RHO)
    with np.errstate(over="ignore"):  # p_r is nan below the mass shell
        p_r = np.sqrt(np.where(omega * omega > mass * mass, omega * omega - mass * mass, np.nan))
    fluxes, verdicts = _flux_grid(p, omega, l, args.lmax, p_r, channels)
    residual = _wronskian_residual(p, l, channels)
    verdicts[~np.isnan(p_r) & ~(residual <= COMBINED_TOL), 3] = "fault"
    # the exception behind each faulted row, in row order; then the row's flux is nan
    at, kind = faulted = np.nonzero(verdicts == "fault")
    columns = (at, kind, omega[at], l[at], fluxes[faulted], p_r[at], residual[at])
    faults = [
        _row_fault(k, w, li, f, x, r, faults_a.get(i), faults_b.get(i))
        for i, k, w, li, f, x, r in zip(*(c.tolist() for c in columns))
    ]
    fluxes[faulted] = np.nan
    points, kinds = np.nonzero(np.not_equal(verdicts, None))  # the rows present
    spacetimes, names = (np.array(column, dtype=object)[kinds] for column in zip(*FLUX_ROWS))
    present = (omega[points], l[points], fluxes[points, kinds], verdicts[points, kinds])
    write_rows(header, table(spacetimes, names, *present), args.format, args.out)
    return _report_faults(faults) or EXIT_OK


# ----------------------------------------------------------------- interface


SUBCOMMANDS = {
    command: (handler, reads.split())
    for command, handler, reads in [
        ("selfcheck", cmd_selfcheck, "quadrature_order"),
        ("harmonics-table", cmd_harmonics_table, "d lmax format out table"),
        (
            "jfactor-audit",
            cmd_jfactor_audit,
            "d delta radius omega lmax candidates format out tolerance preset jfactors modes",
        ),
        (
            "candidate-sweep",
            cmd_candidate_sweep,
            "d delta omega lmax candidates format out tolerance",
        ),
        ("flux-classify", cmd_flux_classify, "d delta radius omega lmax format out"),
    ]
}


@functools.cache
def build_parser():
    """Each subcommand takes --config and the options it reads, none with a parser default."""
    parser = argparse.ArgumentParser(
        prog="adskg",
        description="Mode-space audits for Klein-Gordon theory on hypercylinders",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, names) in SUBCOMMANDS.items():
        cmd = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        for name in ["config", *names]:
            opt = OPTIONS[name]
            cmd.add_argument(
                "--" + name.replace("_", "-"),
                type=opt.type,
                choices=opt.choices,
                nargs=opt.nargs,
                help=opt.help,
            )
    return parser


def main(argv=None):
    flags = vars(build_parser().parse_args(argv))
    handler, names = SUBCOMMANDS[flags.pop("command")]
    try:
        # the defaults, overlaid by the config values, overlaid by the flags given
        settings = {name: OPTIONS[name].default for name in names}
        if "config" in flags:
            settings.update(_config_settings(load_config(flags.pop("config")), names))
        settings.update(flags)
        _check_settings(settings)
        return handler(argparse.Namespace(**settings))
    except (ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (specfun.PoleError, specfun.ConvergenceError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
