"""Command-line front end: invariant audits, sweeps, tables.

Subcommands: selfcheck, harmonics-table, jfactor-audit, candidate-sweep,
flux-classify.  Options may come from flags or a flat key=value config
file (flags win).  Exit codes: 0 ok, 1 invariant failure, 2 config
error, 3 numeric pole or overflow.
"""

import argparse
import math
import sys
from itertools import chain

import numpy as np

from . import ads_complex_structure as acs
from . import ads_modes, flux, geometry, harmonics, specfun
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


def write_rows(header, rows, out_format, out_path):
    if out_format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        # json.dumps([dict(zip(header, row)) ...], indent=1, sort_keys=True):
        # a repeated name keeps its last column
        column = dict(zip(header, range(len(header))))
        keys = sorted(column)
        columns = list(zip(*rows, strict=True)) or [()] * len(header)
        if len(columns) != len(header):
            raise ValueError("each row needs one value per header name")
        cells = list(chain.from_iterable(zip(*(columns[column[key]] for key in keys))))
        # complex values become the same fmt strings as in CSV cells
        fields = [(key, None) for key in keys]
        text = records(fields, len(rows), encode_items(cells, default=fmt)) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_omega_range(text):
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except Exception as exc:
        raise ValueError(f"--omega expects start:stop:step, got {text!r}") from exc
    if step <= 0 or stop < start:
        raise ValueError("--omega needs step > 0 and stop >= start")
    count = int(round((stop - start) / step))
    grid = [start + i * step for i in range(count + 1)]
    return [round(w, 12) for w in grid if w <= stop + 1e-12]


def symmetric_grid(omegas, include_zero=True):
    out = set()
    for w in omegas:
        if w == 0.0 and not include_zero:
            continue
        out.add(w)
        out.add(-w)
    return sorted(out)


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


_CONFIG_TYPES = {
    "d": int,
    "delta": float,
    "radius": float,
    "omega": str,
    "lmax": int,
    "format": str,
    "out": str,
    "quadrature_order": int,
    "tolerance": float,
    "table": str,
    "preset": str,
    "jfactors": str,
    "modes": str,
}


def apply_config(args, config, explicit):
    """Overlay config-file values; explicitly passed flags win."""
    for key, val in config.items():
        if key == "candidates":
            val = [int(v) for v in val.replace(",", " ").split()]
        elif key in _CONFIG_TYPES:
            val = _CONFIG_TYPES[key](val)
        else:
            raise ValueError(f"unknown config key {key!r}")
        if not hasattr(args, key):
            raise ValueError(f"config key {key!r} does not apply to this subcommand")
        if key in explicit:
            continue
        setattr(args, key, val)


# ---------------------------------------------------------------- selfcheck


def _selfcheck_suite(order=24):
    rng = np.random.default_rng(2024)

    def gamma_recurrence():
        xs = rng.uniform(0.1, 50.0, size=50)
        return all(
            abs(specfun.gamma_value(x + 1.0) - x * specfun.gamma_value(x))
            <= 1e-12 * abs(x * specfun.gamma_value(x))
            for x in xs
        )

    def hankel_envelope():
        for l in range(5):
            for x in np.linspace(0.5, 20.0, 12):
                h1 = specfun.radial_basis("h1", l, float(x))
                j = specfun.radial_basis("j", l, float(x)).real
                n = specfun.radial_basis("n", l, float(x)).real
                if abs(abs(h1) ** 2 - (j * j + n * n)) > 1e-10 * abs(h1) ** 2:
                    return False
        return True

    def evanescent_real():
        # i_l(x) = i^-l j_l(ix) and i^(l+1) n_l(ix) in closed form
        closed = {
            ("j_evan", 0): lambda x, c, s: s / x,
            ("j_evan", 1): lambda x, c, s: (x * c - s) / x**2,
            ("j_evan", 2): lambda x, c, s: ((x * x + 3.0) * s - 3.0 * x * c) / x**3,
            ("n_evan", 0): lambda x, c, s: -c / x,
            ("n_evan", 1): lambda x, c, s: (x * s - c) / x**2,
            ("n_evan", 2): lambda x, c, s: (3.0 * x * s - (x * x + 3.0) * c) / x**3,
        }
        for (kind, l), form in closed.items():
            for x in (0.5, 2.0):
                value = specfun.radial_basis(kind, l, x)
                exact = form(x, math.cosh(x), math.sinh(x))
                if value.imag != 0.0 or abs(value.real - exact) > 1e-12 * abs(exact):
                    return False
        return True

    def orthonormality():
        for d in (3, 4, 5):
            idx = harmonics.all_indices(d, 3)
            gram = harmonics.harmonic_gram(d, idx, order=order)
            if np.abs(gram - np.eye(len(idx))).max() > 1e-8:
                return False
        return True

    def contiguous():
        for d in (3, 5):
            for L in harmonics.all_indices(d, 3):
                angles = list(rng.uniform(0.3, 2.8, size=d - 2)) + [rng.uniform(0, 6.28)]
                p = harmonics.SphericalPoint(d, tuple(angles))
                l = L.levels[0]
                lsub = L.levels[1] if d > 3 else abs(L.m)
                lc = harmonics.ladder_coeffs(d, l, lsub)
                lhs = math.cos(angles[0]) * harmonics.eval_harmonic(d, L, p)
                rhs = lc.chi_plus * harmonics.eval_harmonic(
                    d, harmonics.MultiIndex((l + 1,) + L.levels[1:], L.m), p
                )
                if lc.chi_minus:
                    rhs += lc.chi_minus * harmonics.eval_harmonic(
                        d, harmonics.MultiIndex((l - 1,) + L.levels[1:], L.m), p
                    )
                if abs(lhs - rhs) > 1e-10:
                    return False
        return True

    def wigner_completeness():
        rot = harmonics.rotation_matrix_zyz(0.9, 0.4, -1.2)
        for l in range(3):
            block = harmonics.wigner_block_quadrature(3, l, rot.T, order=order)
            gram = block @ np.conj(block.T)
            if np.abs(gram - np.eye(2 * l + 1)).max() > 1e-8:
                return False
        return True

    def killing_structure():
        return (
            geometry.structure_check(geometry.Signature(1, 3)).ok
            and geometry.structure_check(geometry.Signature(2, 3)).ok
        )

    def wronskian():
        for d, delta in ((3, 4.2), (5, 3.1)):
            p = ads_modes.AdSParams(d, delta)
            for omega in (0.0, 1.3):
                for l in (0, 2):
                    vals = [
                        ads_modes.radial_wronskian(p, omega, l, rho) for rho in (0.2, 0.6, 1.0)
                    ]
                    target = -(2.0 * l + d - 2.0)
                    if max(abs(v - target) for v in vals) > 1e-6 * abs(target):
                        return False
        return True

    def candidates_boost():
        for d, delta in ((3, 4.2), (5, 3.7)):
            p = ads_modes.AdSParams(d, delta)
            for which in (1, 2, 3, 4):
                for omega in (0.0, 0.5, 1.5):
                    for l in (0, 1):
                        jab = lambda w, ll: acs.candidate_jab(which, p, w, ll)
                        rm, rp = acs.boost_recurrence_residual(p, jab, omega, l)
                        if max(rm, rp) > 1e-10 * abs(jab(omega, l)):
                            return False
        return True

    def j_square_compat():
        p = ads_modes.AdSParams(3, 4.2)
        grid = [(w, l) for w in (0.5, 1.5, -0.5, -1.5) for l in (0, 1)]
        jf = acs.candidate_jfactors(1, p, grid)
        rep = acs.check_conditions(jf)
        if not (rep.essential_ok and rep.case == "nondiagonal"):
            return False
        phi = ads_modes.random_real_mode_vector(3, [0.5, 1.5], 1, rng)
        eta = ads_modes.random_real_mode_vector(3, [0.5, 1.5], 1, rng)
        base = ads_modes.omega_rho(p, phi, eta)
        after = ads_modes.omega_rho(p, acs.apply_J(jf, phi), acs.apply_J(jf, eta))
        return abs(after - base) <= 1e-10 * max(1.0, abs(base))

    def diagonal_zero_norm():
        p = ads_modes.AdSParams(3, 4.2)
        grid = [(w, l) for w in (0.5, 1.5, -0.5, -1.5) for l in (0, 1)]
        jd = acs.diagonal_jfactors(grid)
        phi = ads_modes.random_real_mode_vector(3, [0.5, 1.5], 1, rng)
        return abs(acs.g_rho(p, jd, phi)) < 1e-12

    def flux_values():
        omega, mass = 2.0, 1.0
        p_r = math.sqrt(omega**2 - mass**2)
        f = specfun.radial_basis("h1", 0, p_r * 5.0)
        df = p_r * specfun.radial_basis_deriv("h1", 0, p_r * 5.0)
        v = flux.mode_flux("minkowski", {"d": 3}, omega, 0, (f, df), rho=5.0)
        if abs(v.flux_per_time - 2.0 * omega / p_r) > 1e-8:
            return False
        p = ads_modes.AdSParams(3, 4.2)
        fa, dfa, pr2 = flux.ads_combined_mode(p, 2.5, 1, 0.7)
        v2 = flux.mode_flux("ads", p, 2.5, 1, (fa, dfa), rho=0.7)
        return abs(v2.flux_per_time - 4.0 * 2.5 / pr2) <= 1e-8 * abs(v2.flux_per_time)

    def quadrature_omega():
        n, length, e = 64, 2.0 * math.pi, 1.3
        xs = np.arange(n) * (length / n)
        k = 3.0
        from .structures import SampledField, theta_omega_quadrature

        eta = SampledField((length,), np.cos(-k * xs), -e * np.sin(-k * xs))
        zeta = SampledField((length,), np.sin(-k * xs), e * np.cos(-k * xs))
        _, om = theta_omega_quadrature(eta, zeta)
        return abs(om.real - e * length / 2.0) < 1e-6

    return [
        ("gamma recurrence", gamma_recurrence),
        ("hankel envelope", hankel_envelope),
        ("evanescent series real", evanescent_real),
        ("harmonic orthonormality", orthonormality),
        ("contiguous relations", contiguous),
        ("wigner completeness", wigner_completeness),
        ("killing structure constants", killing_structure),
        ("radial wronskian", wronskian),
        ("candidate boost recurrences", candidates_boost),
        ("J conditions and compatibility", j_square_compat),
        ("diagonal zero norm", diagonal_zero_norm),
        ("mode flux values", flux_values),
        ("plane-wave symplectic quadrature", quadrature_omega),
    ]


def cmd_selfcheck(args):
    suite = _selfcheck_suite(order=args.quadrature_order)
    failures = 0
    for name, check in suite:
        try:
            ok = check()
        except Exception as exc:  # a numeric blow-up counts as a failure
            ok = False
            print(f"[fail] {name}: {exc}")
        else:
            print(f"[{'pass' if ok else 'fail'}] {name}")
        failures += 0 if ok else 1
    print(f"{len(suite) - failures}/{len(suite)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


# ----------------------------------------------------------- harmonics-table


def cmd_harmonics_table(args):
    d = args.d
    if args.table == "ladder":
        header = ["d", "l", "l_sub", "chi_minus", "chi_plus", "delta_minus", "delta_plus"]
        rows = []
        for l in range(args.lmax + 1):
            for lsub in range(l + 1):
                lc = harmonics.ladder_coeffs(d, l, lsub)
                rows.append([d, l, lsub, lc.chi_minus, lc.chi_plus, lc.delta_minus, lc.delta_plus])
        write_rows(header, rows, args.format, args.out)
        return EXIT_OK
    thetas = [0.3, 1.1, 2.2]
    phis = [0.0, 1.7]
    header = ["levels", "m"] + [f"angle{i}" for i in range(d - 1)] + ["re", "im"]
    rows = []
    for L in harmonics.all_indices(d, args.lmax):
        for th in thetas:
            for ph in phis:
                angles = tuple([th] * (d - 2) + [ph])
                val = harmonics.eval_harmonic(d, L, harmonics.SphericalPoint(d, angles))
                rows.append([" ".join(map(str, L.levels)), L.m, *angles, val.real, val.imag])
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
    include_zero = args.preset != "diagonal"
    grid = [
        (w, l)
        for w in symmetric_grid(omegas, include_zero=include_zero)
        for l in range(args.lmax + 1)
    ]
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
    pairs, table = rep.pairs, jf.table
    res = pairs["residuals"]
    square = map(max, res["square_a"], res["square_b"])
    columns = zip(pairs["case"], square, res["compat"], pairs["positivity_ok"])
    rows = [[w, l, *table[(w, l)], *cells] for (w, l), cells in zip(jf.keys(), columns)]
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


def cmd_candidate_sweep(args):
    p = ads_modes.AdSParams(args.d, args.delta, args.radius)
    omegas = parse_omega_range(args.omega)
    which_list = args.candidates or [1, 2, 3, 4]
    header = ["candidate", "omega", "l", "jab", "sign_jab", "res_minus", "res_plus"]
    rows = []
    worst = 0.0
    for which in which_list:
        jab = lambda w, ll: acs.candidate_jab(which, p, w, ll)
        for w in omegas:
            for l in range(args.lmax + 1):
                val = jab(w, l)
                rm, rp = acs.boost_recurrence_residual(p, jab, w, l)
                scale = max(abs(val), 1e-300)
                worst = max(worst, rm / scale, rp / scale)
                rows.append(
                    [which, w, l, float(val), int(math.copysign(1.0, val)), rm / scale, rp / scale]
                )
    write_rows(header, rows, args.format, args.out)
    print(f"worst relative boost residual: {worst:.3e}", file=sys.stderr)
    return EXIT_OK if worst <= args.tolerance else EXIT_INVARIANT


# -------------------------------------------------------------- flux-classify


def cmd_flux_classify(args):
    p = ads_modes.AdSParams(args.d, args.delta, args.radius)
    omegas = [w for w in parse_omega_range(args.omega) if w != 0.0]
    header = ["spacetime", "kind", "omega", "l", "flux_per_time", "verdict"]
    rows = []
    mass = math.sqrt(abs(p.Delta * (p.Delta - p.d))) / p.R
    for w in omegas:
        for l in range(args.lmax + 1):
            if w * w > mass * mass:
                p_r = math.sqrt(w * w - mass * mass)
                r = 6.0
                for kind in ("h1", "j", "n"):
                    f = specfun.radial_basis(kind, l, p_r * r)
                    df = p_r * specfun.radial_basis_deriv(kind, l, p_r * r)
                    v = flux.mode_flux("minkowski", {"d": args.d}, w, l, (f, df), rho=r)
                    rows.append(["minkowski", kind, w, l, v.flux_per_time, v.verdict])
                fa, dfa, _ = flux.ads_combined_mode(p, w, l, 0.7)
                v = flux.mode_flux("ads", p, w, l, (fa, dfa), rho=0.7)
                rows.append(["ads", "combined", w, l, v.flux_per_time, v.verdict])
            for channel in ("a", "b"):
                fr = ads_modes.radial_eval(p, w, l, channel, 0.7)
                dfr = ads_modes.radial_eval_deriv(p, w, l, channel, 0.7)
                v = flux.mode_flux("ads", p, w, l, (fr, dfr), rho=0.7)
                rows.append(["ads", f"channel_{channel}", w, l, v.flux_per_time, v.verdict])
    write_rows(header, rows, args.format, args.out)
    return EXIT_OK


# ----------------------------------------------------------------- interface


_DEFAULTS = {
    "config": None,
    "d": 3,
    "delta": 4.2,
    "radius": 1.0,
    "omega": "0:3:0.5",
    "lmax": 3,
    "candidates": None,
    "format": "csv",
    "out": None,
    "quadrature_order": 24,
    "tolerance": 1e-10,
}


def build_parser(suppress_defaults=False):
    def dflt(key):
        return argparse.SUPPRESS if suppress_defaults else _DEFAULTS[key]

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=dflt("config"), help="flat key=value defaults file")
    common.add_argument("--d", type=int, default=dflt("d"), help="spatial dimension")
    common.add_argument("--delta", type=float, default=dflt("delta"), help="conformal weight")
    common.add_argument("--radius", type=float, default=dflt("radius"), help="curvature radius")
    common.add_argument(
        "--omega", default=dflt("omega"), help="frequency grid start:stop:step"
    )
    common.add_argument("--lmax", type=int, default=dflt("lmax"), help="largest angular momentum")
    common.add_argument(
        "--candidates",
        type=int,
        nargs="*",
        default=dflt("candidates"),
        help="candidate indices (subset of 1..4)",
    )
    common.add_argument("--format", choices=("csv", "json"), default=dflt("format"))
    common.add_argument("--out", default=dflt("out"), help="output file (default stdout)")
    common.add_argument(
        "--quadrature-order",
        type=int,
        default=dflt("quadrature_order"),
        dest="quadrature_order",
    )
    common.add_argument("--tolerance", type=float, default=dflt("tolerance"))

    parser = argparse.ArgumentParser(
        prog="adskg",
        description="Mode-space audits for Klein-Gordon theory on hypercylinders",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("selfcheck", parents=[common]).set_defaults(func=cmd_selfcheck)
    tab = sub.add_parser("harmonics-table", parents=[common])
    tab.add_argument(
        "--table",
        choices=("values", "ladder"),
        default=argparse.SUPPRESS if suppress_defaults else "values",
    )
    tab.set_defaults(func=cmd_harmonics_table)
    aud = sub.add_parser("jfactor-audit", parents=[common])
    aud.add_argument(
        "--preset",
        choices=("candidate", "diagonal"),
        default=argparse.SUPPRESS if suppress_defaults else "candidate",
    )
    aud.add_argument(
        "--jfactors",
        default=argparse.SUPPRESS if suppress_defaults else None,
        help="JFactors JSON file to audit",
    )
    aud.add_argument(
        "--modes",
        default=argparse.SUPPRESS if suppress_defaults else None,
        help="ModeVector JSON to score with g_rho",
    )
    aud.set_defaults(func=cmd_jfactor_audit)
    sub.add_parser("candidate-sweep", parents=[common]).set_defaults(func=cmd_candidate_sweep)
    sub.add_parser("flux-classify", parents=[common]).set_defaults(func=cmd_flux_classify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    explicit = vars(build_parser(suppress_defaults=True).parse_args(argv))
    try:
        if args.config:
            apply_config(args, load_config(args.config), explicit)
        if args.candidates and any(c not in (1, 2, 3, 4) for c in args.candidates):
            raise ValueError("candidate indices must lie in 1..4")
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (specfun.PoleError, specfun.ConvergenceError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
