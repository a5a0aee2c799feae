"""Verification of every job's output, run off the clock.

Each check compares the package's output with a reference the benchmark
computes on its own: mpmath for hypergeometric channels and Gamma
candidates, closed forms for fluxes and Wronskians, and the algebraic
identities the paper relies on (antisymmetry and invariance of omega_rho,
J^2 = -1, unitarity, orthonormality, the addition theorem).  A verdict is
"ok" with its row count and correct digits, "known" for a failure of the
generate.KNOWN_FAILURES class the generator predicted for the job, or
"unexpected".
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from generate import h1_flux_error, harmonic_dim, label_list

DIGITS_CAP = 16.0
VALUE_TOL = 1e-8  # mpmath and closed-form values; the package's value tolerance
WRONSKIAN_TOL = 1e-6  # value -(2l + d - 2), as the acceptance suite states it
IDENTITY_TOL = 1e-10  # complex-structure and omega_rho identities
UNITARY_TOL = 1e-8  # orthonormality and Wigner unitarity


@dataclass
class Verdict:
    status: str
    rows: int = 0
    digits: float = None
    failure: str = None


class Mismatch(Exception):
    """A job's output disagrees with its reference."""


def digits_of(err):
    return DIGITS_CAP if err <= 10.0**-DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


def _require(cond, what):
    if not cond:
        raise Mismatch(what)


def _rel(got, want, scale=None):
    scale = abs(want) if scale is None else scale
    return abs(got - want) / scale if scale else abs(got - want)


def _rows(job, out):
    if job.out_path:
        with open(job.out_path) as fh:
            text = fh.read()
    else:
        text = out.stdout
    if job.params.get("fmt", "csv") == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------- references


def mp_candidate(which, d, delta, omega, l):
    """Gamma-ratio candidate in mpmath; reciprocal Gamma keeps denominator poles at 0."""
    with mp.workdps(30):
        D, w = mp.mpf(delta), mp.mpf(omega)
        aa, ba = (D - w + l) / 2, (D + w + l) / 2
        ab, bb = (D - w - l - d + 2) / 2, (D + w - l - d + 2) / 2
        g = l + mp.mpf(d) / 2
        G, R = mp.gamma, mp.rgamma
        common = R(g) * R(g - 1)
        if which == 1:
            v = (-1) ** l * G(aa) * G(ba) * R(ab) * R(bb)
        elif which == 2:
            v = (-1) ** l * G(1 - ab) * G(1 - bb) * R(1 - aa) * R(1 - ba)
        elif which == 3:
            v = R(ab) * R(bb) * R(1 - aa) * R(1 - ba)
        else:
            v = G(aa) * G(ba) * G(1 - ab) * G(1 - bb)
        return float(v * common)


def mp_radial(d, delta, omega, l, channel, rho):
    """(S, dS/drho) of a radial channel with unit leading coefficient, in mpmath."""
    with mp.workdps(30):
        D, w = mp.mpf(delta), mp.mpf(omega)
        if channel == "a":
            e, a, b, c = l, (D - w + l) / 2, (D + w + l) / 2, l + mp.mpf(d) / 2
        else:
            e = 2 - d - l
            a, b = (D - w - l - d + 2) / 2, (D + w - l - d + 2) / 2
            c = 2 - l - mp.mpf(d) / 2

        def f(r):
            s = mp.sin(r)
            return s**e * mp.cos(r) ** D * mp.hyp2f1(a, b, c, s * s)

        return float(f(rho)), float(mp.diff(f, mp.mpf(rho)))


# ---------------------------------------------------------------- checks


def check_candidate_sweep(adskg, job, out, rng):
    p = job.params
    rows = _rows(job, out)
    want = [(c, w, l) for c in p["which"] for w in p["omegas"] for l in range(p["lmax"] + 1)]
    _require(len(rows) == len(want), f"{len(rows)} rows, expected {len(want)}")
    worst = 0.0
    for row, (c, w, l) in zip(rows, want):
        _require(int(row["candidate"]) == c and int(row["l"]) == l, "row order")
        _require(abs(float(row["omega"]) - w) <= 1e-9, "omega column")
        jab = float(row["jab"])
        _require(int(row["sign_jab"]) == (1 if jab > 0 else -1), "sign_jab disagrees with jab")
        res = max(float(row["res_minus"]), float(row["res_plus"]))
        _require(res <= p["tolerance"], f"boost residual {res:.3e} above --tolerance")
        worst = max(worst, res)
    for i in rng.choice(len(rows), size=min(3, len(rows)), replace=False):
        c, w, l = want[i]
        ref = mp_candidate(c, p["d"], p["delta"], w, l)
        err = _rel(float(rows[i]["jab"]), ref)
        _require(err <= VALUE_TOL, f"jab({c}, {w}, {l}) off mpmath by {err:.2e}")
        worst = max(worst, err)
    return len(rows), digits_of(worst)


def _radial_spot_checks(adskg, p, rng, rho=0.7):
    modes = adskg.ads_modes
    params = modes.AdSParams(p["d"], p["delta"])
    worst = 0.0
    for i in rng.choice(len(p["omegas"]), size=min(2, len(p["omegas"])), replace=False):
        w = p["omegas"][i]
        l = int(rng.integers(0, p["lmax"] + 1))
        scale_w = max(1.0, abs(w))
        for channel in ("a", "b"):
            s_ref, ds_ref = mp_radial(p["d"], p["delta"], w, l, channel, rho)
            amplitude = math.hypot(s_ref, ds_ref / scale_w)
            err = max(
                _rel(modes.radial_eval(params, w, l, channel, rho), s_ref, amplitude),
                _rel(modes.radial_eval_deriv(params, w, l, channel, rho), ds_ref, amplitude * scale_w),
            )
            _require(err <= VALUE_TOL, f"channel {channel} at ({w}, {l}) off mpmath by {err:.2e}")
            worst = max(worst, err)
        target = -(2.0 * l + p["d"] - 2.0)
        err = _rel(modes.radial_wronskian(params, w, l, rho), target)
        _require(err <= WRONSKIAN_TOL, f"Wronskian at ({w}, {l}) off -(2l+d-2) by {err:.2e}")
        worst = max(worst, err)
    return worst


def check_flux(adskg, job, out, rng):
    p = job.params
    d, delta = p["d"], p["delta"]
    m_sq = delta * (delta - d)
    r = 6.0
    want = []
    for w in p["omegas"]:
        for l in range(p["lmax"] + 1):
            if w * w > abs(m_sq):
                p_r = math.sqrt(w * w - abs(m_sq))
                flat = 2.0 * w * r ** (d - 3) / p_r
                want += [("minkowski", "h1", w, l, flat), ("minkowski", "j", w, l, 0.0)]
                want += [("minkowski", "n", w, l, 0.0)]
                want.append(("ads", "combined", w, l, 4.0 * w / math.sqrt(abs(w * w - m_sq))))
            want += [("ads", "channel_a", w, l, 0.0), ("ads", "channel_b", w, l, 0.0)]
    rows = _rows(job, out)
    _require(len(rows) == len(want), f"{len(rows)} rows, expected {len(want)}")
    worst = 0.0
    for row, (space, kind, w, l, flux) in zip(rows, want):
        _require(row["spacetime"] == space and row["kind"] == kind and int(row["l"]) == l, "row order")
        _require(abs(float(row["omega"]) - w) <= 1e-9, "omega column")
        got = float(row["flux_per_time"])
        if flux == 0.0:
            _require(got == 0.0 and row["verdict"] == "standing", f"{kind} flux {got} should be standing")
            continue
        err = _rel(got, flux)
        near_shell = kind == "combined" or h1_flux_error(l, math.sqrt(w * w - abs(m_sq)) * r) > 1e-11
        if err > VALUE_TOL and kind == "h1" and near_shell:
            raise Mismatch(f"flux-rows: h1 flux at ({w}, {l}) off the closed form by {err:.2e}")
        _require(err <= VALUE_TOL, f"{kind} flux at ({w}, {l}) off the closed form by {err:.2e}")
        if row["verdict"] == "standing" and near_shell:
            raise Mismatch(f"flux-rows: nonzero {kind} flux {got} at ({w}, {l}) labelled standing")
        _require(row["verdict"] == ("outgoing" if got > 0 else "incoming"), "verdict disagrees with flux sign")
        worst = max(worst, err)
    worst = max(worst, _radial_spot_checks(adskg, p, rng))
    return len(rows), digits_of(worst)


def _g_reference(spec):
    """g_rho(phi, phi) of a modes/j-factor file pair, and its term scale."""
    d, w8 = spec["d"], spec["weight"]
    total, scale = 0.0, 0.0
    for (w, levels, m), (a, b) in spec["entries"].items():
        j = spec["table"][(w, levels[0])]
        jaa, jab, jba = (complex(*j[k]) for k in ("jaa", "jab", "jba"))
        weight = w8 * (2.0 * levels[0] + d - 2.0)
        total += weight * (jba * abs(a) ** 2 - jab * abs(b) ** 2 - 2.0 * jaa * (a * b.conjugate()).real)
        scale += weight * (abs(jba) * abs(a) ** 2 + abs(jab) * abs(b) ** 2 + 2.0 * abs(jaa) * abs(a * b))
    return math.pi * total.real, math.pi * scale


def check_jfactor_audit(adskg, job, out, rng):
    p = job.params
    rows = _rows(job, out)
    keys = p["keys"]
    _require(len(rows) == len(keys), f"{len(rows)} rows, expected {len(keys)}")
    worst = 0.0
    for row, (w, l) in zip(rows, keys):
        _require(abs(float(row["omega"]) - w) <= 1e-9 and int(row["l"]) == l, "row keys")
        if row["case"] == "invalid" and p["case"] == "nondiagonal" and abs(complex(row["jab"])) <= 1e-5:
            raise Mismatch(f"jfactor-case: |jab| {row['jab']} at ({w}, {l}) classified invalid")
        _require(row["case"] == p["case"], f"case {row['case']} at ({w}, {l}), expected {p['case']}")
        res = max(float(row["square_residual"]), float(row["compat_residual"]))
        _require(res <= p["tolerance"], f"condition residual {res:.2e} at ({w}, {l})")
        worst = max(worst, res)
    _require("essential_ok=True" in out.stderr, "essential conditions reported failing")
    spec = p.get("file")
    if spec is not None:
        line = [s for s in out.stderr.splitlines() if s.startswith("g_rho(modes, modes) = ")]
        _require(len(line) == 1, "no g_rho line")
        ref, scale = _g_reference(spec)
        err = _rel(float(line[0].split("=")[1]), ref, scale)
        _require(err <= IDENTITY_TOL, f"g_rho off the reference by {err:.2e}")
        worst = max(worst, err)
    return len(rows), digits_of(worst)


def check_session(adskg, job, out, rng):
    p, v, inputs = job.params, out.value, job.inputs
    report = v["report"]
    _require(report.essential_ok, "essential conditions fail")
    if report.case == "invalid" and p["jkind"] == "candidate":
        raise Mismatch("jfactor-case: a candidate |jab| <= 1e-5 makes the structure invalid")
    _require(report.case == ("nondiagonal" if p["jkind"] == "candidate" else "diagonal"), f"case {report.case}")
    _require(v["real"] and v["real_t"], "reality lost")
    _require(v["back"] == v["phi"], "JSON round trip is not exact")
    _require(isinstance(v["g"], float), "g_rho of a real solution is not real")
    scale = 0.0
    for (w, levels, m), (a, b) in list(inputs["phi"].items()) + list(inputs["eta"].items()):
        scale += p["step"] * (2.0 * levels[0] + p["d"] - 2.0) * (abs(a) ** 2 + abs(b) ** 2)
    scale *= math.pi / 2.0
    base = v["omega"]
    errs = [
        _rel(v["omega_swapped"], -base, scale),
        _rel(v["omega_j"], base, scale),
        _rel(v["omega_t"], base, scale),
        _rel(v["omega_r"], base, scale),
    ]
    jj = v["jj_phi"].entries
    norm = max(max(abs(a), abs(b)) for (a, b) in inputs["phi"].values())
    errs.append(
        max(
            max(abs(jj.get(k, (0, 0))[0] + a), abs(jj.get(k, (0, 0))[1] + b))
            for k, (a, b) in v["phi"].entries.items()
        )
        / norm
    )
    names = ("antisymmetry", "J invariance", "time-translation invariance", "rotation invariance", "J^2 = -1")
    for name, err in zip(names, errs):
        _require(err <= IDENTITY_TOL, f"{name} residual {err:.2e}")
    return len(inputs["phi"]), digits_of(max(errs))


def _identity_error(m):
    return float(np.abs(m - np.eye(len(m))).max())


def check_matrix(adskg, job, out, rng):
    value = out.value
    if job.kind == "grid-matrix":
        y, w = value
        gram = np.zeros((len(y), len(y)), dtype=complex)
        for c in range(0, y.shape[1], 4096):  # in chunks, so the check adds little to peak memory
            block = y[:, c : c + 4096]
            gram += (block * w[c : c + 4096]) @ np.conj(block.T)
    elif job.kind == "wigner-small-d":
        gram = value @ value.T
    elif job.kind in ("wigner-euler", "wigner-quadrature"):
        gram = value @ np.conj(value.T)
    else:
        gram = value
    err = _identity_error(gram)
    if err > UNITARY_TOL:
        raise Mismatch(f"{job.kind}: distance from the identity {err:.2e}")
    return len(gram), digits_of(err)


def check_structure(adskg, job, out, rng):
    report = out.value
    _require(report.ok, f"structure constants mismatch: {report.mismatches[:3]}")
    n = report.signature.n
    pairs = n * (n - 1) // 2
    return pairs * pairs + n * pairs + n * n, None


def check_selfcheck(adskg, job, out, rng):
    lines = out.stdout.strip().splitlines()
    _require(out.rc == 0, f"selfcheck exit {out.rc}")
    passed, total = lines[-1].split()[0].split("/")
    _require(passed == total and int(total) == len(lines) - 1, lines[-1])
    return int(total), None


def check_harmonics_table(adskg, job, out, rng):
    p = job.params
    d, lmax = p["d"], p["lmax"]
    rows = _rows(job, out)
    worst = 0.0
    if p["table"] == "ladder":
        _require(len(rows) == (lmax + 1) * (lmax + 2) // 2, "row count")
        chi = {(int(r["l"]), int(r["l_sub"])): r for r in rows}
        for (l, s), r in chi.items():
            cm, cp = float(r["chi_minus"]), float(r["chi_plus"])
            errs = [_rel(float(r["delta_minus"]), (l + d - 2.0) * cm, max(1.0, abs(cm)))]
            errs.append(_rel(float(r["delta_plus"]), -l * cp, max(1.0, l * abs(cp))))
            if (l + 1, s) in chi:
                # cos(theta) is self-adjoint: <Y_{l+1}|cos|Y_l> both ways
                errs.append(_rel(float(chi[(l + 1, s)]["chi_minus"]), cp))
            worst = max([worst] + errs)
        _require(worst <= VALUE_TOL, f"ladder identities off by {worst:.2e}")
        return len(rows), digits_of(worst)
    labels = label_list(d, lmax)
    _require(len(rows) == 6 * len(labels), "row count")
    area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    sums = {}
    for r in rows:
        l = int(str(r["levels"]).split()[0])
        point = tuple(round(float(r[f"angle{i}"]), 12) for i in range(d - 1))
        sums[(point, l)] = sums.get((point, l), 0.0) + float(r["re"]) ** 2 + float(r["im"]) ** 2
    for (point, l), total in sums.items():
        # addition theorem: sum over a level of |Y_L|^2 is dim / area everywhere
        worst = max(worst, _rel(total, harmonic_dim(d, l) / area))
    _require(worst <= VALUE_TOL, f"addition theorem off by {worst:.2e}")
    return len(rows), digits_of(worst)


CHECKS = {
    "candidate-sweep": check_candidate_sweep,
    "flux-classify": check_flux,
    "jfactor-audit": check_jfactor_audit,
    "session": check_session,
    "gram": check_matrix,
    "grid-matrix": check_matrix,
    "wigner-quadrature": check_matrix,
    "wigner-small-d": check_matrix,
    "wigner-euler": check_matrix,
    "structure-check": check_structure,
    "selfcheck": check_selfcheck,
    "harmonics-table": check_harmonics_table,
}


def known_failure(adskg, job, out, mismatch=None):
    """The KNOWN_FAILURES class a failed job's output shows, or None."""
    if mismatch is not None:
        if job.kind in ("wigner-small-d", "wigner-euler") and "distance from the identity" in str(mismatch):
            return "wigner-unitarity"
        for cls in ("flux-rows", "jfactor-case"):
            if str(mismatch).startswith(cls + ":"):
                return cls
        return None
    if job.argv is not None:
        if isinstance(out.exc, TypeError) and job.kind == "jfactor-audit" and job.params["fmt"] == "json":
            return "jfactor-json" if "not JSON serializable" in str(out.exc) else None
        if out.exc is not None or out.rc != 3:
            return None
        if "Gamma pole at argument" in out.stderr:
            return "gamma-pole"
        if "channel b series parameter" in out.stderr:
            return "even-d-channel-b"
        return None
    exc = out.exc
    if isinstance(exc, adskg.specfun.PoleError) and "Gamma pole" in str(exc):
        return "gamma-pole"
    if isinstance(exc, OverflowError) and job.kind.startswith("wigner-"):
        return "wigner-overflow"
    return None


def _failed(adskg, job, out, detail, mismatch=None):
    """A known verdict when the failure's class is the one the generator predicted for the job.

    A failure of a known kind in a job predicted to pass, or predicted to
    fail another way, is unexpected.  The wigner-unitarity prediction means
    "may fail": the defect depends on the angle.
    """
    cls = known_failure(adskg, job, out, mismatch)
    if cls is not None and cls == job.predicted:
        return Verdict("known", failure=cls)
    if cls is not None:
        detail = f"{cls} where {job.predicted or 'no failure'} was predicted; {detail}"
    return Verdict("unexpected", failure=detail)


def verify(adskg, job, out, rng):
    """Verdict for one job: checks its output against the job's reference."""
    failed = out.exc is not None or (job.argv is not None and out.rc != 0)
    if failed:
        detail = repr(out.exc) if out.exc is not None else f"exit {out.rc}: {out.stderr.strip()[-200:]}"
        return _failed(adskg, job, out, detail)
    try:
        rows, digits = CHECKS[job.kind](adskg, job, out, rng)
    except (Mismatch, KeyError, ValueError, IndexError) as exc:
        return _failed(adskg, job, out, f"{type(exc).__name__}: {exc}", exc)
    return Verdict("ok", rows=rows, digits=digits)
