"""Seeded job generation for the three workloads.

A run repeats passes.  Every pass of a workload holds the same jobs by
kind, dimension and size, and a fixed number of jobs whose inputs hit a
failure the package has today (KNOWN_FAILURES).  Job sizes (rows, lmax,
vector entries, l, p + q) follow a fixed schedule, the same for every
seed: in a pass the n slots of a kind sit one per 1/n-wide bin of the
range, and the offset inside the bins takes CYCLE values, 1/CYCLE of a
bin apart, in CYCLE passes.  A run ends on a whole cycle, so two runs of the
same length measure the same sizes.  Everything else (Delta,
grid steps, candidates, rotations, angles, mode values) is drawn from the
seed and the pass index.  The package receives only the generated inputs.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("tube-sweep", "mode-audit", "rotation-audit")

# Failure classes of the package at this benchmark's first commit.  A job
# that fails in the class predicted for it counts in failed_share; any other
# failure makes the run incorrect.
KNOWN_FAILURES = {
    "gamma-pole": "ROADMAP 2e: a Gamma argument on a grid point is a pole (exit 3 / PoleError)",
    "even-d-channel-b": "ROADMAP 2c: channel b series has c = 2 - l - d/2 <= 0 for even d (exit 3)",
    "flux-rows": "ROADMAP 2: near the mass shell at high l, flux-classify prints a wrong h1 flux "
    "(spherical Bessel cancellation) or calls a nonzero flux standing",
    "wigner-overflow": "ROADMAP 4: wigner_small_d factorial sum raises OverflowError for l >= 50",
    "wigner-unitarity": "ROADMAP 4: wigner_small_d factorial sum loses unitarity (> 1e-8) for l >= 30",
    "jfactor-case": "ROADMAP aim 3: check_conditions calls a nondiagonal entry with |jab| <= 1e-5 invalid",
    "jfactor-json": "ROADMAP aim 3: jfactor-audit --format json raises TypeError (complex not JSON serializable)",
}

# Every pass holds a fixed number of jobs of each failure class, near
# the share of unconditioned draws from the same distributions (in
# brackets): candidate-sweep poles 4 of 13 (0.31); flux rows 2 of 9 odd-d
# flux jobs (0.22); session poles 1 of 5 candidate sessions (0.22);
# candidate jfactor-audit poles 1 and tiny |jab| 1 of 5 (0.28, 0.21).  The
# shares are over the size ranges below, the ROADMAP grids left out.  Tiny
# |jab| grids in sessions (0.03) are represented by the jfactor-audit slot,
# which runs the same check_conditions classification.

# The grid sizes ROADMAP aim 1 states for the CLI workloads, (start, stop,
# step) and lmax.  Each runs once in every pass with Delta drawn, the sweep
# and flux grids at the CLI's default d = 3.
# With every candidate, the sweep has 8800 rows; the flux grid (about 12 600
# rows) always reaches the mass shell at l = 10, so it is a flux-rows job;
# the jfactor-audit grid always holds a pole or a tiny |jab| (ROADMAP lists
# it as aborting on a pole), so it is the pass's jfactor-audit pole job.
STATED_SWEEP = ((0.05, 20.0, 0.1), 10)
STATED_FLUX = ((1.0, 20.0, 0.1), 10)
STATED_JFACTOR = ((0.5, 20.0, 0.1), 10)
STATED_TABLE = (5, 6)  # harmonics-table --d 5 --lmax 6

# Steps that divide 1 put omega +- 1 back on the grid; the others do not.
STEPS_DIVIDING_ONE = (0.1, 0.2, 0.25, 0.5)
STEPS_NOT_DIVIDING_ONE = (0.15, 0.3, 0.35, 0.4, 0.7)

SMALL_D_BINS = ((0, 10), (10, 20), (20, 30), (30, 40), (40, 50), (50, 61))
EULER_BINS = ((0, 25), (25, 50), (50, 61))
STRUCTURE_BINS = ((2, 5), (5, 7), (7, 9))
SELFCHECK_ORDERS = (6, 8, 12, 16, 24)

EPS = 2.2e-16


@dataclass
class Job:
    kind: str
    params: dict
    argv: list = None
    predicted: str = None
    out_path: str = None
    inputs: dict = field(default_factory=dict)

    def describe(self):
        if self.argv is not None:
            return "adskg " + " ".join(self.argv)
        shown = {k: v for k, v in self.params.items() if k != "rot"}
        return f"{self.kind} {shown}"


# ------------------------------------------------------------------ helpers


# Job sizes follow a fixed schedule.  A stream's level in pass k is
# phase + (k mod CYCLE) / CYCLE (mod 1) from a fixed phase, so a cycle of
# passes covers the range evenly and every cycle holds the same jobs by
# size; a run ends on a whole cycle.  The phases are not drawn from the
# seed, so two seeds measure the same schedule of sizes and differ in every
# value the jobs are given.
CYCLE = 8
PHASES = (np.arange(64) * 0.7548776662466927) % 1.0


def level(stream, k):
    return (PHASES[stream] + (k % CYCLE) / CYCLE) % 1.0


def levels(stream, n, k):
    """n levels, one per 1/n-wide bin of [0, 1), at the stream's level in pass k."""
    u = level(stream, k)
    return [(i + u) / n for i in range(n)]


def shuffled(rng, items):
    return [items[i] for i in rng.permutation(len(items))]


def log_level(u, lo, hi):
    return lo * (hi / lo) ** u


def num(x):
    """A number as a user writes it: at most four decimals, no float noise."""
    return format(round(float(x), 4), "g")


def omega_grid(start, stop, step):
    """The grid the CLI documents for --omega start:stop:step."""
    count = int(round((stop - start) / step))
    grid = [round(start + i * step, 12) for i in range(count + 1)]
    return [w for w in grid if w <= stop + 1e-12]


def user_delta(rng, d):
    """Delta above (d-1)/2, written with one or two decimals."""
    lo = (d - 1) / 2.0
    decimals = 1 if rng.random() < 0.5 else 2
    return max(round(lo + 0.1 + 5.0 * rng.random(), decimals), round(lo + 0.1, 1))


def user_grid(where, step, n_points, minimum=0.0):
    """start:stop:step with stop <= 20 and a start on the 0.05 lattice, placed by where in [0, 1)."""
    n_points = max(2, min(n_points, int((20.0 - minimum) / step) + 1))
    span = (n_points - 1) * step
    start = round(minimum + math.floor(where * (20.0 - minimum - span) / 0.05) * 0.05, 2)
    return start, round(start + span, 4), step


def omega_arg(start, stop, step):
    return f"{num(start)}:{num(stop)}:{num(step)}"


def harmonic_dim(d, l):
    """Number of multi-indices with leading level l on S^(d-1)."""
    return math.comb(l + d - 1, d - 1) - math.comb(l + d - 3, d - 1)


def label_list(d, lmax):
    """(levels, m) of every multi-index up to lmax, in the package's order."""
    out = []
    for l in range(lmax + 1):
        chains = [(l,)]
        for _ in range(d - 3):
            chains = [ch + (nxt,) for ch in chains for nxt in range(ch[-1] + 1)]
        for ch in sorted(chains):
            out += [(ch, m) for m in range(-ch[-1], ch[-1] + 1)]
    return out


def haar_beta(u):
    """Polar Euler angle of a Haar-random rotation from a uniform u."""
    return math.acos(1.0 - 2.0 * u)


def random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def draw_for_slot(want, draw, rng, where, max_tries=600):
    """Redraw until the job's predicted failure class is the slot's class.

    The first third of the tries keep the slot's grid placement; the second
    third move it, for slots whose placement rules the class out; the last
    third pass no placement, so the job draws its placement and its omega
    step from every step, for slots whose step group rules it out.
    """
    for attempt in range(max_tries):
        job = draw((where, rng.random(), None)[3 * attempt // max_tries])
        if job.predicted == want:
            return job
    raise RuntimeError(f"no draw matched failure class {want!r}")


def draw_step(rng, step_divides, n_points, minimum=0.0):
    """An omega step from the slot's group, or from every step when step_divides is None.

    Only steps whose grid of n_points fits below 20 are drawn, so a job
    gets the size the schedule gives it; the smallest step of the group
    when none fits.
    """
    if step_divides is None:
        group = STEPS_DIVIDING_ONE + STEPS_NOT_DIVIDING_ONE
    else:
        group = STEPS_DIVIDING_ONE if step_divides else STEPS_NOT_DIVIDING_ONE
    fits = [s for s in group if (n_points - 1) * s <= 20.0 - minimum]
    return float(rng.choice(fits or [min(group)]))


# --------------------------------------------------------- failure models


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _candidate_args(which, d, delta, omega, l):
    """(numerator, denominator) Gamma arguments of a candidate, as the package forms them (arrays allowed)."""
    aa = 0.5 * (delta - omega + l)
    ba = 0.5 * (delta + omega + l)
    ab = 0.5 * (delta - omega - l - d + 2.0)
    bb = 0.5 * (delta + omega - l - d + 2.0)
    g = (l + d / 2.0, l + d / 2.0 - 1.0)
    return {
        1: ((aa, ba), (ab, bb) + g),
        2: ((1.0 - ab, 1.0 - bb), (1.0 - aa, 1.0 - ba) + g),
        3: ((), (ab, bb, 1.0 - aa, 1.0 - ba) + g),
        4: ((aa, ba, 1.0 - ab, 1.0 - bb), g),
    }[which]


def candidate_class(d, delta, points, which_list, tiny=True):
    """Predicted failure class of candidate j-factors over (omega, l) points.

    "gamma-pole" when a Gamma argument is a pole; with tiny, "jfactor-case"
    when some |jab| is at most 1e-5, which the package classifies as
    "invalid" rather than "nondiagonal"; None otherwise.
    """
    w = np.array([p[0] for p in points], dtype=float)
    l = np.array([p[1] for p in points], dtype=float)
    args = [_candidate_args(which, d, delta, w, l) for which in which_list]
    for x in (x for num_args, den_args in args for x in num_args + den_args):
        if np.any((x <= 0.5) & (np.abs(x - np.round(x)) <= 1e-9)):
            return "gamma-pole"
    if not tiny:
        return None
    for num_args, den_args in args:
        log_abs = sum(_lgamma(x).astype(float) for x in num_args) - sum(_lgamma(x).astype(float) for x in den_args)
        if np.any(log_abs <= -5.0 * math.log(10.0)):
            return "jfactor-case"
    return None


def sweep_points(omegas, lmax):
    """(omega, l) points candidate-sweep evaluates, boost neighbours included."""
    out = []
    for w in omegas:
        for l in range(lmax + 1):
            out += [(w, l), (w - 1.0, l + 1), (w + 1.0, l + 1)]
    return out


def _hyp2f1_series(a, b, c, z):
    total = term = 1.0
    for k in range(1000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= 1e-16 * abs(total):
            break
    return total


def _double_factorial(n):
    return float(math.prod(range(n, 0, -2))) if n > 0 else 1.0


def h1_flux_error(l, x):
    """Rounding-error estimate of the Minkowski h1 flux at x = p_r r.

    The S^+- sums cancel to the Wronskian 1/x^2 from terms of size
    ((2l-1)!!)^2 / x^(2l+2); measured errors lie between 1e-4 and 2 times
    this estimate.
    """
    return EPS * (l + 1) * _double_factorial(2 * l - 1) ** 2 / x ** (2 * l + 1)


def combined_standing_ratio(d, delta, w, l, rho=0.7):
    """|omega||f||f'| * 1e-12 / flux for the combined AdS mode; >= 1 means "standing".

    Rebuilds the package's standing rule with an independent float series.
    """
    m_sq = delta * (delta - d)
    p_r = math.sqrt(abs(w * w - m_sq))
    s, c = math.sin(rho), math.cos(rho)
    parts = []
    for e, a, b, cc in (
        (l, 0.5 * (delta - w + l), 0.5 * (delta + w + l), l + d / 2.0),
        (2 - d - l, 0.5 * (delta - w - l - d + 2), 0.5 * (delta + w - l - d + 2), 2 - l - d / 2.0),
    ):
        f = _hyp2f1_series(a, b, cc, s * s)
        df = a * b / cc * _hyp2f1_series(a + 1, b + 1, cc + 1, s * s)
        value = s**e * c**delta * f
        deriv = e * s ** (e - 1) * c ** (delta + 1) * f - delta * s ** (e + 1) * c ** (delta - 1) * f
        parts.append((value, deriv + value * df * 2.0 * s * c))
    f_a = p_r**l / _double_factorial(2 * l + d - 2)
    f_b = _double_factorial(2 * l + d - 4) / p_r ** (l + 1)
    f = abs(complex(f_a * parts[0][0], f_b * parts[1][0]))
    df = abs(complex(f_a * parts[0][1], f_b * parts[1][1]))
    return 1e-12 * max(1.0, w * f * df) / (4.0 * w / p_r)


def flux_class(d, delta, omegas, lmax, r=6.0):
    """Predicted outcome of a flux-classify job on odd d.

    "flux-rows" when some row certainly fails (h1 estimate above 1e-4 or a
    standing ratio above 2), "ambiguous" when a row sits in the band where
    the outcome depends on rounding (h1 estimate above 1e-11, ratio within
    a factor 2 of 1: the channel b series cancels, so the estimate of
    |f||f'| is good to about 10%), None when every row is clear of both.
    """
    m_sq = delta * (delta - d)
    xs = [(w, math.sqrt(w * w - abs(m_sq)) * r) for w in omegas if w * w > abs(m_sq)]
    # the h1 estimate grows with l, so its worst case is at lmax
    worst_h1 = max((h1_flux_error(lmax, x) for _, x in xs), default=0.0)
    if worst_h1 > 1e-4:
        return "flux-rows"
    ambiguous = worst_h1 > 1e-11
    for w, x in xs:
        for l in range(lmax, -1, -1):
            ratio = combined_standing_ratio(d, delta, w, l)
            if ratio > 2.0:
                return "flux-rows"
            ambiguous = ambiguous or ratio >= 0.5
            if ratio < 1e-6 and h1_flux_error(l, x) < 1e-16:
                break  # both only shrink towards lower l
    return "ambiguous" if ambiguous else None


def wigner_class(l):
    if l >= 50:
        return "wigner-overflow"
    if l >= 30:
        return "wigner-unitarity"
    return None


# ---------------------------------------------------------------- tube-sweep


def candidate_set(rng, kind):
    if kind == 0:
        return None
    if kind == 1:
        return [int(rng.integers(1, 5))]
    return sorted(int(c) for c in rng.choice([1, 2, 3, 4], size=2, replace=False))


def _candidate_sweep_job(rng, where, d, lmax, fmt, to_file, cands, step_divides, rows_target, grid=None):
    delta = user_delta(rng, d)
    which = cands or [1, 2, 3, 4]
    n_points = int(round(rows_target / (len(which) * (lmax + 1))))
    step = draw_step(rng, None if where is None else step_divides, n_points)
    where = rng.random() if where is None else where
    start, stop, step = grid or user_grid(where, step, n_points)
    omegas = omega_grid(start, stop, step)
    argv = ["candidate-sweep", "--d", str(d), "--delta", num(delta), "--lmax", str(lmax)]
    argv += ["--omega", omega_arg(start, stop, step), "--format", fmt]
    if cands:
        argv += ["--candidates"] + [str(c) for c in cands]
    cls = candidate_class(d, delta, sweep_points(omegas, lmax), which, tiny=False)
    return Job(
        "candidate-sweep",
        dict(d=d, delta=delta, lmax=lmax, omegas=omegas, which=which, fmt=fmt, to_file=to_file, tolerance=1e-10),
        argv=argv,
        predicted=cls,
    )


def _flux_job(rng, where, d, lmax, fmt, to_file, step_divides, rows_target, grid=None):
    delta = user_delta(rng, d)
    n_points = int(round(rows_target / (5.0 * (lmax + 1))))
    step = draw_step(rng, None if where is None else step_divides, n_points, 0.05)
    where = rng.random() if where is None else where
    start, stop, step = grid or user_grid(where, step, n_points, minimum=0.05)
    omegas = [w for w in omega_grid(start, stop, step) if w != 0.0]
    argv = ["flux-classify", "--d", str(d), "--delta", num(delta), "--lmax", str(lmax)]
    argv += ["--omega", omega_arg(start, stop, step), "--format", fmt]
    return Job(
        "flux-classify",
        dict(d=d, delta=delta, lmax=lmax, omegas=omegas, fmt=fmt, to_file=to_file),
        argv=argv,
        predicted="even-d-channel-b" if d % 2 == 0 else flux_class(d, delta, omegas, lmax),
    )


def tube_sweep_pass(rng, k):
    """13 candidate-sweep jobs (4 with a Gamma pole) and 13 flux-classify jobs
    (4 on even d, 2 with wrong flux rows), the ROADMAP grid sizes included.

    In every group slot i keeps its dimension, candidate set and rows bin;
    the level inside the bin, the lmax bin, grid placement, format and
    output file rotate with the pass, so over a cycle each slot meets
    several lmax levels.
    """
    k %= CYCLE
    (grid, lmax) = STATED_SWEEP
    draw = lambda where: _candidate_sweep_job(rng, where, 3, lmax, "csv", False, None, True, 0, grid)
    jobs = [draw_for_slot(None, draw, rng, None)]
    (grid, lmax) = STATED_FLUX
    draw = lambda where: _flux_job(rng, where, 3, lmax, "json", False, True, 0, grid)
    jobs.append(draw_for_slot("flux-rows", draw, rng, None))
    for want, n, stream in ((None, 8, 0), ("gamma-pole", 4, 4)):
        rows, lmaxes, wheres = (levels(stream + j, n, k) for j in range(3))
        for i in range(n):
            lmax = 2 + int(9 * lmaxes[(i + k) % n])
            rows_target = log_level(rows[i], 120.0, 8800.0)
            cands = candidate_set(rng, i // 3 % 3)
            fmt = ("csv", "json")[(i + k) % 2]
            draw = lambda where: _candidate_sweep_job(
                rng, where, 3 + i % 3, lmax, fmt, (i + k) % 4 == 3, cands, (i // 2 + k) % 2 == 0, rows_target
            )
            jobs.append(draw_for_slot(want, draw, rng, wheres[(i + 2 * k) % n]))
    for want, n, stream, dims in ((None, 7, 8, (3, 5)), ("flux-rows", 1, 12, (3, 5)), ("even-d-channel-b", 4, 16, (4,))):
        rows, lmaxes, wheres = (levels(stream + j, n, k) for j in range(3))
        for i in range(n):
            rows_target = log_level(rows[i], 200.0, 12600.0)
            # the flux-rows failure needs a high l; a clean grid of more than
            # 9000 rows at l >= 9 spans so many omegas that it reaches the mass
            # shell, where rows fail today, so it runs at lmax 8
            lmax = 2 + int(9 * lmaxes[(i + k) % n]) if want != "flux-rows" else 10
            if want is None and rows_target > 9000.0:
                lmax = min(lmax, 8)
            fmt = ("csv", "json")[(i + k) % 2]
            d = dims[(i + k) % len(dims)]
            draw = lambda where: _flux_job(rng, where, d, lmax, fmt, (i + k) % 4 == 3, (i // 2 + k) % 2 == 0, rows_target)
            jobs.append(draw_for_slot(want, draw, rng, wheres[(i + 2 * k) % n]))
    return shuffled(rng, jobs)


# ---------------------------------------------------------------- mode-audit


def real_mode_entries(rng, d, omegas, lmax):
    """Random channel pairs with a(-omega, -m) = conj(a(omega, m))."""
    labels = label_list(d, lmax)
    values = rng.normal(size=(len(omegas), len(labels), 4))
    entries = {}
    for i, w in enumerate(omegas):
        for j, (levels, m) in enumerate(labels):
            a = complex(values[i, j, 0], values[i, j, 1])
            b = complex(values[i, j, 2], values[i, j, 3])
            entries[(w, levels, m)] = (a, b)
            entries[(-w, levels, -m)] = (a.conjugate(), b.conjugate())
    return entries


def user_frequencies(rng, n_freq):
    step = float(rng.choice((0.1, 0.2, 0.25, 0.5, 0.3, 0.7)))
    start, stop, step = user_grid(rng.random(), step, n_freq, minimum=0.1)
    return start, stop, step, omega_grid(start, stop, step)


def vector_shape(entries_target):
    """(d, lmax, n_freq) with d in 3..5, lmax 2..6 and 4..16 frequencies whose size is nearest a target."""
    shapes = [
        (d, lmax, n_freq) for d in (3, 4, 5) for lmax in range(2, 7) for n_freq in range(4, 17)
    ]
    return min(shapes, key=lambda s: abs(math.log(2 * s[2] * len(label_list(s[0], s[1])) / entries_target)))


def _session_job(rng, entries_target, jkind):
    d, lmax, n_freq = vector_shape(entries_target)
    delta = user_delta(rng, d)
    start, stop, step, omegas = user_frequencies(rng, n_freq)
    which = int(rng.integers(1, 5))
    grid = [(s * w, l) for w in omegas for s in (1.0, -1.0) for l in range(lmax + 1)]
    return Job(
        "session",
        dict(
            d=d,
            delta=delta,
            lmax=lmax,
            omegas=omegas,
            step=step,
            jkind=jkind,
            which=which,
            dt=round(0.05 + 2.0 * rng.random(), 3),
            seed=int(rng.integers(2**31)),
        ),
        predicted=candidate_class(d, delta, grid, [which]) if jkind == "candidate" else None,
    )


def _jfactor_candidate_job(rng, where, rows_target, stated=False):
    d = int(rng.integers(3, 6))
    lmax = int(rng.integers(2, 11))
    delta = user_delta(rng, d)
    n_points = int(round(rows_target / (2.0 * (lmax + 1))))
    step = draw_step(rng, None, n_points, 0.05)
    where = rng.random() if where is None else where
    if stated:
        (start, stop, step), lmax = STATED_JFACTOR
    else:
        start, stop, step = user_grid(where, step, n_points, minimum=0.05)
    which = int(rng.integers(1, 5))
    grid = sorted({s * w for w in omega_grid(start, stop, step) for s in (1.0, -1.0)})
    keys = [(w, l) for w in grid for l in range(lmax + 1)]
    argv = ["jfactor-audit", "--d", str(d), "--delta", num(delta), "--lmax", str(lmax)]
    argv += ["--omega", omega_arg(start, stop, step), "--candidates", str(which), "--format", "csv"]
    return Job(
        "jfactor-audit",
        dict(d=d, delta=delta, lmax=lmax, keys=keys, case="nondiagonal", fmt="csv", tolerance=1e-10),
        argv=argv,
        predicted=candidate_class(d, delta, keys, [which]),
    )


def _jfactor_file_job(spec, fmt):
    argv = ["jfactor-audit", "--d", str(spec["d"]), "--delta", num(spec["delta"])]
    argv += ["--lmax", str(spec["lmax"]), "--omega", spec["omega_arg"], "--format", fmt]
    argv += ["--jfactors", spec["jfactors_path"], "--modes", spec["modes_path"]]
    return Job(
        "jfactor-audit",
        dict(d=spec["d"], lmax=spec["lmax"], keys=spec["keys"], case=spec["case"], fmt=fmt, tolerance=1e-10, file=spec),
        argv=argv,
        predicted="jfactor-json" if fmt == "json" else None,
    )


def mode_audit_pass(rng, k, files):
    """9 sessions (1 with a Gamma pole, 3 of fixed large sizes), 7 jfactor-audit jobs on the set-up
    files (the one on the smallest file asks for json) and 5 candidate
    jfactor-audit jobs (the ROADMAP grid, with a pole, and 1 tiny |jab|)."""
    k %= CYCLE
    jobs = []
    for jkind, want, n, stream in (
        ("candidate", None, 3, 0),
        ("candidate", "gamma-pole", 1, 1),
        ("diagonal", None, 2, 2),
    ):
        for u in levels(stream, n, k):
            draw = lambda where: _session_job(rng, log_level(u, 100.0, 2500.0), jkind)
            jobs.append(draw_for_slot(want, draw, rng, None))
    # The three largest sessions (4480, 6048 and 10752 entries, the last the
    # largest shape) sit above the log-spaced range.
    for target, jkind in ((4500.0, "diagonal"), (6000.0, "candidate"), (1e9, "diagonal")):
        jobs.append(draw_for_slot(None, lambda where: _session_job(rng, target, jkind), rng, None))
    jobs += [_jfactor_file_job(spec, "csv") for spec in files]
    jobs.append(_jfactor_file_job(files[0], "json"))
    jobs.append(draw_for_slot("gamma-pole", lambda where: _jfactor_candidate_job(rng, where, 0, True), rng, None))
    for want, n, stream in ((None, 3, 3), ("jfactor-case", 1, 7)):
        rows, wheres = levels(stream, n, k), levels(stream + 1, n, k)
        for i in range(n):
            draw = lambda where: _jfactor_candidate_job(rng, where, log_level(rows[i], 60.0, 4312.0))
            jobs.append(draw_for_slot(want, draw, rng, wheres[(i + k) % n]))
    return shuffled(rng, jobs)


def write_mode_files(rng, workdir):
    """Write the modes and j-factor JSON files jfactor-audit jobs read.

    Six pairs, smallest first, whose sizes span 200 to 10^4 entries; half
    carry the diagonal structure, half a random real nondiagonal one (jaa,
    jab, jba = -(1 + jaa^2)/jab, jbb = -jaa), both satisfying the reality
    condition.
    """
    files = []
    for i in range(6):
        d, lmax, n_freq = vector_shape(log_level(i / 5.0, 200.0, 10000.0))
        case = ("diagonal", "nondiagonal")[i % 2]
        delta = user_delta(rng, d)
        start, stop, step, omegas = user_frequencies(rng, n_freq)
        entries = real_mode_entries(rng, d, omegas, lmax)
        table = {}
        for w in omegas:
            for l in range(lmax + 1):
                if case == "diagonal":
                    table[(w, l)] = dict(jaa=(0.0, 1.0), jab=(0.0, 0.0), jba=(0.0, 0.0), jbb=(0.0, 1.0))
                    table[(-w, l)] = dict(jaa=(0.0, -1.0), jab=(0.0, 0.0), jba=(0.0, 0.0), jbb=(0.0, -1.0))
                else:
                    jaa = round(2.0 * rng.random() - 1.0, 6)
                    jab = round((0.2 + 4.8 * rng.random()) * (1 if rng.random() < 0.5 else -1), 6)
                    entry = dict(jaa=(jaa, 0.0), jab=(jab, 0.0), jba=(-(1.0 + jaa * jaa) / jab, 0.0), jbb=(-jaa, 0.0))
                    table[(w, l)] = table[(-w, l)] = entry
        modes_text = json.dumps(
            {
                "freq_grid": [{"omega": s * w, "weight": step} for w in omegas for s in (1.0, -1.0)],
                "entries": [
                    {"omega": w, "levels": list(levels), "m": m, "a": [a.real, a.imag], "b": [b.real, b.imag]}
                    for (w, levels, m), (a, b) in entries.items()
                ],
            },
            indent=1,
        )
        rows = [dict({k: list(v) for k, v in entry.items()}, omega=w, l=l) for (w, l), entry in sorted(table.items())]
        modes_path = os.path.join(workdir, f"modes_{i}.json")
        jf_path = os.path.join(workdir, f"jfactors_{i}.json")
        with open(modes_path, "w") as fh:
            fh.write(modes_text)
        with open(jf_path, "w") as fh:
            fh.write(json.dumps(rows, indent=1))
        files.append(
            dict(
                d=d,
                lmax=lmax,
                case=case,
                delta=delta,
                omega_arg=omega_arg(start, stop, step),
                weight=step,
                keys=sorted(table),
                table=table,
                entries=entries,
                modes_path=modes_path,
                jfactors_path=jf_path,
                modes_bytes=len(modes_text),
            )
        )
    return files


# ------------------------------------------------------------ rotation-audit


def rotation_audit_pass(rng, k):
    """27 library and CLI jobs, and a d = 5 block at order 24 in the first pass of each cycle.

    Sizes inside each slot's range follow the schedule; the explicit-order
    gram slot and the selfcheck order rotate with the pass.
    """
    k %= CYCLE
    jobs = []

    def pick(stream, lo, hi):
        """Integer in [lo, hi) at the stream's level."""
        return lo + int((hi - lo) * level(stream, k))

    lmaxes = levels(0, 4, k)
    for i, d in enumerate((3, 4, 5, 6)):
        lmax = 2 + int(5 * lmaxes[(i + k) % 4])
        order = lmax + 1 + pick(1, 0, 4) if i == k % 4 else None
        jobs.append(Job("gram", dict(d=d, lmax=lmax, order=order)))
    for stream, (d, hi, explicit) in enumerate(((3, 7, False), (4, 5, False), (5, 4, True), (6, 4, True)), start=2):
        lmax = pick(stream, 2, hi)
        order = lmax + 1 + pick(stream + 4, 0, 4) if explicit else None
        jobs.append(Job("grid-matrix", dict(d=d, lmax=lmax, order=order)))
    l5 = pick(12, 0, 4)
    blocks = [(3, pick(10, 0, 7), None), (4, pick(11, 0, 5), None), (5, l5, max(4, l5 + 1) + pick(13, 0, 4))]
    if k == 0:
        blocks.append((5, 0, None))  # 663k grid points at the default order: about 1 s
    for d, l, order in blocks:
        jobs.append(Job("wigner-quadrature", dict(d=d, l=l, order=order, rot=random_rotation(rng, d))))
    # l bins end where the known failures start (30, 50); the Haar polar
    # angle of each slot follows the size schedule, so a run sees the same
    # spread of (l, beta) whatever the seed
    for slot, (lo, hi) in enumerate(SMALL_D_BINS):
        l = pick(20 + slot, lo, hi)
        beta = haar_beta(level(30 + slot, k))
        jobs.append(Job("wigner-small-d", dict(l=l, beta=beta), predicted=wigner_class(l)))
    for slot, (lo, hi) in enumerate(EULER_BINS):
        l = pick(40 + slot, lo, hi)
        angles = (2 * math.pi * rng.random(), haar_beta(level(45 + slot, k)), 2 * math.pi * rng.random())
        jobs.append(Job("wigner-euler", dict(l=l, angles=angles), predicted=wigner_class(l)))
    for slot, (lo, hi) in enumerate(STRUCTURE_BINS):
        n = pick(50 + slot, lo, hi)
        p = int(rng.integers(0, n + 1))
        jobs.append(Job("structure-check", dict(p=p, q=n - p)))
    order = SELFCHECK_ORDERS[(pick(55, 0, 5) + k) % len(SELFCHECK_ORDERS)]
    jobs.append(Job("selfcheck", dict(order=order), argv=["selfcheck", "--quadrature-order", str(order)]))
    values = [(3 + (k % 4), pick(56, 2, 7)), STATED_TABLE]
    for i, (d, lmax) in enumerate(values):
        fmt = ("csv", "json")[(i + k) % 2]
        argv = ["harmonics-table", "--d", str(d), "--lmax", str(lmax), "--format", fmt]
        jobs.append(Job("harmonics-table", dict(d=d, lmax=lmax, table="values", fmt=fmt), argv=argv))
    d, lmax = 3 + ((k + 2) % 4), pick(57, 2, 11)
    argv = ["harmonics-table", "--table", "ladder", "--d", str(d), "--lmax", str(lmax)]
    jobs.append(Job("harmonics-table", dict(d=d, lmax=lmax, table="ladder", fmt="csv"), argv=argv))
    return shuffled(rng, jobs)


def quadrature_keys(job):
    """(d, order) keys of the package's 32-entry axis cache a job touches."""
    p = job.params
    if job.kind in ("gram", "grid-matrix", "wigner-quadrature"):
        return {(p["d"], p["order"] or 24)}
    if job.kind == "selfcheck":
        return {(3, p["order"]), (4, p["order"]), (5, p["order"])}
    return set()
