"""Span tracing of adskg from outside the package.

The tracer replaces each timed public function of adskg, under its name in
every adskg module that holds it, with a wrapper that records a span: span
id, parent span id, job id, layer group, start and end.  Self time is a
span's duration minus the time covered by its child spans, so the self
times of all groups of one job add up to the job's traced wall time.
Counters (calls, repeated arguments, quadrature points, mode entries,
rows) are recorded at the same boundaries.

Wrappers are installed only around a traced job and removed right after
it, so untraced jobs run the unmodified package.
"""

import json
import time

from generate import harmonic_dim

HARNESS = "bench.harness"


def _wigner_points(tracer, args, kwargs):
    d, l = args[0], args[1]
    order = kwargs.get("order", args[3] if len(args) > 3 else 24)
    labels = harmonic_dim(d, l)
    used = order ** (d - 2) * 2 * order * labels
    exact_order = max(4, l + 1)
    exact = exact_order ** (d - 2) * 2 * exact_order * labels
    tracer.count("harmonics.wigner_quadrature.points", used)
    tracer.count("harmonics.wigner_quadrature.exact_points", exact)


def _candidate_repeat(tracer, args, kwargs):
    key = tuple(args) + tuple(sorted(kwargs.items()))
    if key in tracer.job_seen:
        tracer.count("ads_complex_structure.candidate_jab.repeats", 1)
    else:
        tracer.job_seen.add(key)


def _entries_of(position):
    def hook(tracer, args, kwargs):
        tracer.count("ads_modes.entries", len(args[position]._entries))

    return hook


def _entries_of_init(tracer, args, kwargs):
    tracer.count("ads_modes.entries", len(args[2]))


def _entries_of_result(tracer, result):
    tracer.count("ads_modes.entries", len(result._entries))


def _rows_written(tracer, args, kwargs):
    tracer.count("cli.rows", len(args[1]))


# (module, attribute, group, call counter, pre-call hook).  Attributes with a
# dot are methods of a class in that module.  Internal helpers are not
# wrapped: their time is self time of the public function that calls them.
TARGETS = [
    ("specfun", "hyp2f1", "specfun.hyp2f1", "specfun.hyp2f1.calls", None),
    ("specfun", "hyp2f1_dz", "specfun.hyp2f1", None, None),
    ("specfun", "log_gamma_signed", "specfun.log_gamma", "specfun.log_gamma.calls", None),
    ("specfun", "gamma_value", "specfun.log_gamma", None, None),
    ("specfun", "radial_basis", "specfun.radial_basis", "specfun.radial_basis.calls", None),
    ("specfun", "radial_basis_deriv", "specfun.radial_basis", None, None),
    ("specfun", "legendre_p", "specfun.poly", "specfun.poly.calls", None),
    ("specfun", "gegenbauer_c", "specfun.poly", "specfun.poly.calls", None),
    ("ads_modes", "hypergeo_params", "ads_modes.radial", None, None),
    ("ads_modes", "radial_eval", "ads_modes.radial", "ads_modes.radial.calls", None),
    ("ads_modes", "radial_eval_deriv", "ads_modes.radial", "ads_modes.radial.calls", None),
    ("ads_modes", "radial_wronskian", "ads_modes.radial", None, None),
    ("ads_modes", "omega_rho", "ads_modes.algebra", None, _entries_of(1)),
    ("ads_modes", "act_time_translation", "ads_modes.algebra", None, _entries_of(1)),
    ("ads_modes", "act_rotation", "ads_modes.algebra", None, _entries_of(1)),
    ("ads_modes", "is_real_solution", "ads_modes.algebra", None, _entries_of(0)),
    ("ads_modes", "ModeVector.__init__", "ads_modes.io", None, _entries_of_init),
    ("ads_modes", "ModeVector.to_json", "ads_modes.io", None, _entries_of(0)),
    ("ads_modes", "mode_vector_from_json", "ads_modes.io", None, None),
    ("ads_modes", "random_real_mode_vector", "ads_modes.io", None, None),
    (
        "ads_complex_structure",
        "candidate_jab",
        "ads_complex_structure.candidate_jab",
        "ads_complex_structure.candidate_jab.calls",
        _candidate_repeat,
    ),
    (
        "ads_complex_structure",
        "check_conditions",
        "ads_complex_structure.check_conditions",
        "ads_complex_structure.check_conditions.calls",
        None,
    ),
    ("ads_complex_structure", "apply_J", "ads_complex_structure.apply", None, None),
    ("ads_complex_structure", "g_rho", "ads_complex_structure.apply", None, None),
    (
        "ads_complex_structure",
        "boost_recurrence_residual",
        "ads_complex_structure.boost_residual",
        None,
        None,
    ),
    (
        "ads_complex_structure",
        "boost_recurrence_residual_ba",
        "ads_complex_structure.boost_residual",
        None,
        None,
    ),
    ("ads_complex_structure", "JFactors.__init__", "ads_complex_structure.jfactors", None, None),
    ("ads_complex_structure", "JFactors.to_json", "ads_complex_structure.jfactors", None, None),
    ("ads_complex_structure", "jfactors_from_json", "ads_complex_structure.jfactors", None, None),
    ("ads_complex_structure", "candidate_jfactors", "ads_complex_structure.jfactors", None, None),
    ("ads_complex_structure", "diagonal_jfactors", "ads_complex_structure.jfactors", None, None),
    ("ads_complex_structure", "complete_nondiagonal", "ads_complex_structure.jfactors", None, None),
    ("flux", "mode_flux", "flux", "flux.mode_flux.calls", None),
    ("flux", "ads_combined_mode", "flux", None, None),
    ("flux", "em_tensor", "flux", None, None),
    ("flux", "radial_momentum_density", "flux", None, None),
    ("flux", "extrema_relation", "flux", None, None),
    (
        "harmonics",
        "wigner_block_quadrature",
        "harmonics.wigner_quadrature",
        "harmonics.wigner_quadrature.calls",
        _wigner_points,
    ),
    ("harmonics", "wigner_small_d", "harmonics.wigner_small_d", None, None),
    ("harmonics", "wigner_block_euler", "harmonics.wigner_small_d", None, None),
    ("harmonics", "harmonic_gram", "harmonics.gram", None, None),
    ("harmonics", "harmonic_grid_matrix", "harmonics.grid_matrix", None, None),
    ("harmonics", "eval_harmonic", "harmonics.eval", None, None),
    ("harmonics", "eval_harmonic_angles", "harmonics.eval", None, None),
    ("harmonics", "eval_harmonic_dcos", "harmonics.eval", None, None),
    ("harmonics", "norm_const", "harmonics.other", None, None),
    ("harmonics", "ladder_coeffs", "harmonics.other", None, None),
    ("harmonics", "multi_indices", "harmonics.other", None, None),
    ("harmonics", "all_indices", "harmonics.other", None, None),
    ("harmonics", "sphere_quadrature", "harmonics.other", None, None),
    ("harmonics", "sphere_inner", "harmonics.other", None, None),
    ("harmonics", "to_cartesian", "harmonics.other", None, None),
    ("harmonics", "to_angles", "harmonics.other", None, None),
    ("harmonics", "rotation_matrix_zyz", "harmonics.other", None, None),
    ("harmonics", "rotate_coeffs", "harmonics.other", None, None),
    ("geometry", "structure_check", "geometry.structure_check", None, None),
    ("geometry", "lie_bracket", "geometry.lie_bracket", "geometry.lie_bracket.calls", None),
    ("geometry", "killing_field", "geometry.other", None, None),
    ("geometry", "translation_field", "geometry.other", None, None),
    ("geometry", "killing_residual", "geometry.other", None, None),
    ("structures", "theta_quadrature", "structures", None, None),
    ("structures", "theta_omega_quadrature", "structures", None, None),
    ("structures", "g_inner_from_J", "structures", None, None),
    ("structures", "polarization_project", "structures", None, None),
    ("structures", "symplectic_complement", "structures", None, None),
    ("structures", "classify_subspace", "structures", None, None),
    ("structures", "invariance_residual", "structures", None, None),
    ("cli", "main", "cli.main", None, None),
    ("cli", "write_rows", "cli.write_rows", None, _rows_written),
]

POST_HOOKS = {("ads_modes", "mode_vector_from_json"): _entries_of_result}

GROUPS = sorted({t[2] for t in TARGETS} | {HARNESS})


class Tracer:
    """In-memory spans and counters for traced jobs.

    Self time is aggregated per group as spans close; at most span_cap
    span records are kept for the trace file, the rest are only counted.
    """

    def __init__(self, package, span_cap=20000):
        self.package = package
        self.span_cap = span_cap
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.counters = {}
        self.spans = []
        self.span_total = 0
        self.job_seen = set()
        self._job = None
        self._stack = []
        self._patches = self._plan()

    # -- instrumentation -------------------------------------------------

    def _plan(self):
        modules = [self.package] + [
            getattr(self.package, name)
            for name in (
                "specfun",
                "harmonics",
                "geometry",
                "structures",
                "ads_modes",
                "ads_complex_structure",
                "flux",
                "cli",
            )
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
        patches = []
        for mod_name, attr, group, counter, hook in TARGETS:
            module = by_name[mod_name]
            post = POST_HOOKS.get((mod_name, attr))
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                patches.append((owner, meth, original, self._wrap(original, group, counter, hook, post)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, group, counter, hook, post)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original, wrapper))
        return patches

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    def _wrap(self, fn, group, counter, hook, post):
        tracer = self
        errors = (self.package.specfun.PoleError, self.package.specfun.ConvergenceError)

        def traced(*args, **kwargs):
            if counter is not None:
                tracer.count(counter, 1)
            if hook is not None:
                hook(tracer, args, kwargs)
            tracer._enter(group)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(group, exc, errors)
                raise
            finally:
                tracer._exit()
            if post is not None:
                post(tracer, result)
            return result

        return traced

    # -- spans and counters ----------------------------------------------

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def _error(self, group, exc, specfun_errors):
        if getattr(exc, "_perfbench_counted", False):
            return
        if isinstance(exc, specfun_errors) or (
            isinstance(exc, OverflowError) and group.startswith("specfun")
        ):
            self.count("specfun.errors", 1)
        elif isinstance(exc, OverflowError) and group.startswith("harmonics"):
            self.count("harmonics.errors", 1)
        else:
            return
        exc._perfbench_counted = True

    def _enter(self, group):
        span_id = self.span_total
        self.span_total += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, parent, group, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        span_id, parent, group, start, child = self._stack.pop()
        duration = end - start
        self.self_s[group] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent, self._job, group, start, end))

    def begin_job(self, job_id):
        """Open the job's root span; its self time is the benchmark's own code."""
        self._job = job_id
        self.job_seen = set()
        self.install()
        self._enter(HARNESS)

    def end_job(self):
        """Close the root span and restore the unmodified package."""
        self._exit()
        self.uninstall()
        self._job = None

    def write(self, path, meta):
        """Write the kept spans as JSON lines after one metadata line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(meta, spans_total=self.span_total, spans_kept=len(self.spans))) + "\n")
            for span_id, parent, job, group, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "job": job, "name": group, "start": start, "end": end}
                    )
                    + "\n"
                )
