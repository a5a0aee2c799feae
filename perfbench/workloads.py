"""Set-up and in-process execution of the three workloads' jobs."""

import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from generate import (
    WORKLOADS,
    haar_beta,
    mode_audit_pass,
    random_rotation,
    real_mode_entries,
    rotation_audit_pass,
    tube_sweep_pass,
    write_mode_files,
)


@dataclass
class Outcome:
    rc: int = None
    stdout: str = ""
    stderr: str = ""
    exc: BaseException = None
    value: object = None


class Workload:
    """Set-up state and the pass generator of one workload run."""

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.files = []
        self.blocks = {}

    def rng(self, *stream):
        return np.random.default_rng([self.seed, WORKLOADS.index(self.name)] + list(stream))

    def setup(self, adskg):
        """Write input files and warm the package; this is what setup_s times."""
        os.makedirs(self.workdir, exist_ok=True)
        cli = adskg.cli
        quiet = io.StringIO()
        if self.name == "tube-sweep":
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                cli.main(["candidate-sweep", "--omega", "0.5:1.5:0.5", "--lmax", "1"])
                cli.main(["flux-classify", "--omega", "2:3:0.5", "--lmax", "1"])
        elif self.name == "mode-audit":
            self.files = write_mode_files(self.rng(0), self.workdir)
            rng = self.rng(1)
            angles = (2 * math.pi * rng.random(), haar_beta(rng.random()), 2 * math.pi * rng.random())
            self.blocks[3] = {l: adskg.harmonics.wigner_block_euler(l, *angles) for l in range(7)}
            for d in (4, 5):
                rot = random_rotation(rng, d)
                self.blocks[d] = {
                    l: adskg.harmonics.wigner_block_quadrature(d, l, rot, order=max(4, l + 1))
                    for l in range(7)
                }
        else:
            for d in (3, 4, 5, 6):
                adskg.harmonics.harmonic_gram(d, adskg.harmonics.all_indices(d, 0))

    def make_pass(self, pass_index):
        rng = self.rng(2, pass_index)
        if self.name == "tube-sweep":
            return tube_sweep_pass(rng, pass_index)
        if self.name == "mode-audit":
            return mode_audit_pass(rng, pass_index, self.files)
        return rotation_audit_pass(rng, pass_index)

    def prepare(self, job, job_id):
        """Build a job's inputs off the clock."""
        if job.kind == "session":
            p = job.params
            rng = np.random.default_rng(p["seed"])
            grid = [(s * w, p["step"]) for w in p["omegas"] for s in (1.0, -1.0)]
            job.inputs = dict(
                grid=grid,
                phi=real_mode_entries(rng, p["d"], p["omegas"], p["lmax"]),
                eta=real_mode_entries(rng, p["d"], p["omegas"], p["lmax"]),
                blocks=self.blocks[p["d"]],
            )
        if job.argv is not None and job.params.get("to_file"):
            job.out_path = os.path.join(self.workdir, f"out_{job_id}.{job.params['fmt']}")
            job.argv = job.argv + ["--out", job.out_path]


def execute(adskg, job):
    """Run one job in-process; every package call goes through module attributes."""
    out = Outcome()
    if job.argv is not None:
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                out.rc = adskg.cli.main(job.argv)
        except Exception as exc:  # an escape from the CLI is a job failure
            out.exc = exc
        out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
        return out
    try:
        out.value = LIBRARY_JOBS[job.kind](adskg, job.params, job.inputs)
    except Exception as exc:  # recorded and classified by the oracle
        out.exc = exc
    return out


def _session(adskg, p, inputs):
    """Demo 05/06 style session on one real mode vector pair."""
    modes, acs = adskg.ads_modes, adskg.ads_complex_structure
    params = modes.AdSParams(p["d"], p["delta"])
    phi = modes.ModeVector(inputs["grid"], inputs["phi"])
    eta = modes.ModeVector(inputs["grid"], inputs["eta"])
    keys = [(w, l) for (w, _) in inputs["grid"] for l in range(p["lmax"] + 1)]
    if p["jkind"] == "candidate":
        jf = acs.candidate_jfactors(p["which"], params, keys)
    else:
        jf = acs.diagonal_jfactors(keys)
    report = acs.check_conditions(jf)
    j_phi = acs.apply_J(jf, phi)
    j_eta = acs.apply_J(jf, eta)
    jj_phi = acs.apply_J(jf, j_phi)
    t_phi = modes.act_time_translation(p["dt"], phi)
    t_eta = modes.act_time_translation(p["dt"], eta)
    r_phi = modes.act_rotation(inputs["blocks"], phi)
    r_eta = modes.act_rotation(inputs["blocks"], eta)
    text = phi.to_json()
    return dict(
        report=report,
        phi=phi,
        jj_phi=jj_phi,
        omega=modes.omega_rho(params, phi, eta),
        omega_swapped=modes.omega_rho(params, eta, phi),
        omega_j=modes.omega_rho(params, j_phi, j_eta),
        omega_t=modes.omega_rho(params, t_phi, t_eta),
        omega_r=modes.omega_rho(params, r_phi, r_eta),
        g=acs.g_rho(params, jf, phi),
        real=modes.is_real_solution(phi),
        real_t=modes.is_real_solution(t_phi),
        back=modes.mode_vector_from_json(text),
    )


def _order(p):
    """The quadrature order a job passes, or nothing for the library default."""
    return {} if p["order"] is None else {"order": p["order"]}


def _gram(adskg, p, inputs):
    h = adskg.harmonics
    return h.harmonic_gram(p["d"], h.all_indices(p["d"], p["lmax"]), **_order(p))


def _grid_matrix(adskg, p, inputs):
    h = adskg.harmonics
    return h.harmonic_grid_matrix(p["d"], h.all_indices(p["d"], p["lmax"]), **_order(p))


def _wigner_quadrature(adskg, p, inputs):
    return adskg.harmonics.wigner_block_quadrature(p["d"], p["l"], p["rot"], **_order(p))


def _structure_check(adskg, p, inputs):
    g = adskg.geometry
    return g.structure_check(g.Signature(p["p"], p["q"]))


LIBRARY_JOBS = {
    "session": _session,
    "gram": _gram,
    "grid-matrix": _grid_matrix,
    "wigner-quadrature": _wigner_quadrature,
    "wigner-small-d": lambda adskg, p, inputs: adskg.harmonics.wigner_small_d(p["l"], p["beta"]),
    "wigner-euler": lambda adskg, p, inputs: adskg.harmonics.wigner_block_euler(p["l"], *p["angles"]),
    "structure-check": _structure_check,
}
