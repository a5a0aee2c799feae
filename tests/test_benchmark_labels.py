"""The benchmark gives the library integer labels d and l only.

AdSParams refuses a d that is not an integer, and the radial channels, the
candidates and JFactors refuse an l that is not one.  perfbench/generate.py
draws every d, lmax and j-factor key l of its jobs as an integer, so no
benchmark job meets these refusals.  This reads one pass of tube-sweep and
of mode-audit, with the mode-audit input files, without changing perfbench.
"""

import os
import sys

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _labels(job):
    """(name, value) of each d and l a job hands the library or the CLI."""
    p = job.params
    files = [p["file"]] if "file" in p else []
    for spec in [p] + files:
        yield from (("d", spec["d"]), ("lmax", spec["lmax"]))
        yield from (("key l", l) for _, l in spec.get("keys", ()))
    argv = job.argv or []
    yield from ((flag, int(argv[argv.index(flag) + 1])) for flag in ("--d", "--lmax") if flag in argv)


def test_benchmark_jobs_pass_integer_labels(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import generate

    rng = np.random.default_rng(1)
    files = generate.write_mode_files(rng, str(tmp_path))
    jobs = generate.tube_sweep_pass(rng, 0) + generate.mode_audit_pass(rng, 0, files)
    assert {job.kind for job in jobs} == {"candidate-sweep", "flux-classify", "session", "jfactor-audit"}
    for job in jobs:
        for name, value in _labels(job):
            assert isinstance(value, (int, np.integer)), (job.describe(), name, value)
