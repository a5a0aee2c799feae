"""The benchmark's tracer must find every function it times in the package.

perfbench/tracing.py wraps named adskg functions and reads the stored entry
count of mode vectors; a rename or a storage change that breaks either
shows up here rather than only in a traced benchmark run.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import adskg
import adskg.cli  # the tracer wraps cli.main and cli.write_rows

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_plan_and_entry_counter(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer(adskg)  # raises if a traced name is missing
    # calls go through module attributes, which is where the tracer wraps them
    modes, acs = adskg.ads_modes, adskg.ads_complex_structure
    rng = np.random.default_rng(0)
    grid = [(w, 1.0) for w in (0.5, -0.5, 1.5, -1.5)]
    entries = {
        (w, (l,), m): tuple(rng.normal(size=2))
        for w, _ in grid
        for l in range(3)
        for m in range(-l, l + 1)
    }
    jf = acs.diagonal_jfactors([(w, l) for w, _ in grid for l in range(3)])
    tracer.install()
    try:
        phi = modes.ModeVector(grid, entries)
        j_phi = acs.apply_J(jf, phi)
        modes.omega_rho(modes.AdSParams(3, 4.2), j_phi, phi)
        back = modes.mode_vector_from_json(phi.to_json())
    finally:
        tracer.uninstall()
    assert [len(v._entries) for v in (phi, j_phi, back)] == [len(entries)] * 3
    # counted by ModeVector(...), omega_rho, to_json, and mode_vector_from_json's
    # result, which it builds without a ModeVector(...) call
    assert tracer.counters["ads_modes.entries"] == 4 * len(entries)
    assert back == phi


def test_traced_sweeps_count_their_rows(monkeypatch, tmp_path):
    # candidate-sweep and flux-classify evaluate their grids in private array
    # helpers; a traced run must still complete and count the rows it writes,
    # the rows of a run with faulted rows (exit 3) included
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer(adskg)
    argvs = [
        (0, ["candidate-sweep", "--d", "4", "--delta", "3.37", "--omega", "0.05:2:0.25", "--lmax", "3"]),
        (0, ["flux-classify", "--d", "3", "--omega", "0.5:4:0.5", "--lmax", "2", "--format", "json"]),
        (3, ["flux-classify", "--d", "4", "--omega", "0.5:3:0.5", "--lmax", "2"]),
    ]
    written = 0
    tracer.install()
    try:
        for k, (rc, argv) in enumerate(argvs):
            out = tmp_path / f"out{k}"
            assert adskg.cli.main(argv + ["--out", str(out)]) == rc
            text = out.read_text()
            written += len(json.loads(text)) if "json" in argv else text.count("\n") - 1
    finally:
        tracer.uninstall()
    assert written > 0
    assert tracer.counters["cli.rows"] == written
    assert tracer.counters["flux.mode_flux.calls"] > 0


def test_benchmark_reads_faulted_sweeps_by_their_first_fault(monkeypatch, capsys):
    # perfbench classifies a job that exits 3 by the messages on its stderr; with every
    # row written, a Gamma pole and channel b's even-d pole must still read as before
    pytest.importorskip("mpmath")  # perfbench's oracles import it
    monkeypatch.syspath_prepend(PERFBENCH)
    import oracles

    cases = [
        ("gamma-pole", "candidate-sweep", ["--delta", "4.2", "--omega", "1.3:5.3:0.5", "--lmax", "2"]),
        ("even-d-channel-b", "flux-classify", ["--d", "4", "--omega", "2:3:0.5", "--lmax", "2"]),
    ]
    for cls, kind, argv in cases:
        rc = adskg.cli.main([kind] + argv)
        out = SimpleNamespace(rc=rc, exc=None, stderr=capsys.readouterr().err)
        job = SimpleNamespace(kind=kind, argv=[kind] + argv, params={"fmt": "csv"})
        assert rc == 3 and oracles.known_failure(adskg, job, out) == cls
