"""The benchmark's tracer must find every function it times in the package.

perfbench/tracing.py wraps named adskg functions and reads the stored entry
count of mode vectors; a rename or a storage change that breaks either
shows up here rather than only in a traced benchmark run.
"""

import os

import numpy as np

import adskg

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
    # counted by ModeVector(...), omega_rho, to_json, and mode_vector_from_json
    # (its ModeVector(...) call and its result)
    assert tracer.counters["ads_modes.entries"] == 5 * len(entries)
    assert back == phi
