"""tools/cli_digest.py: one digest per CLI run, the same for the same outcome."""

import os
import re
import sys

import pytest

from adskg import cli

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture
def cli_digest(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import cli_digest

    return cli_digest


def test_two_argvs(cli_digest, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    argvs = [
        f"flux-classify --omega 2:3:0.5 --lmax 1 --out {out}",  # exit 0, rows in the file
        "flux-classify --d 4 --omega 2:3:0.5 --lmax 1",  # exit 3: channel b's even-d pole
    ]
    listing = tmp_path / "argvs.txt"
    listing.write_text("\n".join(argvs) + "\n")
    runs = []
    for _ in range(2):
        assert cli_digest.main([str(listing)]) == 0
        runs.append(capsys.readouterr().out.splitlines())
        assert not out.exists()  # read into the digest, then removed
    assert runs[0] == runs[1]
    digests, lines = zip(*(re.fullmatch(r"([0-9a-f]{64})  (.*)", line).groups() for line in runs[0]))
    assert list(lines) == argvs and digests[0] != digests[1]


def test_digest_does_not_depend_on_the_work_directory(cli_digest, tmp_path):
    results = []
    for name in ("one", "two"):
        workdir = tmp_path / name
        workdir.mkdir()
        argv = ["harmonics-table", "--table", "ladder", "--d", "4", "--lmax", "1", "--out", str(workdir / "rows.csv")]
        results.append(cli_digest.digest(cli, argv, str(workdir)))
    assert results[0] == results[1]
    assert results[0][1] == "harmonics-table --table ladder --d 4 --lmax 1 --out $WORK/rows.csv"


def test_session_jobs_are_digested_by_their_values(cli_digest, monkeypatch, tmp_path):
    # a library session job of a mode-audit cycle, built and run by perfbench's own code
    from adskg.harmonics import wigner_block_euler

    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(TOOLS), "perfbench"))
    import generate
    import workloads

    import adskg

    workload = workloads.Workload("mode-audit", 1, str(tmp_path))
    workload.blocks[3] = {l: wigner_block_euler(l, 0.3, 1.1, -0.4) for l in range(3)}
    lines = []
    for seed in (7, 7, 8):
        params = dict(d=3, delta=4.2, lmax=2, omegas=[0.5, 1.5], step=0.5, jkind="diagonal", which=1, dt=0.3, seed=seed)
        job = generate.Job("session", params)
        workload.prepare(job, None)
        lines.append(cli_digest.session_digest(workloads.execute, adskg, job))
    assert lines[0] == lines[1] and lines[0][0] != lines[2][0]
    assert lines[0][1].startswith("session {") and "'seed': 7" in lines[0][1]
