"""One sha256 digest per adskg CLI run, for byte-parity checks between two checkouts.

Each run is `adskg.cli.main(argv)` in this process, with the package imported from
<repo>/src.  Its digest covers the exit code (or the escaping exception), stdout,
stderr, the warnings it raised (category and message) and the bytes of its `--out`
file.  Each output line is the digest, two spaces, then the argv as a shell line.
Paths are written as placeholders: the work directory as $WORK, so digests do not
depend on where a run writes.

A library session job of a perfbench cycle runs through perfbench/workloads.py's
`execute`.  Its digest covers the escaping exception or each returned value by name:
a ModeVector by its to_json text and its entry order, the condition report by its
case and flags, and anything else by repr.  Its line ends with the job's description.

Inputs, in this order:
  --grids             the ROADMAP grids and the fault grids (GRIDS below)
  --cycle NAME:SEED   every CLI job and library session job of one cycle of a
                      perfbench workload (tube-sweep, mode-audit or rotation-audit) at
                      a seed, built by perfbench/generate.py and workloads.py, which
                      are only read
  FILE ...            argvs, one per line in shell syntax ('-' reads stdin)

To check parity, run it on the parent checkout and on the change, then diff:

    python tools/cli_digest.py --repo ../parent --grids --cycle tube-sweep:1 > before.txt
    python tools/cli_digest.py --grids --cycle tube-sweep:1 > after.txt
    diff before.txt after.txt
"""

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import os
import shlex
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_STATED = [
    "candidate-sweep --omega 0.05:20:0.1 --lmax 10",
    "flux-classify --omega 1:20:0.1 --lmax 10",
    "jfactor-audit --omega 0.5:20:0.1 --lmax 10",
    "harmonics-table --d 5 --lmax 6",
    "selfcheck",
]
_FAULTS = [
    "flux-classify --omega 20:60:1 --lmax 10",
    "flux-classify --omega 20:120:1 --lmax 10",
    "flux-classify --d 4 --omega 1:20:0.1 --lmax 10",
    "flux-classify --d 6 --omega 0.1:9:0.1 --lmax 8",
    "flux-classify --d 5 --delta 6.3 --omega 1:20:0.1 --lmax 10",
    "flux-classify --d 3 --delta 2.5 --omega 2:2:1 --lmax 0",
    "flux-classify --omega 3000:3001:1 --lmax 2",
    "flux-classify --delta 900.3 --omega 0:2:1",
    "flux-classify --omega 1e154:1e154:1",
    "flux-classify --omega 200:201:0.5 --lmax 150",
    "candidate-sweep --delta 4.2 --omega 1.3:5.3:0.5 --lmax 2",
    "candidate-sweep --d 4 --delta 3.37 --omega 0.05:2:0.25 --lmax 3",
    "jfactor-audit --d 4 --delta 4.9 --lmax 10 --omega 3:4.4:0.7 --candidates 3",
    "jfactor-audit --preset diagonal --omega 0.5:2:0.5 --lmax 2",
    "jfactor-audit --d 2",
    "harmonics-table --table ladder --d 2 --lmax 1",
    "candidate-sweep --omega 0:1e300:1e-300",
    "candidate-sweep --omega 0:1e9:1e-9",
]
# the ROADMAP grids and the fault grids, each in CSV and in JSON where it takes --format
GRIDS = [
    line + fmt
    for line in _STATED + _FAULTS
    for fmt in ([""] if line == "selfcheck" else ["", " --format json"])
]


def cycle_runs(repo, name, seed, workdir):
    """Every CLI job and session job of one cycle of workload `name` at `seed`, in run
    order: the argv of a CLI job, or a function that digests a session job."""
    sys.path.insert(0, os.path.join(repo, "perfbench"))
    sys.dont_write_bytecode = True  # perfbench/ is only read
    generate, workloads = (importlib.import_module(m) for m in ("generate", "workloads"))
    adskg = importlib.import_module("adskg")  # with adskg.cli, which main imported
    workload = workloads.Workload(name, seed, workdir)
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        workload.setup(adskg)
    runs, argvs = [], 0
    for k in range(generate.CYCLE):
        for job in workload.make_pass(k):
            if job.argv is not None:
                workload.prepare(job, argvs)
                runs.append(job.argv)
                argvs += 1
            elif job.kind == "session":
                workload.prepare(job, None)
                runs.append(functools.partial(session_digest, workloads.execute, adskg, job))
    return runs


def session_digest(execute, adskg, job):
    """(sha256 of a session job's outcome, the job's description)."""
    out = execute(adskg, job)
    if out.exc is not None:
        parts = [f"raised {type(out.exc).__name__}: {out.exc}"]
    else:
        parts = [f"{key}: {_spelled(value)}" for key, value in out.value.items()]
    return hashlib.sha256("\0".join(parts).encode()).hexdigest(), job.describe()


def _spelled(value):
    if hasattr(value, "to_json"):  # a ModeVector, and the order of its entries
        return value.to_json() + repr(list(value.entries))
    if hasattr(value, "essential_ok"):  # a ConditionReport
        flags = ("reality_ok", "square_ok", "compat_ok", "offdiag_ok", "real_products_ok", "positivity_ok")
        return " ".join([value.case, *(f"{flag}={getattr(value, flag)}" for flag in flags)])
    return repr(value)


def digest(cli, argv, workdir):
    """(sha256 of the run's outcome, its argv as a shell line with $WORK for workdir)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = f"exit {cli.main(list(argv))}"
        except (Exception, SystemExit) as exc:  # an escape from the CLI is part of the outcome
            status = f"raised {type(exc).__name__}: {exc}"
    parts = [status, stdout.getvalue(), stderr.getvalue()]
    parts += [f"{w.category.__name__}: {w.message}" for w in caught]
    parts = [part.encode() for part in parts]
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            with open(path, "rb") as fh:
                parts.append(fh.read())
            os.remove(path)
        else:
            parts.append(b"no --out file")
    outcome = b"\0".join(parts).replace(workdir.encode(), b"$WORK")
    return hashlib.sha256(outcome).hexdigest(), shlex.join(argv).replace(workdir, "$WORK")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repo", default=ROOT, help="checkout whose src/ and perfbench/ run (default: this one)")
    parser.add_argument("--grids", action="store_true", help="the ROADMAP grids and the fault grids")
    parser.add_argument("--cycle", action="append", default=[], metavar="NAME:SEED")
    parser.add_argument("files", nargs="*", metavar="FILE", help="argvs, one per line ('-' for stdin)")
    args = parser.parse_args(argv)
    if not (args.grids or args.cycle or args.files):
        parser.error("give --grids, --cycle or an argv file")
    repo = os.path.abspath(args.repo)
    sys.path.insert(0, os.path.join(repo, "src"))
    cli = importlib.import_module("adskg.cli")
    with tempfile.TemporaryDirectory() as workdir:
        runs = [shlex.split(line) for line in GRIDS] if args.grids else []
        for spec in args.cycle:
            name, seed = spec.rsplit(":", 1)
            runs += cycle_runs(repo, name, int(seed), os.path.join(workdir, f"{name}-{seed}"))
        for path in args.files:
            with open(path) if path != "-" else contextlib.nullcontext(sys.stdin) as fh:
                runs += [shlex.split(line) for line in fh if line.strip()]
        for run in runs:
            print("  ".join(run() if callable(run) else digest(cli, run, workdir)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
