"""adskg benchmark: three seeded closed-loop workloads, one client, in-process.

Run from the repository root:

    python3 perfbench/run.py --workload tube-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each run imports adskg from src/ of the checkout, sets up (input files and
warm-up), then runs passes of jobs back to back until --seconds of job time
have been measured, at least MIN_COMPLETED jobs completed and the last
cycle of passes is whole (a traced run stops on --seconds alone).  Every job is
verified off the clock.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 every job runs once
plain and once traced, and the per-layer metrics are reported instead.
"""

import os
import sys
import time

T0 = time.perf_counter()

# One client on a 2-core box: keep BLAS and OpenMP pools to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import namedtuple  # noqa: E402

import numpy as np  # noqa: E402

from generate import CYCLE, KNOWN_FAILURES, quadrature_keys  # noqa: E402
from tracing import GROUPS, HARNESS, Tracer  # noqa: E402
from workloads import Workload, execute  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_COMPLETED = 100  # p90 then has at least ten samples beyond it
SETUP_PROBES = 4  # fresh processes that repeat set-up; setup_s is the median with the run's own
WALL_LIMIT_S = 140.0  # stop starting passes after this much wall time
REF_NOMINAL_S = 2.0e-3  # reference loop time at the nominal host speed (fast state of the build host)
REF_SAMPLES = 2  # reference loops right before and right after every job

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "rows_per_s": "rows/s",
    "failed_share": "ratio",
    "min_correct_digits": "digits",
    "peak_rss_mb": "MB",
}

# Per-layer counters, reported per traced job.
COUNT_METRICS = (
    "specfun.hyp2f1.calls",
    "specfun.log_gamma.calls",
    "specfun.radial_basis.calls",
    "specfun.poly.calls",
    "specfun.errors",
    "ads_modes.radial.calls",
    "ads_modes.entries",
    "ads_complex_structure.candidate_jab.calls",
    "ads_complex_structure.check_conditions.calls",
    "flux.mode_flux.calls",
    "harmonics.wigner_quadrature.calls",
    "harmonics.wigner_quadrature.points",
    "harmonics.errors",
    "geometry.lie_bracket.calls",
    "cli.rows",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("tube-sweep", "mode-audit", "rotation-audit", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment():
    """Machine and library facts recorded with every result."""
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = platform.processor() or "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = fh.read().strip()
    except OSError:
        pass
    env["caches"] = caches
    return env


def do_setup(args, workdir):
    """Import the package, write inputs and warm up.

    Returns (adskg, workload, (seconds, reference)): the set-up's wall time
    from process start and the host reference loop time right after it.
    """
    sys.path.insert(0, SRC)
    import adskg
    import adskg.cli  # noqa: F401  (imports every layer)

    workload = Workload(args.workload, args.seed, workdir)
    workload.setup(adskg)
    seconds = time.perf_counter() - T0
    return adskg, workload, (seconds, statistics.median(reference_seconds() for _ in range(5)))


def setup_probes(args):
    """(set-up time, reference time) of fresh processes doing the same set-up."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe"]
        cmd += ["--workload", args.workload, "--seed", str(args.seed)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe {i} failed: {done.stderr.strip()[-500:]}")
        times.append(tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup"]))
    return times


def reference_seconds():
    """Wall time of a fixed loop of dict, complex and small-array work that uses no adskg.

    Timed REF_SAMPLES times right before and after every job, off the
    clock, its median measures how fast the host runs at that moment.
    """
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(3000):
        table[(i * 0.5, i % 7)] = complex(i, -i)
        acc += abs(table[(i * 0.5, i % 7)]) * 0.5
    a = np.arange(512.0)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


# seconds: the job's wall time (traced in a traced run); plain: its untraced
# time in a traced run; ref: host reference loop time around the job
Record = namedtuple("Record", "job seconds verdict plain ref")


class Runner:
    """Closed loop over passes; records each job's time and verdict."""

    def __init__(self, adskg, workload, args, tracer=None):
        from oracles import verify  # mpmath is loaded after set-up, off the set-up clock

        self.adskg, self.workload, self.args, self.tracer = adskg, workload, args, tracer
        self.verify = verify
        self.records = []
        self.pass_ends = []

    def timed(self, job, traced):
        if traced:
            self.tracer.begin_job(len(self.records))
        t0 = time.perf_counter()
        out = execute(self.adskg, job)
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.end_job()
        return out, seconds

    def run_job(self, job):
        job_id = len(self.records)
        self.workload.prepare(job, job_id)
        plain = None
        refs = [reference_seconds() for _ in range(REF_SAMPLES)]
        if self.tracer is None:
            out, seconds = self.timed(job, False)
        elif job_id % 2:
            out, seconds = self.timed(job, True)
            _, plain = self.timed(job, False)
        else:
            _, plain = self.timed(job, False)
            out, seconds = self.timed(job, True)
        refs += [reference_seconds() for _ in range(REF_SAMPLES)]
        ref = statistics.median(refs)
        rng = np.random.default_rng([self.args.seed, 7, job_id])
        verdict = self.verify(self.adskg, job, out, rng)
        if job.out_path and os.path.exists(job.out_path):
            os.remove(job.out_path)
        job.inputs = {}
        self.records.append(Record(job, seconds, verdict, plain, ref))
        return seconds + (plain or 0.0)

    def loop(self):
        clock = 0.0
        pass_index = 0
        while True:
            for job in self.workload.make_pass(pass_index):
                clock += self.run_job(job)
            pass_index += 1
            self.pass_ends.append(len(self.records))
            completed = sum(1 for r in self.records if r.verdict.status == "ok")
            if time.perf_counter() - T0 > WALL_LIMIT_S:
                break
            if pass_index % CYCLE and not self.tracer:
                continue  # an untraced run measures whole cycles of the size schedule
            if clock >= self.args.seconds and (self.tracer or completed >= MIN_COMPLETED):
                break


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    Job times form clusters by job size, and a sample quantile that sits at
    the edge of a cluster jumps to the next one when a single job moves;
    the Beta weights spread over the neighbouring ranks, so the estimate
    moves smoothly.
    """
    import mpmath  # loaded after set-up, like the oracles

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def run_figures(records, normalize):
    """p50 and p90 of the completed jobs' times, rows/s, and the samples beyond p90.

    With normalize, each job's time is scaled by REF_NOMINAL_S over the
    reference-loop time around it, which takes out the host's speed at the
    time of the job.
    """
    def scaled(r):
        return r.seconds * REF_NOMINAL_S / r.ref if normalize else r.seconds

    done = [r for r in records if r.verdict.status == "ok"]
    times = [scaled(r) for r in done]
    p90 = hd_quantile(times, 0.9)
    rate = sum(r.verdict.rows for r in done) / sum(scaled(r) for r in records)
    return hd_quantile(times, 0.5), p90, rate, sum(1 for t in times if t > p90)


def end_to_end(records, pass_ends, setups):
    """End-to-end metrics; the time-based ones at the nominal host speed.

    The host this was built on changes speed by up to 1.8x within a second
    (the reference loop, which uses no adskg, takes 1.6 to 3.2 ms), so each
    job's time, and each set-up time, is put at the speed where the
    reference loop takes REF_NOMINAL_S; the raw figures are printed with the
    metrics.
    """
    ok = [r for r in records if r.verdict.status == "ok"]
    digits = [r.verdict.digits for r in ok if r.verdict.digits is not None]
    failed = len(records) - len(ok)
    p50, p90, rate, beyond = run_figures(records, normalize=True)
    raw50, raw90, raw_rate, _ = run_figures(records, normalize=False)
    values = {
        "setup_s": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setups),
        "job_p50_s": p50,
        "job_p90_s": p90,
        "rows_per_s": rate,
        "failed_share": failed / len(records),
        "min_correct_digits": min(digits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "job_p50_s": raw50,
        "job_p90_s": raw90,
        "rows_per_s": raw_rate,
    }
    passes = len(pass_ends)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups at the nominal host speed; raw "
        + ", ".join(f"{t:.3f}" for t, _ in setups),
        "job_p50_s": f"{len(ok)} completed jobs in {passes} passes; raw {raw50:.6g}",
        "job_p90_s": f"{len(ok)} completed jobs in {passes} passes, {beyond} beyond p90; raw {raw90:.6g}",
        "rows_per_s": f"{sum(r.verdict.rows for r in ok)} verified rows in {len(records)} attempted jobs taking"
        f" {sum(r.seconds for r in records):.3f} s raw; raw {raw_rate:.6g}",
        "failed_share": f"{failed} failed / {len(records)} attempted",
        "min_correct_digits": f"minimum over {len(digits)} verified outputs with a numeric reference",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return values, notes, raw


def per_layer(tracer, records):
    n = len(records)
    traced = sum(r.seconds for r in records)
    plain = sum(r.plain for r in records)
    values = {f"{group}.self_s": tracer.self_s[group] / n for group in GROUPS}
    for name in COUNT_METRICS:
        values[name] = tracer.counters.get(name, 0) / n
    calls = tracer.counters.get("ads_complex_structure.candidate_jab.calls", 0)
    repeats = tracer.counters.get("ads_complex_structure.candidate_jab.repeats", 0)
    values["ads_complex_structure.candidate_jab.repeat_share"] = repeats / calls if calls else 0.0
    exact = tracer.counters.get("harmonics.wigner_quadrature.exact_points", 0)
    points = tracer.counters.get("harmonics.wigner_quadrature.points", 0)
    values["harmonics.wigner_quadrature.oversample"] = points / exact if exact else 0.0
    values["trace.overhead"] = traced / plain
    values["trace.job_s"] = traced / n
    values["trace.untraced_job_s"] = plain / n
    values["trace.spans"] = tracer.span_total / n
    layers = sum(v for k, v in tracer.self_s.items() if k != HARNESS)
    values["trace.layer_share"] = layers / traced
    return values


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("self_s") or name.endswith("job_s"):
        return "s/job"
    if name.endswith(("repeat_share", "oversample", "overhead", "layer_share")):
        return "ratio"
    return "count/job"


def input_properties(workload, records):
    """Measured properties of the generated inputs, printed with every run."""
    jobs = [r.job for r in records]
    kinds = sorted({j.kind for j in jobs})
    props = {}
    for kind in kinds:
        rows = [r.verdict.rows for r in records if r.job.kind == kind and r.verdict.status == "ok"]
        props[f"rows_per_job.{kind}"] = round(statistics.mean(rows), 1) if rows else 0
        props[f"jobs.{kind}"] = sum(1 for j in jobs if j.kind == kind)
    if workload.name == "mode-audit":
        sizes = [len(f["entries"]) for f in workload.files]
        props["file_entries"] = sizes
        props["file_json_bytes"] = [f["modes_bytes"] for f in workload.files]
        sessions = [r.verdict.rows for r in records if r.job.kind == "session" and r.verdict.status == "ok"]
        props["session_entries_min_median_max"] = [min(sessions), statistics.median(sessions), max(sessions)]
    if workload.name == "rotation-audit":
        keys = set().union(*(quadrature_keys(j) for j in jobs))
        props["quadrature_keys"] = f"{len(keys)} distinct (d, order) keys against the 32-entry cache"
    return props


def run_all(args):
    """Run the three workloads one after another, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("tube-sweep", "mode-audit", "rotation-audit"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(merged))
    return 0


def outcome(verdict):
    """A job's failure class, "unexpected", or None when it passed."""
    return verdict.failure if verdict.status == "known" else (None if verdict.status == "ok" else "unexpected")


def record_failures(records, path, env):
    """Print failures by class and write the known-failure record; returns the unexpected ones.

    The record lists every failing job, and every job whose outcome is not
    the class the generator predicted (a wigner-unitarity prediction allows
    a pass).
    """
    failures = [(r.job, r.verdict) for r in records if r.verdict.status != "ok"]
    by_class = {}
    for _, verdict in failures:
        cls = outcome(verdict)
        by_class[cls] = by_class.get(cls, 0) + 1
    for cls, count in sorted(by_class.items()):
        print(f"failures {cls}: {count}  ({KNOWN_FAILURES.get(cls, 'not a known failure')})")
    rows = [
        {"job": job.describe()[:400], "status": v.status, "failure": v.failure, "predicted": job.predicted}
        for job, v in failures
    ]
    mismatches = [
        {"job": r.job.describe()[:400], "predicted": r.job.predicted, "outcome": outcome(r.verdict), "detail": r.verdict.failure}
        for r in records
        if outcome(r.verdict) != r.job.predicted and not (r.job.predicted == "wigner-unitarity" and r.verdict.status == "ok")
    ]
    print(f"outcomes other than predicted: {len(mismatches)}")
    with open(path, "w") as fh:
        json.dump({"env": env, "failures": rows, "mismatches": mismatches}, fh, indent=1)
    unexpected = [(job, v) for job, v in failures if v.status == "unexpected"]
    for job, verdict in unexpected[:10]:
        print(f"UNEXPECTED {job.describe()[:300]}: {verdict.failure}")
    return unexpected


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adskg", "__init__.py")):
        raise SystemExit(f"perfbench: no adskg package under {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        return run_all(args)
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        adskg, workload, setup = do_setup(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup": setup}))
            return 0
        setups = [setup] + setup_probes(args)
        tracer = Tracer(adskg) if args.trace else None
        runner = Runner(adskg, workload, args, tracer)
        runner.loop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records, pass_ends = runner.records, runner.pass_ends
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(input_properties(workload, records), sort_keys=True))
    print(f"run {args.workload} seed={args.seed} passes={len(pass_ends)} jobs={len(records)} trace={args.trace}")
    starts = [0] + pass_ends[:-1]
    ref = sorted(r.ref for r in records)
    print(f"host reference loop: median {statistics.median(ref) * 1e3:.3f} ms, range {ref[0] * 1e3:.3f}-{ref[-1] * 1e3:.3f} ms")
    print("pass_job_seconds " + " ".join(f"{sum(r.seconds for r in records[a:b]):.3f}" for a, b in zip(starts, pass_ends)))
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    unexpected = record_failures(records, stem + "-failures.json", env)
    notes, raw = {}, None
    if args.trace:
        values = per_layer(tracer, records)
        layers = values["trace.layer_share"] * values["trace.job_s"]
        print(
            f"accounting: layer self times {layers:.6f} + bench.harness {values['bench.harness.self_s']:.6f}"
            f" = traced job {values['trace.job_s']:.6f} s/job; untraced job {values['trace.untraced_job_s']:.6f}"
            f" s/job; overhead {values['trace.overhead']:.3f}"
        )
        tracer.write(stem + "-spans.jsonl", {"workload": args.workload, "seed": args.seed, "env": env})
    else:
        values, notes, raw = end_to_end(records, pass_ends, setups)
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {value:.6g} {unit_of(name)}{note}")
    if raw is not None:
        # the same metrics as measured, before the host-speed correction
        print("raw " + json.dumps({name: {"value": value, "unit": unit_of(name)} for name, value in raw.items()}))
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(unexpected),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
