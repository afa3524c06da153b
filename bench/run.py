"""quandelier benchmark: seeded CLI workloads, checked and timed.

    python3 bench/run.py --workload corpus-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1        # every workload, one process each

Run from the root of a checkout.  One workload runs in this process as
a closed loop with one client: jobs call `quandelier.cli.run` in
process, one at a time, with no extra threads or processes.  Set-up
(importing the package, building and writing the seeded inputs) is done
at least SETUP_ROUNDS times and for at least SETUP_MIN_S seconds, and
its median is `setup_s`.  Then the job list runs in passes until
--seconds have gone by, always at least one pass.  Every job's answer is
checked; a wrong answer, an exception escaping `run` or
a job reaching its time cap counts as a failed job, and no job is
dropped.  Times are reported at a reference speed (see SpeedProbe), so
that busy neighbours on a shared machine move them less.

With --trace 0 the last line of output holds the end-to-end metrics.
With --trace 1 one more pass runs with spans around the package's
public functions and the last line holds the per-layer metrics, with
`trace_overhead_s`, the traced pass's wall time minus the median
untraced one.  The spans are written to .bench_out/.
"""

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

START = time.perf_counter()
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Set-up runs at least this many times and for at least this long, so
# that the median of short set-ups rests on enough rounds.
SETUP_ROUNDS = 3
SETUP_MIN_S = 2.0
# A job that runs this long is stopped and counted as a timeout.
JOB_CAP_S = 60.0
# Jobs not finished this long after start count as timeouts, so a run
# ends well inside the three minutes one run may take.
RUN_DEADLINE_S = 165.0
# Modules set-up imports afresh in every round, so import is measured.
FRESH = ("quandelier", "corpus", "checks", "workloads", "tracing")
# On a shared machine the same pass runs up to twice as long while other
# tenants are busy, for seconds to minutes at a time.  While a timed
# interval runs, a SIGPROF handler times a fixed loop every PROBE_EVERY_S
# of CPU time, and the interval's time is reported at the speed at which
# that loop takes PROBE_REF_S (its time on an idle core of the machine
# the bounds were set on).  The raw times are printed with the notes.
PROBE_EVERY_S = 0.02
PROBE_REF_S = 30e-6
# A job's own samples set its scale once there are this many; shorter
# jobs take the scale of their pass.
PROBE_MIN_SAMPLES = 5

PER_LAYER = [
    ("quandle.validate_s", "s"), ("quandle.validate_calls", "count"),
    ("quandle.q3_triples", "count"),
    ("fpgroup.tc_s", "s"), ("fpgroup.tc_calls", "count"),
    ("fpgroup.tc_budget_hits", "count"), ("fpgroup.tc_wasted_s", "s"),
    ("fpgroup.tc_cosets", "count"), ("fpgroup.tc_relator_letters", "count"),
    ("fpgroup.snf_s", "s"), ("fpgroup.snf_dense_s", "s"),
    ("fpgroup.snf_nnz", "count"), ("fpgroup.snf_dense_cells", "count"),
    ("fpgroup.adjoint_presentation_s", "s"),
    ("fundamental.pi1_presentation_s", "s"),
    ("fundamental.pi1_generators", "count"),
    ("fundamental.pi1_relators", "count"),
    ("fundamental.build_complex_s", "s"),
    ("fundamental.adj0_enumeration_s", "s"),
    ("fundamental.universal_cover_s", "s"),
    ("fundamental.cover_elements", "count"),
    ("fundamental.census_s", "s"), ("fundamental.fundamental_group_s", "s"),
    ("permgroup.subgroups_s", "s"), ("permgroup.subgroup_count", "count"),
    ("cohomology.h2_integral_s", "s"),
    ("cohomology.h2_with_coefficients_s", "s"),
    ("cohomology.extension_from_cocycle_s", "s"),
    ("cohomology.is_cocycle_s", "s"), ("cohomology.check_extension_s", "s"),
    ("cohomology.are_equivalent_extensions_s", "s"),
    ("cli.parse_s", "s"), ("cli.emit_s", "s"), ("cli.emit_bytes", "bytes"),
    ("cli.validate_s", "s"), ("cli.pi1_s", "s"), ("cli.h2_s", "s"),
    ("cli.h2c_s", "s"), ("cli.cover_s", "s"), ("cli.ext_s", "s"),
    ("trace_overhead_s", "s"),
]


class JobTimeout(BaseException):
    """Raised in a job that reached its cap; not an Exception, so the
    command line's own handlers let it through."""


def _alarm(signum, frame):
    raise JobTimeout()


class SpeedProbe:
    """Times a fixed loop from a SIGPROF handler while entered."""

    def __init__(self):
        self.samples = []  # (when, loop time)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(400):
            total += i * i % 7
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, start=None, end=None):
        """Reference speed over the speed seen while entered, or between
        start and end when at least PROBE_MIN_SAMPLES fell there."""
        times = [dt for when, dt in self.samples
                 if start is None or start <= when <= end]
        if start is not None and len(times) < PROBE_MIN_SAMPLES:
            return self.scale()
        return PROBE_REF_S / statistics.mean(times) if times else 1.0


def setup(workload, seed, directory):
    """Import the package and build the workload's inputs and jobs."""
    for name in list(sys.modules):
        if name.split(".")[0] in FRESH:
            del sys.modules[name]
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    importlib.import_module("quandelier.cli")
    workloads = importlib.import_module("workloads")
    return workloads.WORKLOADS[workload](directory, seed)


def run_job(cli, workloads, job, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    cap = min(JOB_CAP_S, RUN_DEADLINE_S - (time.perf_counter() - START))
    if cap <= 0:
        return workloads.Result(None, "", "", 0.0, "timeout")
    error = code = None
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.run(job.argv, out=out, err=err)
        else:
            code = tracer.job_span(job.name, cli.run, job.argv, out, err)
    except JobTimeout:
        error = "timeout"
    except Exception as exc:  # escaped the command line: a failed job
        where = traceback.extract_tb(exc.__traceback__)[-1]
        error = (f"{type(exc).__name__}: {exc} at "
                 f"{os.path.basename(where.filename)}:{where.lineno}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    return workloads.Result(code, out.getvalue(), err.getvalue(), seconds,
                            error, start)


class Tally:
    """Jobs attempted and failed, with the reason for each failure.

    The first pass is checked in full and kept as the reference; a
    later pass whose results equal the reference's gets its verdicts,
    any other pass is checked in full."""

    def __init__(self, jobs, checks):
        self.jobs = jobs
        self.checks = checks
        self.reference = None
        self.attempted = 0
        self.failures = []

    def verdicts(self, results):
        if self.reference is not None and results == self.reference[0]:
            return self.reference[1]
        verdicts = {}
        for job in self.jobs:
            result = results[job.name]
            verdicts[job.name] = result.error
            if result.error is None:
                try:
                    job.check(result, results)
                except self.checks.Wrong as exc:
                    verdicts[job.name] = f"wrong answer: {exc}"
                except (ValueError, IndexError, KeyError) as exc:
                    verdicts[job.name] = (f"unreadable output: "
                                          f"{type(exc).__name__}: {exc}")
        if self.reference is None:
            self.reference = (results, verdicts)
        return verdicts

    def add(self, results):
        self.attempted += len(results)
        self.failures += [(name, reason) for name, reason
                          in self.verdicts(results).items() if reason]


def one_pass(jobs, tracer=None):
    cli = sys.modules["quandelier.cli"]
    workloads = sys.modules["workloads"]
    start = time.perf_counter()
    results = {job.name: run_job(cli, workloads, job, tracer)
               for job in jobs}
    return time.perf_counter() - start, results


def measure(args):
    directory = os.path.join(OUT, f"inputs-{args.workload}-{os.getpid()}")
    signal.signal(signal.SIGALRM, _alarm)
    try:
        probe = SpeedProbe()
        setup_raw, setup_times = [], []
        while (len(setup_raw) < SETUP_ROUNDS
               or sum(setup_raw) < SETUP_MIN_S):
            with probe:
                start = time.perf_counter()
                jobs = setup(args.workload, args.seed, directory)
                seconds = time.perf_counter() - start
            setup_raw.append(seconds)
            setup_times.append(seconds * probe.scale())
        tally = Tally(jobs, sys.modules["checks"])

        raw_walls, walls, scales = [], [], []
        latencies = {job.name: [] for job in jobs}
        begin = time.perf_counter()
        while not walls or (time.perf_counter() - begin < args.seconds
                            and time.perf_counter() - START < RUN_DEADLINE_S):
            with probe:
                wall, results = one_pass(jobs)
            scale = probe.scale()
            tally.add(results)
            raw_walls.append(wall)
            walls.append(wall * scale)
            scales.append(scale)
            for name, r in results.items():
                latencies[name].append(r.seconds * probe.scale(
                    r.start, r.start + r.seconds))
            if len(walls) == 1:
                # later passes can raise the peak through fragmentation,
                # and how many passes fit depends on the machine's speed
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        deciles = statistics.quantiles(
            [statistics.median(v) for v in latencies.values()], n=10,
            method="inclusive")
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "job_p50_s": (deciles[4], "s"),
            "job_p90_s": (deciles[8], "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
        notes = {"jobs": len(jobs), "passes": len(walls),
                 "raw_pass_walls_s": [round(w, 3) for w in raw_walls],
                 "speed_scales": [round(x, 3) for x in scales],
                 "raw_setup_s": round(statistics.median(setup_raw), 3),
                 "setup_rounds": len(setup_raw)}
        if args.trace:
            tracer = importlib.import_module("tracing").Tracer()
            tracer.install()
            try:
                wall, results = one_pass(jobs, tracer)
            finally:
                tracer.remove()
            tally.add(results)
            layers = tracer.layer_metrics()
            layers["cli.emit_bytes"] = sum(len(r.out.encode())
                                           for r in results.values())
            layers["trace_overhead_s"] = wall - statistics.median(raw_walls)
            metrics = {name: (layers.get(name, 0), unit)
                       for name, unit in PER_LAYER}
            notes["spans"] = write_spans(args, tracer)
        return metrics, tally, notes
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.setitimer(signal.ITIMER_PROF, 0)
        shutil.rmtree(directory, ignore_errors=True)


def write_spans(args, tracer):
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="ascii") as handle:
        json.dump(tracer.records(), handle)
    return os.path.relpath(path, ROOT)


def report(args, metrics, tally, notes):
    attempted, failed = tally.attempted, len(tally.failures)
    for name, reason in tally.failures[:20]:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    if failed > 20:
        print(f"... {failed - 20} more failures", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in notes.items()))
    print(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted} "
          "jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args):
    """Every workload in a fresh process of its own, one after another."""
    code = 0
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        code |= subprocess.run(command, cwd=ROOT).returncode
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "quandelier", "cli.py")):
        print(f"no quandelier sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    os.makedirs(OUT, exist_ok=True)
    if args.workload is None:
        return run_all(args)
    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report(args, *measure(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
