"""One run of one workload in a fresh process; started by run.py.

Set-up (importing legseq and writing the workload's input files) is
timed from the first line of this file.  With --setup-only the worker
stops there.  Otherwise it runs the workload's job list in passes, one
caller in a closed loop: each job is one in-process call of
legseq.cli.main(argv) with stdout and stderr captured, and the next job
starts when the previous one has returned.  Outputs are checked after
each pass, outside the timed region.  Files that jobs write are removed
before each pass, so every pass writes new files, as the first does:
overwriting a file makes ext4 flush it to disk on close, which would
time the disk instead of the program.

Untraced runs make the workload's fixed number of passes for --seconds
(Workload.passes), the same for every version of the program.  The
job list's time is the sum over jobs of each job's fastest latency in the
run, and the median job latency is the median of those: the jobs are
deterministic, and on a shared machine other load only adds time, so the
fastest of several passes is the steadiest estimate of a job's cost.
Runs report peak RSS as it stands after the first pass: later passes only add
allocator fragmentation that a one-command CLI user never sees, and the
checker's own memory stays out.  A traced run makes one untraced pass
and then one pass with the tracer installed.  The last line of stdout is
a JSON summary.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import checkout  # noqa: E402

checkout.use_checkout_legseq()

import numpy  # noqa: E402

import legseq.cli as cli  # noqa: E402
from checker import Checker, JobResult  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

JOB_TIMEOUT_S = 30.0


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(job, limit_s) -> JobResult:
    """Call legseq.cli.main(job.argv) in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except JobTimeout:
        error = "timeout"
    except SystemExit as exc:  # argparse rejects its argv this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return JobResult(job.key, code, out.getvalue(), err.getvalue(), error,
                     time.perf_counter() - start)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--budget-s", type=float, required=True,
                    help="wall time this process may use in all")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    plan = workload.plan(args.seed)
    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    for fn, make in plan.files.items():
        make().dump(workdir / fn)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.chdir(workdir)
    checker = Checker(workdir)
    deadline = T0 + args.budget_s
    walls = []
    best = [float("inf")] * len(plan.jobs)   # each job's fastest latency
    counts = {"attempted": 0, "failed": 0}
    problems = []

    def one_pass():
        for job in plan.jobs:
            for fn in job.writes:
                (workdir / fn).unlink(missing_ok=True)
        start = time.perf_counter()
        results = []
        for job in plan.jobs:
            limit = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
            if limit <= 0:
                results.append(JobResult(job.key, None, "", "", "timeout", 0))
            else:
                results.append(run_job(job, limit))
        return time.perf_counter() - start, results

    def check(results):
        for i, (job, res) in enumerate(zip(plan.jobs, results)):
            found = checker.problems(job, res)
            counts["attempted"] += 1
            counts["failed"] += bool(found)
            problems.extend(found)
            best[i] = min(best[i], res.elapsed)

    layers = peak_rss_mb = None
    if args.trace:
        untraced, results = one_pass()
        check(results)
        with Tracer() as tracer:
            traced, results = one_pass()
        check(results)
        walls = [untraced, traced]
        layers = tracer.metrics(traced, untraced)
    else:
        for _ in range(workload.passes(args.seconds)):
            wall, results = one_pass()
            if not walls:
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            check(results)
            walls.append(wall)
            # a program far slower than the defining commit makes fewer
            # passes rather than overrun the run's time limit
            if time.perf_counter() + 1.5 * max(walls) > deadline:
                break

    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "jobs_per_pass": len(plan.jobs),
        "wall_s": sum(best),
        "job_p50_ms": median(best) * 1000,
        "peak_rss_mb": peak_rss_mb,
        **counts,
        "problems": problems[:20],
        "layers": layers,
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
