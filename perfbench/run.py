"""legseq benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; legseq is imported from its src/ tree.
Each run starts fresh worker processes (worker.py): one that sets up and
measures, and SETUP_PROBES that only set up, half before it and half
after; setup_s is the fastest of these set-ups.  With --trace 0 the
last line of stdout holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics.  Workloads, metrics and the reasons
behind them are described in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0         # the whole run must end within 180 s
# one thread for numpy's BLAS pools, matching --threads 1 of every job
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def _worker(args, workdir, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir),
           "--budget-s", str(deadline - time.monotonic() - 2)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env={**os.environ, **THREAD_ENV},
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker passed the run's time limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="legseq benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "legseq" / "cli.py").is_file():
        print(f"error: {ROOT} holds no legseq sources (src/legseq)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    def set_ups(numbers):
        return [] if args.trace else [
            _worker(args, work / f"setup{i}", deadline, setup_only=True)
            ["setup_s"] for i in numbers]

    half = SETUP_PROBES // 2
    try:
        # set-ups before and after the measuring worker, so that a short
        # spell of load on the machine meets only some of them
        setups = set_ups(range(half))
        res = _worker(args, work / "run", deadline)
        setups += set_ups(range(half, SETUP_PROBES))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    if args.trace:
        wanted = spec["per_layer"]
        values = res["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": res["wall_s"],
            "job_p50_ms": res["job_p50_ms"],
            # the set-up is deterministic and other load only adds time
            "setup_s": min(setups + [res["setup_s"]]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1 - res["failed"] / res["attempted"],
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    for problem in res["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    how = ("one untraced pass, then one traced pass" if args.trace else
           f"wall_s sums each job's fastest of {len(res['walls'])} passes, "
           f"job_p50_ms is their median over {res['jobs_per_pass']} jobs, "
           f"setup_s the fastest of {len(setups) + 1} set-ups "
           f"{sorted(round(s, 3) for s in setups + [res['setup_s']])} s")
    print(f"# {args.workload} seed={args.seed}: {res['jobs_per_pass']} jobs "
          f"per pass, {res['attempted']} attempted, {res['failed']} failed; "
          f"{how}; pass times {[round(w, 3) for w in res['walls']]} s; "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={res['numpy']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
