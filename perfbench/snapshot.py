"""Write snapshot.json: the expected output of every job in every pool
variant of every workload, taken from the program as it stands.

    python3 perfbench/snapshot.py

Run it only at a commit whose outputs are known to be right: the
benchmark then holds every later commit to exactly these outputs.  A
snapshot is refused if any witness in it does not re-evaluate to its
value.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from worker import run_job  # puts the checkout's legseq on sys.path

from checker import SNAPSHOT, Checker, observe  # noqa: E402
from checkout import ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    workdir = ROOT / ".bench_work" / f"snapshot-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    jobs = {}
    bad = []
    try:
        checker = Checker(workdir, expected={})
        for name, workload in WORKLOADS.items():
            for plan in workload.pool():
                for fn, make in plan.files.items():
                    make().dump(workdir / fn)
                for job in plan.jobs:
                    res = run_job(job, 600)
                    if res.error is not None:
                        bad.append(f"{job.key}: {res.error}")
                        continue
                    got = observe(job, res, workdir)
                    bad += checker.witness_problems(job, got.get("report"))
                    jobs[job.key] = got
            print(f"{name}: done", file=sys.stderr)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(jobs.items())]
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        fh.write('{"jobs": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
