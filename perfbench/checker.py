"""Output checker.

Every job's output (exit code, report without ``timing_ms``, stderr and
the hash of every file it writes) must equal the snapshot taken with
``snapshot.py`` for the same arguments, and every witness in a report
must re-evaluate to its value through legseq's ``evaluate_*_witness``
functions.  A job that
raised, printed a traceback or passed its timeout fails.  Exit code 2
of a failing triple is an answer: it fails only if the snapshot says 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from legseq.constructions import BinarySequence, construct_combined
from legseq.measures import (evaluate_corr_witness, evaluate_cross_witness,
                             evaluate_w_witness)

SNAPSHOT = Path(__file__).with_name("snapshot.json")


@dataclass
class JobResult:
    key: str
    code: Optional[int]     # None when the call raised or timed out
    stdout: str
    stderr: str
    error: Optional[str]    # traceback text, or "timeout"
    elapsed: float


def load_snapshot() -> dict:
    with open(SNAPSHOT, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def _digest(path: Path) -> Optional[str]:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def observe(job, result: JobResult, workdir: Path) -> dict:
    """The part of a job's output that must repeat exactly, keyed with the
    arguments that produced it."""
    out = {"argv": list(job.argv), "exit": result.code,
           "stderr": result.stderr,
           "files": {fn: _digest(workdir / fn) for fn in job.writes}}
    try:
        report = json.loads(result.stdout)
    except ValueError:
        out["stdout"] = result.stdout
    else:
        if isinstance(report, dict):
            report.pop("timing_ms", None)
        out["report"] = report
    return out


def evaluate_witness(measure: dict, seqs: list) -> int:
    """Re-evaluate one report measure's witness on the measured files:
    one sequence for measure, the family for crosscorr (whose C entry is
    the combined sequence of --theorem3)."""
    name, w = measure["name"], measure["witness"]
    if name == "W":
        a, b, t = w
        return evaluate_w_witness(seqs[0], a, b, t)
    if name == "C":
        target = seqs[0] if len(seqs) == 1 else construct_combined(*seqs)
        return evaluate_corr_witness(target, tuple(w[0]), w[1])
    if name == "Phi":
        return evaluate_cross_witness(seqs, tuple(w[0]), tuple(w[1]), w[2])
    raise ValueError(f"unknown measure {name!r}")


class Checker:
    def __init__(self, workdir, expected: Optional[dict] = None):
        self.workdir = Path(workdir)
        self.expected = load_snapshot() if expected is None else expected
        self._verified = set()  # (key, report) pairs already re-evaluated

    def problems(self, job, result: JobResult) -> list:
        if result.error is not None:
            return [f"{job.key}: {result.error.strip().splitlines()[-1]}"]
        if "Traceback" in result.stderr:
            return [f"{job.key}: traceback on stderr"]
        want = self.expected.get(job.key)
        if want is None:
            return [f"{job.key}: no snapshot entry"]
        got = observe(job, result, self.workdir)
        out = [f"{job.key}: {field} differs from the snapshot"
               for field in sorted(set(got) | set(want))
               if got.get(field) != want.get(field)]
        return out + self.witness_problems(job, got.get("report"))

    def witness_problems(self, job, report) -> list:
        if not isinstance(report, dict) or "measures" not in report:
            return []
        memo = (job.key, json.dumps(report, sort_keys=True))
        if memo in self._verified:
            return []
        seqs = [BinarySequence.load(self.workdir / fn) for fn in job.measured]
        out = []
        for m in report["measures"]:
            label = f"{job.key}: {m['name']}{m['order'] or ''}"
            try:
                got = evaluate_witness(m, seqs)
            except (ValueError, TypeError, IndexError) as exc:
                out.append(f"{label} witness does not evaluate: {exc}")
                continue
            if got != m["value"]:
                out.append(f"{label} witness evaluates to {got}, "
                           f"report says {m['value']}")
        if not out:
            self._verified.add(memo)
        return out
