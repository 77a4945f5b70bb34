"""Self-tests of the benchmark's checker and tracer.

    python3 perfbench/selftest.py

They check that the checker rejects perturbed outputs, that a timeout
counts as a failure, that the tracer puts every original function back,
and that its work counters repeat exactly across two traced runs.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import unittest

from worker import run_job  # puts the checkout's legseq on sys.path

import legseq  # noqa: E402
from checker import Checker, JobResult, load_snapshot  # noqa: E402
from checkout import ROOT  # noqa: E402
from tracing import MODULES, Tracer, metric_specs  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

# slot variants used below: a cheap exact measure with W and C_3, a
# family with Phi and the combined C_2, and a triple that fails its check
MEASURE = "small-families/legendre/p251/orders3"
FAMILY = "small-families/family/n8"
FAILING = "check-triples/ex4/p2003/check"


def _pool_jobs():
    jobs, files = {}, {}
    for plan in WORKLOADS["small-families"].pool() + \
            WORKLOADS["check-triples"].pool():
        files.update(plan.files)
        jobs.update((job.key, job) for job in plan.jobs)
    return jobs, files


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        cls.workdir.mkdir(parents=True)
        cls.cwd = os.getcwd()
        os.chdir(cls.workdir)
        cls.jobs, files = _pool_jobs()
        for key in (MEASURE + "/v0", FAMILY + "/v0"):
            for fn in cls.jobs[key].measured:
                files[fn]().dump(cls.workdir / fn)
        cls.snapshot = load_snapshot()

    @classmethod
    def tearDownClass(cls):
        os.chdir(cls.cwd)
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def run_key(self, key):
        job = self.jobs[key]
        return job, run_job(job, 60)


class CheckerTest(BenchTest):
    def assertRejected(self, job, res, expected=None):
        checker = Checker(self.workdir, expected or self.snapshot)
        self.assertTrue(checker.problems(job, res), "perturbed output passed")

    def perturbed(self, res, edit):
        report = json.loads(res.stdout)
        edit(report)
        return JobResult(res.key, res.code, json.dumps(report), res.stderr,
                         res.error, res.elapsed)

    def test_real_outputs_pass(self):
        for key in (MEASURE + "/v0", FAMILY + "/v0", FAILING):
            job, res = self.run_key(key)
            self.assertEqual(Checker(self.workdir).problems(job, res), [], key)

    def test_failing_verdict_is_an_answer(self):
        job, res = self.run_key(FAILING)
        self.assertEqual(res.code, 2)
        self.assertRejected(job, JobResult(res.key, 0, res.stdout, "", None,
                                           res.elapsed))
        self.assertRejected(job, self.perturbed(res, lambda r: r[
            "divisibility"]["checks"][0].update(detail="changed")))

    def test_perturbed_value_rejected(self):
        for key in (MEASURE + "/v0", FAMILY + "/v0"):
            job, res = self.run_key(key)
            for i in range(len(json.loads(res.stdout)["measures"])):
                def bump(r, i=i):
                    r["measures"][i]["value"] += 1
                self.assertRejected(job, self.perturbed(res, bump))

    def test_perturbed_witness_rejected_by_reevaluation(self):
        # the snapshot is perturbed too, so only re-evaluation can object
        for key in (MEASURE + "/v0", FAMILY + "/v0"):
            job, res = self.run_key(key)
            for i in range(len(json.loads(res.stdout)["measures"])):
                def shorten(r, i=i):
                    r["measures"][i]["witness"][-1] -= 1
                bad = self.perturbed(res, shorten)
                expected = copy.deepcopy(self.snapshot)
                shorten(expected[key]["report"])
                self.assertRejected(job, bad, expected)

    def test_error_traceback_and_timeout_rejected(self):
        job, res = self.run_key(MEASURE + "/v0")
        for error, stderr in (("Traceback ...\nKeyError: 1", ""),
                              (None, "Traceback (most recent call last)")):
            self.assertRejected(job, JobResult(res.key, res.code, res.stdout,
                                               stderr, error, res.elapsed))
        timed_out = run_job(job, 0.01)
        self.assertEqual(timed_out.error, "timeout")
        self.assertRejected(job, timed_out)


class TracerTest(BenchTest):
    def test_benchmark_json_matches(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]], metric_specs())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))

    def test_uninstall_restores_originals(self):
        import importlib
        spaces = [importlib.import_module(f"legseq.{m}")
                  for m in MODULES + ("tables",)] + [legseq]
        spaces += [ns.__dict__[n] for ns in spaces for n in list(vars(ns))
                   if isinstance(ns.__dict__[n], type)
                   and ns.__dict__[n].__module__.startswith("legseq")]
        before = [(ns, dict(vars(ns))) for ns in spaces]
        tracer = Tracer()
        with tracer:
            self.assertIsNot(legseq.cli.main, before[0][1].get("main"))
        for ns, attrs in before:
            now = vars(ns)
            self.assertEqual(set(now), set(attrs), ns)
            for name, value in attrs.items():
                self.assertIs(now[name], value, f"{ns}.{name}")

    def test_counters_repeat_exactly(self):
        jobs = [self.jobs[MEASURE + "/v0"], self.jobs[FAMILY + "/v0"],
                self.jobs[FAILING],
                Job("gen", ("gen", "--p", "2003", "--f", "x^2+1", "--g",
                            "x^3-1", "--h", "x^4+x-1", "--out", "g.txt"))]
        counted = [n for n, unit, _ in metric_specs() if unit == "count"]
        runs = []
        for _ in range(2):
            with Tracer() as tracer:
                for job in jobs:
                    self.assertIsNone(run_job(job, 60).error)
            values = tracer.metrics(1.0, 1.0)
            runs.append({n: values[n] for n in counted})
        self.assertEqual(runs[0], runs[1])
        for name in ("measures.well_distribution.steps",
                     "measures.correlation.tuples",
                     "measures.cross_correlation.tuples",
                     "ff.Poly.shift.calls", "constructions.elements"):
            self.assertGreater(runs[0][name], 0, name)


if __name__ == "__main__":
    unittest.main()
