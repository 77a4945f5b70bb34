"""Workloads of the legseq benchmark.

A workload is a fixed list of jobs; a job is one in-process call of
``legseq.cli.main(argv)``.  Inputs the paper fixes (the published
example polynomials and table primes) are the same for every seed.
Every other input comes from a finite pool: a slot has VARIANTS
variants, each drawn from a PRNG seeded by the slot name and variant
number, and the workload seed picks one variant per slot and the job
order.  The pool is finite so that ``snapshot.json`` holds the expected
output of every job any seed can produce.  The variants of one slot
share their shape (prime, degrees, lengths, verdict class).  Where the
cost of a job still depends on the variant, the slot has one variant
only: on large-p the witness search of a sampled estimator loops in
pure Python up to the start of the sampled window, which moves with the
sampling seed.  large-p runs its jobs in a fixed order (later jobs read
earlier outputs, and peak RSS was seen to depend on which crosscorr runs
first), so its inputs are the same for every seed.

A run makes a fixed number of passes over the job list (``passes``),
derived from ``--seconds`` and the workload's pass time at the commit
that defined the benchmark, so that two versions of the program are
each measured by the fastest of the same number of passes.

Why each workload exists (the layer it loads, and the ones it leaves
idle) is noted above it in WORKLOADS and in README.md.
"""

from __future__ import annotations

import math
import random
from itertools import count
from dataclasses import dataclass, field
from typing import Callable

from legseq.constructions import (BinarySequence, construct_single,
                                  construct_triple)
from legseq.ff import Poly, is_prime, legendre, parse_poly
from legseq.tables import EXAMPLES, PRIMES, example_triple

VARIANTS = 8


@dataclass(frozen=True)
class Job:
    """One CLI call.  File names are relative to the work directory."""

    key: str                # stable id; indexes the snapshot
    argv: tuple
    measured: tuple = ()    # sequence files the report's measures refer to
    writes: tuple = ()      # files the job writes; compared by hash


@dataclass
class Plan:
    jobs: list = field(default_factory=list)
    # input file name -> builder of the sequence written there in set-up
    files: dict = field(default_factory=dict)

    def add(self, other: "Plan"):
        self.jobs.extend(other.jobs)
        self.files.update(other.files)


@dataclass(frozen=True)
class Slot:
    name: str
    build: Callable[[int], Plan]
    variants: int = VARIANTS


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    pass_s: float           # one pass at the defining commit, 2 vCPUs
    shuffle: bool = True    # job order drawn from the seed

    def plan(self, seed: int) -> Plan:
        rng = random.Random(seed)
        plan = Plan()
        for slot in self.slots:
            plan.add(slot.build(rng.randrange(slot.variants)))
        if self.shuffle:
            rng.shuffle(plan.jobs)
        return plan

    def passes(self, seconds: float) -> int:
        """Passes of a run: enough to fill ``seconds`` at the defining
        commit, and at least two, so that each job has a fastest of two.
        The count does not depend on the speed of the program measured."""
        return max(2, math.ceil(seconds / self.pass_s))

    def pool(self) -> list:
        """Plans of every variant of every slot, in job order."""
        return [slot.build(v) for slot in self.slots
                for v in range(slot.variants)]


def _measure(key, fn, orders, *extra):
    return Job(key, ("measure", "--in", fn, "--orders", orders, *extra,
                     "--threads", "1"), measured=(fn,))


# -- table-cells -------------------------------------------------------

def _table_cell(ex, p):
    def build(_v):
        t = example_triple(ex, p)
        builders = {"f": lambda: construct_single(t.f),
                    "g": lambda: construct_single(t.g),
                    "h": lambda: construct_single(t.h),
                    "fgh": lambda: construct_triple(t)}
        plan = Plan()
        for name, make in builders.items():
            fn = f"ex{ex}_p{p}_{name}.txt"
            plan.files[fn] = make
            plan.jobs.append(
                _measure(f"table-cells/ex{ex}/p{p}/{name}", fn, "2"))
        return plan
    return Slot(f"table-cells/ex{ex}/p{p}", build, variants=1)


# -- check-triples -----------------------------------------------------

def _check_jobs(key, argv, modes):
    """check jobs on one triple; mode "symmetric" adds --symmetric."""
    return [Job(f"{key}/{mode}", ("check", *argv) + (
        ("--symmetric",) if mode == "symmetric" else ())) for mode in modes]


def _check_example(ex, p, mode):
    spec = EXAMPLES[ex]

    def build(_v):
        return Plan(_check_jobs(f"check-triples/ex{ex}/p{p}", (
            "--p", str(p), "--f", spec.f, "--g", spec.g, "--h", spec.h),
            (mode,)))
    return Slot(f"check-triples/ex{ex}/p{p}/{mode}", build, variants=1)


def _check_theorem2(p, passing):
    """Degree-6/6/8 even triple from QNR sets of sizes 3, 3, 4.  Passing
    variants draw ten distinct non-residues; failing ones put A inside
    B ∪ C, so the theorem-2 set check and the f-divisibility check fail."""
    name = f"check-triples/theorem2-{'pass' if passing else 'fail'}/p{p}"

    def build(v):
        rng = random.Random(f"{name}/{v}")
        qnrs = [n for n in range(2, p) if legendre(n, p) == -1]
        if passing:
            picked = rng.sample(qnrs, 10)
            sets = picked[:3], picked[3:6], picked[6:]
        else:
            picked = rng.sample(qnrs, 7)
            B, C = picked[:3], picked[3:]
            sets = B[:2] + C[:1], B, C
        spec = [f"{n}={','.join(map(str, sorted(s)))}"
                for n, s in zip("ABC", sets)]
        argv = ("--p", str(p), "--theorem2", *spec)
        return Plan(_check_jobs(f"{name}/v{v}", argv, ("check", "symmetric")))
    return Slot(name, build)


# -- small-families ----------------------------------------------------

def _family(n):
    """Three pairwise distinct random length-n sequences (criterion 7's
    families), measured by crosscorr --theorem3 at order 2: Phi_2..Phi_4
    of the family plus C_2 of the combined sequence."""
    name = f"small-families/family/n{n}"

    def build(v):
        rng = random.Random(f"{name}/{v}")
        members = set()
        while len(members) < 3:
            members.add(tuple(rng.choice((-1, 1)) for _ in range(n)))
        plan = Plan()
        names = []
        for i, vals in enumerate(sorted(members)):
            fn = f"fam{n}_v{v}_{i}.txt"
            plan.files[fn] = lambda vals=vals: BinarySequence(vals)
            names.append(fn)
        plan.jobs.append(Job(f"{name}/v{v}", (
            "crosscorr", *names, "--order", "2", "--theorem3"),
            measured=tuple(names)))
        return plan
    return Slot(name, build)


def _random_poly(rng, p, degree):
    """Monic squarefree polynomial of the given degree, as CLI text."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree)] + [1]
        if coeffs[0] and Poly.make(coeffs, p).is_squarefree():
            break
    terms = [f"x^{degree}"] + [
        f"+{c}x^{i}" if i > 1 else f"+{c}x" if i == 1 else f"+{c}"
        for i, c in reversed(list(enumerate(coeffs[:-1]))) if c]
    return "".join(terms)


def _legendre_seq(p, orders, sampled=False):
    """Single-polynomial Legendre sequence of a random cubic at p,
    measured exactly at the given orders, and optionally by the sampled
    estimator at orders 3 and 4."""
    name = f"small-families/legendre/p{p}/orders{orders}"

    def build(v):
        rng = random.Random(f"{name}/{v}")
        f = parse_poly(_random_poly(rng, p, 3), p)
        fn = f"leg{p}_o{orders}_v{v}.txt"
        plan = Plan(files={fn: lambda: construct_single(f)})
        plan.jobs.append(_measure(f"{name}/v{v}", fn, orders))
        if sampled:
            plan.jobs.append(_measure(
                f"{name}/v{v}/sampled", fn, "3,4", "--method", "sampled",
                "--samples", "200", "--seed", str(rng.randrange(2**32))))
        return plan
    return Slot(name, build)


# -- large-p -----------------------------------------------------------

LARGE_P = next(filter(is_prime, count(10**6)))


def _large_p(v):
    """gen of three single-polynomial sequences (degrees 2, 3, 4) at the
    first prime above 10^6, combine, then crosscorr by sampling at orders
    2 to 4.  Jobs run in this order: later ones read earlier outputs.
    The slot has one variant: the cost of a sampled crosscorr depends on
    its sampling seed."""
    p = LARGE_P
    rng = random.Random(f"large-p/{v}")
    names = [f"lp_v{v}_{m}.txt" for m in "FGH"]
    plan = Plan()
    for member, fn, degree in zip("FGH", names, (2, 3, 4)):
        plan.jobs.append(Job(f"large-p/v{v}/gen-{member}", (
            "gen", "--p", str(p), "--f", _random_poly(rng, p, degree),
            "--out", fn), writes=(fn,)))
    combined = f"lp_v{v}_combined.txt"
    plan.jobs.append(Job(f"large-p/v{v}/combine",
                         ("combine", *names, "--out", combined),
                         writes=(combined,)))
    for order in (2, 3, 4):
        plan.jobs.append(Job(f"large-p/v{v}/crosscorr{order}", (
            "crosscorr", *names, "--order", str(order), "--method",
            "sampled", "--samples", "30", "--seed",
            str(rng.randrange(2**32))), measured=tuple(names)))
    return plan


WORKLOADS = {w.name: w for w in (
    # The paper's experiment and the ROADMAP headline: exact W and C_2 of
    # all 80 published-table sequences.  Long arrays and few tuples; about
    # 85% of the time is W.  Inputs are fixed; the seed orders the jobs.
    Workload("table-cells", tuple(
        _table_cell(ex, p) for ex in sorted(EXAMPLES) for p in PRIMES),
        pass_s=13.5),
    # The O(p) pure-Python shift-gcd path in conditions and ff, with no
    # measures code.  check at 2003 and check --symmetric at 3001 on the
    # examples give passing triples and failing ones that stop stripping
    # early; the theorem-2 slots add seeded passing and failing
    # degree-6/6/8 triples under both checks.
    Workload("check-triples", tuple(
        _check_example(ex, p, mode) for ex in sorted(EXAMPLES)
        for p, mode in zip(PRIMES, ("check", "symmetric")))
        + (_check_theorem2(PRIMES[0], True),
           _check_theorem2(PRIMES[1], False)), pass_s=5.0),
    # The measures code of table-cells, but many tuples on tiny arrays:
    # Phi_2..4 of 3-member families of length 8 to 24 and C_3/C_4 of short
    # Legendre sequences.  A batching change trades C_3 here against C_2
    # on table-cells, so both sides of that trade show.
    Workload("small-families", tuple(_family(n) for n in (8, 12, 16, 20, 24))
             + (_legendre_seq(101, "4"), _legendre_seq(251, "3"),
                _legendre_seq(499, "3", sampled=True)), pass_s=3.8),
    # Construction, file I/O and memory at p near 10^6, which are under 1%
    # of every other workload.  measure always runs exact O(N^2) W, so the
    # only measures here are the sampled Phi estimators.
    Workload("large-p", (Slot("large-p", _large_p, variants=1),),
             pass_s=2.8, shuffle=False),
)}
