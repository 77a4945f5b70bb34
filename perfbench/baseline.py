"""Reproduce the ROADMAP "Baseline to beat" table from traced calls.

    python3 perfbench/baseline.py

Each entry calls one legseq function on a fixed input REPEATS times
with the benchmark's tracer installed and reports the median and the
quartile spread of its spans.  An entry "moved" when its median lies
outside the ROADMAP figure widened by that spread on both sides.  W and
C_2 at p = 6007 are also timed with threads=2, capped at nproc.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from statistics import median, quantiles

import checkout

checkout.use_checkout_legseq()

import numpy  # noqa: E402

from legseq import conditions, constructions, measures  # noqa: E402
from legseq.constructions import BinarySequence  # noqa: E402
from legseq.tables import example_triple  # noqa: E402
from tracing import Tracer  # noqa: E402

REPEATS = 5
OUT = Path(__file__).with_name("BASELINE.md")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _family(n, members=3):
    rng = numpy.random.default_rng(12)
    return [BinarySequence(tuple(int(v) for v in rng.choice((-1, 1), n)))
            for _ in range(members)]


def entries(threads):
    """(layer, input, ROADMAP ms range or None, span name, call)."""
    ex1 = {p: example_triple(1, p) for p in (499, 2003, 6007)}
    seq = {p: constructions.construct_single(t.f) for p, t in ex1.items()}
    fam = _family(12)
    out = [
        ("W", "p = 2003", (36, 36), "measures.well_distribution",
         lambda: measures.well_distribution(seq[2003])),
        ("W", "p = 6007", (250, 270), "measures.well_distribution",
         lambda: measures.well_distribution(seq[6007])),
        ("C_2", "p = 6007", (37, 37), "measures.correlation",
         lambda: measures.correlation(seq[6007], 2)),
        ("C_3", "p = 499", (570, 615), "measures.correlation",
         lambda: measures.correlation(seq[499], 3)),
        ("Φ_4", "N = 12, 3 members", (125, 125), "measures.cross_correlation",
         lambda: measures.cross_correlation(fam, 4)),
        ("Divisibility check", "p = 2003", (310, 310),
         "conditions.check_divisibility_condition",
         lambda: conditions.check_divisibility_condition(ex1[2003])),
        ("Divisibility check", "p = 6007", (950, 950),
         "conditions.check_divisibility_condition",
         lambda: conditions.check_divisibility_condition(ex1[6007])),
        ("Construction (single)", "p = 6007", (0, 6),
         "constructions.construct_single",
         lambda: constructions.construct_single(ex1[6007].f)),
        ("Construction (triple)", "p = 6007", (0, 6),
         "constructions.construct_triple",
         lambda: constructions.construct_triple(ex1[6007])),
    ]
    if threads > 1:
        out += [
            ("W", f"p = 6007, threads={threads}", None,
             "measures.well_distribution",
             lambda: measures.well_distribution(seq[6007], threads=threads)),
            ("C_2", f"p = 6007, threads={threads}", (56, 56),
             "measures.correlation",
             lambda: measures.correlation(seq[6007], 2, threads=threads)),
        ]
    return out


def _fmt(lo_hi):
    if lo_hi is None:
        return "—"
    lo, hi = lo_hi
    if lo == hi:
        return f"{lo} ms"
    return f"≤ {hi} ms" if lo == 0 else f"{lo}–{hi} ms"


def main():
    nproc = os.cpu_count() or 1
    threads = min(2, nproc)
    rows = []
    for layer, label, ref, span, call in entries(threads):
        with Tracer() as tracer:
            for _ in range(REPEATS):
                call()
        times = [(end - start) * 1000 for name, start, end, parent
                 in tracer.spans if name == span and parent == -1]
        med = median(times)
        q = quantiles(times, n=4)
        spread = q[2] - q[0]
        moved = "—" if ref is None else (
            "no" if ref[0] - spread <= med <= ref[1] + spread
            else ("slower" if med > ref[1] else "faster"))
        rows.append(f"| {layer} | {label} | {_fmt(ref)} | {med:.1f} ms | "
                    f"{spread:.1f} ms | {moved} |")
        print(rows[-1], file=sys.stderr)
    text = "\n".join([
        "# Baseline to beat, reproduced",
        "",
        "Written by `python3 perfbench/baseline.py`: medians of "
        f"{REPEATS} traced calls per "
        "entry; spread is the distance between the first and third "
        "quartile.  \"Moved\" compares the median with the ROADMAP figure "
        "widened by the spread.  The ROADMAP figures are single runs on "
        "another 2-core machine; W and C_2 use the example-1 f sequence, "
        "the checks and constructions the example-1 triple, Φ_4 a seeded "
        "random family.  No code under src/ changed since those figures, "
        "so an entry that moved reflects the machine and the load on its "
        "host, not the program.",
        "",
        f"Machine: nproc {nproc}, CPU {_cpu_model()}, "
        f"Python {platform.python_version()}, numpy {numpy.__version__}.",
        "",
        "| Layer | Input | ROADMAP | Median | Spread | Moved |",
        "|---|---|---|---|---|---|",
        *rows,
        "",
    ])
    OUT.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
