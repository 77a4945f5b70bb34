"""Embedded reference tables and their regeneration.

Four published example tables give, for each prime in PRIMES, the
well-distribution measure and order-2 correlation measure of the three
single-polynomial sequences and of the filtered triple sequence.  The
expected integers are embedded verbatim as the comparison target; any
regeneration mismatch is reported cell by cell (measures are exact
integers, so there is no tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import PolyTriple, construct_single, construct_triple
from .ff import parse_poly
from .measures import correlation, well_distribution

PRIMES = (2003, 3001, 4001, 5003, 6007)

COLUMNS = ("W_f", "W_g", "W_h", "W_fgh", "C2_f", "C2_g", "C2_h", "C2_fgh")


@dataclass(frozen=True)
class TableSpec:
    example: int
    f: str
    g: str
    h: str
    expected: dict  # prime -> 8-tuple in COLUMNS order


EXAMPLES = {
    1: TableSpec(
        1, "x^2+1", "x^2+3x+1", "x^3-1",
        {
            2003: (50, 55, 53, 59, 177, 182, 136, 122),
            3001: (51, 108, 129, 60, 174, 194, 138, 183),
            4001: (139, 151, 102, 151, 247, 273, 200, 192),
            5003: (67, 86, 90, 92, 348, 264, 190, 269),
            6007: (106, 84, 97, 116, 292, 348, 274, 237),
        },
    ),
    2: TableSpec(
        2, "x^2+x+1", "x^3-x+1", "x^4+x-1",
        {
            2003: (48, 66, 72, 56, 169, 136, 139, 117),
            3001: (75, 133, 51, 184, 203, 147, 152, 172),
            4001: (187, 45, 192, 110, 266, 189, 206, 159),
            5003: (72, 101, 81, 79, 274, 209, 220, 195),
            6007: (147, 124, 131, 104, 294, 211, 204, 226),
        },
    ),
    3: TableSpec(
        3, "x^4-1", "x^6-4x^3+3", "x^3-6x^2+15x-14",
        {
            2003: (51, 47, 53, 54, 178, 121, 164, 105),
            3001: (186, 80, 132, 146, 254, 181, 171, 190),
            4001: (212, 98, 54, 170, 217, 210, 171, 200),
            5003: (62, 69, 84, 70, 281, 165, 183, 244),
            6007: (88, 149, 130, 74, 293, 192, 173, 231),
        },
    ),
    4: TableSpec(
        4, "x^2-1", "x^3+x^2+1", "x^4+x^3+1",
        {
            2003: (35, 64, 55, 62, 201, 126, 125, 132),
            3001: (120, 62, 78, 94, 206, 178, 157, 166),
            4001: (198, 185, 118, 109, 236, 187, 225, 213),
            5003: (74, 77, 79, 83, 276, 223, 233, 202),
            6007: (126, 83, 142, 115, 348, 226, 242, 268),
        },
    ),
}


def example_triple(example: int, p: int) -> PolyTriple:
    spec = EXAMPLES[example]
    return PolyTriple(
        parse_poly(spec.f, p), parse_poly(spec.g, p), parse_poly(spec.h, p)
    )


def compute_row(example: int, p: int) -> tuple:
    """Regenerate one table row: the 8 measures in COLUMNS order."""
    t = example_triple(example, p)
    seqs = [*map(construct_single, (t.f, t.g, t.h)), construct_triple(t)]
    ws = [well_distribution(s).value for s in seqs]
    cs = [correlation(s, 2).value for s in seqs]
    return tuple(ws + cs)


def diff_row(example: int, p: int):
    """Computed row, expected row, and the list of mismatched cells
    as (column, expected, computed)."""
    computed = compute_row(example, p)
    expected = EXAMPLES[example].expected[p]
    mismatches = [
        (col, exp, got)
        for col, exp, got in zip(COLUMNS, expected, computed)
        if exp != got
    ]
    return computed, expected, mismatches
