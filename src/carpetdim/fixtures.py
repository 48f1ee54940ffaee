"""Canonical small systems used by the tests, the docs, and the CLI.

Each builder returns a fresh system chosen to pin one behavior of the
machinery: parity-oscillating lift counts, a bipartite fiber block with
irrational growth, Fibonacci lift counts, and linearly growing
extendable-prefix counts.  The edge lists are frozen against the exact
counts stated in each builder's docstring; tests assert those counts,
so any edit to an arrow here fails loudly.
"""

from __future__ import annotations

import os

from .sft import CarpetSpec, FactorSystem, Sft
from .specfile import system_doc, write_document

__all__ = [
    "parity_oscillation",
    "bipartite_fiber",
    "fibonacci_fiber",
    "linear_lift_growth",
    "column_carpet_21",
    "full_torus",
    "FIXTURE_BUILDERS",
    "write_fixture_files",
]


def parity_oscillation() -> FactorSystem:
    """Five-symbol system whose lift counts oscillate with word parity.

    The image alphabet is {1, 2} with 11 forbidden.  The word 1 2^n 1
    has exactly one lift for odd n and 2^(n/2 - 1) + 1 lifts for even n:
    the loop at symbol 2 realizes every n in one way, while the 3-5 and
    3-4-3 excursions only close up at even lengths.  That parity swing
    is what breaks almost additivity downstream, and it pins every arrow
    below: adding 3->1 or 4->1, or dropping 3->4, changes the counts for
    n <= 4 already.
    """
    sft = Sft.from_edges(
        ("1", "2", "3", "4", "5"),
        [
            ("1", "2"),
            ("1", "3"),
            ("2", "1"),
            ("2", "2"),
            ("3", "4"),
            ("3", "5"),
            ("4", "3"),
            ("5", "1"),
            ("5", "3"),
        ],
    )
    return FactorSystem(
        sft, {"1": "1", "2": "2", "3": "2", "4": "2", "5": "2"}
    )


def bipartite_fiber() -> FactorSystem:
    """Four-symbol system whose big fiber is a bipartite path graph.

    The fiber over image letter 2 is the path 2 - 3 - 4, whose transition
    block is imprimitive with spectral radius sqrt(2); lift counts of
    2^n therefore grow like 2^(n/2) with a period-two wobble.  The image
    is the full shift on {1, 2}.  Exercises the diagonal-shift branch of
    the eigenvalue routine and even/odd count splits.
    """
    sft = Sft.from_edges(
        ("1", "2", "3", "4"),
        [
            ("1", "1"),
            ("1", "2"),
            ("2", "1"),
            ("2", "3"),
            ("3", "1"),
            ("3", "2"),
            ("3", "4"),
            ("4", "1"),
            ("4", "3"),
        ],
    )
    return FactorSystem(sft, {"1": "1", "2": "2", "3": "2", "4": "2"})


def fibonacci_fiber() -> FactorSystem:
    """Four-symbol system with golden-ratio lift growth and no clump.

    Both fibers have two symbols, so no image letter pins its lift.  The
    fiber block over letter 2 is [[0, 1], [1, 1]]: lift counts of 2^n
    are the Fibonacci numbers 2, 3, 5, 8, ... and their growth rate is
    the golden ratio.  Concatenation ratios stay bounded away from zero,
    making this the consistent-with-almost-additive fixture.
    """
    sft = Sft.from_edges(
        ("1", "2", "3", "4"),
        [
            ("1", "1"),
            ("1", "2"),
            ("1", "3"),
            ("1", "4"),
            ("2", "1"),
            ("2", "2"),
            ("3", "1"),
            ("3", "4"),
            ("4", "2"),
            ("4", "3"),
            ("4", "4"),
        ],
    )
    return FactorSystem(sft, {"1": "1", "2": "1", "3": "2", "4": "2"})


def linear_lift_growth() -> FactorSystem:
    """Three-symbol system where extendable prefixes grow linearly.

    Lifts of the point 1 2 2 2 ... are exactly the words 1 2^a 3^b with
    a >= 1 (symbol 3 never returns to 2), so the number of length-n
    extendable prefixes is n - 1: polynomial, not exponential.  This is
    the fixture on which cylinder masses cannot be uniformly comparable
    to any single exponential profile.
    """
    sft = Sft.from_edges(
        ("1", "2", "3"),
        [
            ("1", "2"),
            ("2", "1"),
            ("2", "2"),
            ("2", "3"),
            ("3", "1"),
            ("3", "3"),
        ],
    )
    return FactorSystem(sft, {"1": "1", "2": "2", "3": "2"})


def column_carpet_21() -> CarpetSpec:
    """Full-shift carpet on a 3x2 grid with row occupancies (2, 1).

    Three digits: two at vertical level 0, one at level 1.  The closed
    form gives dimension log_2(2^theta + 1) with theta = log 2 / log 3,
    about 1.3497.  The standard first example for the dimension
    formula.
    """
    return CarpetSpec(3, 2, ((0, 0), (1, 0), (0, 1)))


def full_torus(l: int = 3, m: int = 2) -> CarpetSpec:
    """Every digit of the l x m grid selected; the carpet is the torus."""
    return CarpetSpec(
        l, m, tuple((a, b) for b in range(m) for a in range(l))
    )


FIXTURE_BUILDERS = {
    "parity_oscillation": parity_oscillation,
    "bipartite_fiber": bipartite_fiber,
    "fibonacci_fiber": fibonacci_fiber,
    "linear_lift_growth": linear_lift_growth,
}

_FIXTURE_COMMENTS = {
    "parity_oscillation": (
        "Lift counts of 1 2^n 1 are 1 for odd n and 2^(n/2-1)+1 for even n; "
        "these counts pin the edge list (the 3-5 two-cycle and the 3-4-3 "
        "detour close only at even lengths). 11 is forbidden in the image."
    ),
    "bipartite_fiber": (
        "Fiber over 2 is the path graph 2-3-4: bipartite block, spectral "
        "radius sqrt(2), so counts of 2^n alternate between 2^(n/2) scales. "
        "Image is the full 2-shift."
    ),
    "fibonacci_fiber": (
        "Fiber block over 2 is [[0,1],[1,1]]; counts of 2^n are Fibonacci "
        "(2, 3, 5, 8, ...), growth rate the golden ratio. Both fibers have "
        "size 2, so there is no singleton clump."
    ),
    "linear_lift_growth": (
        "Lifts of 1 2^inf are the words 1 2^a 3^b, so extendable-prefix "
        "counts grow linearly (n-1 at depth n) instead of exponentially."
    ),
}

_CARPET_BUILDERS = {
    "column_carpet_21": column_carpet_21,
    "full_torus_32": full_torus,
}

_CARPET_COMMENTS = {
    "column_carpet_21": (
        "Full-shift 3x2 carpet with row occupancies (2,1); closed-form "
        "dimension log_2(2^theta + 1), theta = log 2 / log 3."
    ),
    "full_torus_32": "All six digits of the 3x2 grid; the carpet is the whole torus.",
}


def write_fixture_files(out_dir) -> list[str]:
    """Write every fixture as a spec document; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for builders, comments in (
        (FIXTURE_BUILDERS, _FIXTURE_COMMENTS),
        (_CARPET_BUILDERS, _CARPET_COMMENTS),
    ):
        for name, builder in sorted(builders.items()):
            path = os.path.join(out_dir, f"{name}.json")
            write_document(system_doc(builder(), name=name, comment=comments[name]), path)
            written.append(path)
    return written
