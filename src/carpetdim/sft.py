"""Shifts of finite type, one-block factor maps, carpet digit systems.

An ``Sft`` is a vertex shift: symbols are vertices of a finite digraph
and a word of length n is a path visiting n vertices (n-1 transition
constraints).  A ``FactorSystem`` pairs an Sft with a one-block letter
map onto an image alphabet.  The image subshift is sofic and is never
presented on its own; every image-side quantity in this package is
derived from the pair (transition matrix, letter map) through the fiber
tables built here.

All types are immutable after construction and safe to share across
threads.  Each is a ``NamedTuple`` record, so it compares equal to a
plain tuple of its fields (``FactorSystem`` to one of its source and
letter map).  The four validated input types subclass theirs to check
their fields in ``__new__`` and to hold cached tables.
"""

from __future__ import annotations

import math
from functools import cached_property
from math import gcd
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import PreconditionError, SpecError

__all__ = [
    "Sft",
    "StructureReport",
    "FactorSystem",
    "CarpetSpec",
    "EventuallyPeriodicPoint",
    "validate_sft",
    "singleton_clumps",
    "carpet_to_factor",
]


def _immutable(self, name, *value):
    # __setattr__ and __delattr__ of the validated types, whose instances
    # need a __dict__ for their cached tables
    raise AttributeError(f"{type(self).__name__} is immutable")


def _checked_make(cls, fields):
    # NamedTuple's _make, which _replace calls, through the checks of __new__
    return cls(*fields)


class Sft(NamedTuple("Sft", [("symbols", tuple), ("matrix", tuple)])):
    """A vertex shift given by named symbols and a 0/1 transition matrix.

    ``matrix[i][j] == 1`` means symbol ``symbols[j]`` may follow symbol
    ``symbols[i]``.  Construction rejects stranded symbols: every symbol
    must have at least one outgoing and one incoming transition, so that
    every finite word extends to a point of the shift.

    Examples
    --------
    >>> golden = Sft(("a", "b"), ((1, 1), (1, 0)))
    >>> golden.alphabet_size
    2
    >>> golden.word_count(3)
    5
    """

    __setattr__ = __delattr__ = _immutable
    _make = classmethod(_checked_make)

    def __new__(cls, symbols: tuple[str, ...], matrix: tuple[tuple[int, ...], ...]):
        if not symbols:
            raise SpecError("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise SpecError("symbol names must be distinct")
        k = len(symbols)
        if len(matrix) != k or any(len(row) != k for row in matrix):
            raise SpecError("transition matrix must be square over the alphabet")
        for row in matrix:
            for entry in row:
                if entry not in (0, 1):
                    raise SpecError("transition entries must be 0 or 1")
        for name, row, column in zip(symbols, matrix, zip(*matrix)):
            if not any(row):
                raise SpecError(f"symbol {name!r} has no outgoing transition")
            if not any(column):
                raise SpecError(f"symbol {name!r} has no incoming transition")
        return super().__new__(cls, symbols, matrix)

    @classmethod
    def from_edges(cls, symbols: Sequence[str], edges: Sequence[tuple[str, str]]) -> "Sft":
        """Build from an explicit edge list of (source, target) name pairs."""
        symbols = tuple(symbols)
        index = {s: i for i, s in enumerate(symbols)}
        rows = [[0] * len(symbols) for _ in symbols]
        for src, dst in edges:
            if src not in index or dst not in index:
                raise SpecError(f"edge ({src!r}, {dst!r}) mentions an unknown symbol")
            rows[index[src]][index[dst]] = 1
        return cls(symbols, tuple(tuple(row) for row in rows))

    @property
    def alphabet_size(self) -> int:
        return len(self.symbols)

    @cached_property
    def index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    @cached_property
    def successor_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(j for j, e in enumerate(row) if e) for row in self.matrix
        )

    @cached_property
    def structure(self) -> "StructureReport":
        """The shift's ``StructureReport``, derived once (``validate_sft``)."""
        return _structure(self)

    def word_count(self, n: int) -> int:
        """Exact number of length-n words, via integer matrix powers."""
        if n < 1:
            raise PreconditionError("word length must be >= 1")
        k = self.alphabet_size
        vec = [1] * k
        # vec[i] = number of words of the current length ending at i
        for _ in range(n - 1):
            vec = [
                sum(vec[i] for i in range(k) if self.matrix[i][j])
                for j in range(k)
            ]
        return sum(vec)


class StructureReport(NamedTuple):
    """Connectivity facts about an Sft needed by the pressure bounds.

    ``mixing_index`` is the least M with every entry of A^M positive; it
    is present exactly when the shift is topologically mixing and obeys
    the Wielandt bound M <= (k - 1)^2 + 1.
    """

    irreducible: bool
    mixing: bool
    mixing_index: Optional[int]
    period: int


def validate_sft(sft: Sft) -> StructureReport:
    """Report irreducibility, period, mixing, and the minimal mixing power,
    derived once per shift and kept on it (``Sft.structure``).

    Examples
    --------
    >>> validate_sft(Sft(("a", "b"), ((1, 1), (1, 1))))
    StructureReport(irreducible=True, mixing=True, mixing_index=1, period=1)
    >>> validate_sft(Sft(("a", "b"), ((1, 1), (1, 0)))).mixing_index
    2
    >>> r = validate_sft(Sft(("a", "b"), ((0, 1), (1, 0))))
    >>> (r.irreducible, r.mixing, r.period)
    (True, False, 2)
    """
    return sft.structure


def _structure(sft: Sft) -> StructureReport:
    # One pass over the boolean powers A^m (row i of A^m as a bitmask).
    # Every simple cycle has length <= k, so the m <= k with a nonzero
    # diagonal in A^m give the period as their gcd, and the union of
    # A^1..A^k is the reachability relation.  A mixing source goes on
    # to its first all-positive power, which the Wielandt bound places
    # at m <= (k - 1)^2 + 1.
    k = sft.alphabet_size
    full = (1 << k) - 1
    base = [sum(1 << j for j, e in enumerate(row) if e) for row in sft.matrix]
    power = list(base)
    reach = [0] * k
    period = 0
    for m in range(1, (k - 1) ** 2 + 2):
        if all(row == full for row in power):
            return StructureReport(True, True, m, 1)
        if m <= k:
            reach = [r | row for r, row in zip(reach, power)]
            if any(row >> i & 1 for i, row in enumerate(power)):
                period = gcd(period, m)
        if m == k:
            irreducible = all(r == full for r in reach)
            if not irreducible or period != 1:
                return StructureReport(irreducible, False, None, period)
        power = [_or_rows(row, power) for row in base]  # A^(m+1) = A A^m
    # unreachable for a mixing matrix by the Wielandt bound
    raise SpecError("mixing power not found within the Wielandt bound")


def _or_rows(mask: int, rows: list[int]) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= rows[i]
        mask >>= 1
        i += 1
    return out


class FactorSystem(NamedTuple("FactorSystem", [("source", Sft), ("letter_map", Mapping)])):
    """An Sft together with a one-block letter map onto an image alphabet.

    ``letter_map`` sends every source symbol to an image letter; the
    image alphabet is exactly the range of the map, so no fiber is ever
    empty.  Block (a, b) is the 0/1 submatrix of the transition matrix
    with rows in the fiber of ``a`` and columns in the fiber of ``b``.
    Lift counting reads the nonzero blocks through two tables built
    from the transitions, never a dense block: ``fiber_supports`` gives
    each block's column supports, which step a count vector, and
    ``fiber_row_sums`` its row sums, which give a stepped vector's sum.

    Equality and hash read the letter map in source-symbol order
    (``_map_items``), so the order of ``letter_map`` does not matter.
    """

    __setattr__ = __delattr__ = _immutable
    _make = classmethod(_checked_make)

    def __new__(cls, source: Sft, letter_map: Mapping[str, str]):
        missing = [s for s in source.symbols if s not in letter_map]
        if missing:
            raise SpecError(f"letter map undefined on symbols {missing}")
        extra = [s for s in letter_map if s not in source.index]
        if extra:
            raise SpecError(f"letter map mentions unknown symbols {extra}")
        self = super().__new__(cls, source, letter_map)
        self.__dict__["_map_items"] = tuple((s, letter_map[s]) for s in source.symbols)
        return self

    def __eq__(self, other):
        if not isinstance(other, FactorSystem):
            return NotImplemented
        return self.source == other.source and self._map_items == other._map_items

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's

    def __hash__(self):
        return hash((self.source, self._map_items))

    @cached_property
    def image_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.letter_map.values())))

    @cached_property
    def image_index(self) -> dict[str, int]:
        return {b: i for i, b in enumerate(self.image_alphabet)}

    @cached_property
    def fibers(self) -> tuple[tuple[int, ...], ...]:
        """For each image letter index, the source-symbol indices above it."""
        groups: list[list[int]] = [[] for _ in self.image_alphabet]
        for x, name in enumerate(self.source.symbols):
            groups[self.image_index[self.letter_map[name]]].append(x)
        return tuple(tuple(g) for g in groups)

    @cached_property
    def fiber_supports(self) -> tuple[dict[int, tuple[tuple[int, ...], ...]], ...]:
        """Per letter a, the letters b with a nonzero block (a, b), in
        letter order, each with the block's column supports: ``cols[j]``
        lists the rows i with a 1 in column j, so a count vector v over
        the fiber of a steps to ``sum(v[i] for i in cols[j])`` over the
        columns j.  Built with ``fiber_row_sums`` in one pass over the
        transitions out of each fiber."""
        return self._fiber_tables[0]

    @cached_property
    def fiber_row_sums(self) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Per letter a, (b, r) for each letter b of ``fiber_supports[a]``,
        r being the row sums of block (a, b): a count vector v over the
        fiber of a steps to a vector over the fiber of b that sums to
        ``sum(v[i] * r[i])``."""
        return self._fiber_tables[1]

    @cached_property
    def _fiber_tables(self) -> tuple[tuple, tuple]:
        # block (a, b) is the transition matrix with rows in the fiber of
        # a and columns in the fiber of b; a transition x -> y adds row
        # x's position to y's column and one to x's row sum
        fibers, succ = self.fibers, self.source.successor_sets
        where = [(0, 0)] * self.source.alphabet_size  # symbol -> (letter, position in its fiber)
        for b, fiber in enumerate(fibers):
            for j, y in enumerate(fiber):
                where[y] = (b, j)
        supports, row_sums = [], []
        for rows in fibers:
            cols_of: dict[int, list] = {}
            sums_of: dict[int, list] = {}
            for i, x in enumerate(rows):
                for y in succ[x]:
                    b, j = where[y]
                    if b not in cols_of:
                        cols_of[b] = [[] for _ in fibers[b]]
                        sums_of[b] = [0] * len(rows)
                    cols_of[b][j].append(i)
                    sums_of[b][i] += 1
            order = sorted(cols_of)
            supports.append({b: tuple(map(tuple, cols_of[b])) for b in order})
            row_sums.append(tuple((b, tuple(sums_of[b])) for b in order))
        return tuple(supports), tuple(row_sums)

    @cached_property
    def transposed(self) -> "FactorSystem":
        """The system on the transposed source under the same letter map,
        built once with its fiber tables.  Its words are this system's
        read right to left, so a state of its sweep holds the direction
        of a word's starting count vector."""
        return FactorSystem(Sft(self.source.symbols, tuple(zip(*self.source.matrix))), self.letter_map)

    def fiber_symbols(self, letter: str) -> tuple[str, ...]:
        """Source symbol names above one image letter."""
        if letter not in self.image_index:
            raise SpecError(f"unknown image letter {letter!r}")
        return tuple(
            self.source.symbols[x] for x in self.fibers[self.image_index[letter]]
        )


def singleton_clumps(fs: FactorSystem) -> list[str]:
    """Image letters whose fiber is a single source symbol, sorted.

    Such a letter pins its lift symbol exactly, which is what makes the
    measure of full dimension unique downstream.
    """
    return sorted(
        b
        for b, fiber in zip(fs.image_alphabet, fs.fibers)
        if len(fiber) == 1
    )


class CarpetSpec(
    NamedTuple("CarpetSpec", [("l", int), ("m", int), ("digits", tuple), ("transitions", object)])
):
    """A self-affine carpet on the torus coded by a digit SFT.

    The torus map expands by ``l`` horizontally and ``m`` vertically with
    ``l > m >= 2``.  ``digits`` lists the selected cells (a, b) of the
    l-by-m digit grid; ``transitions`` is either the string ``"full"``
    (every digit may follow every digit) or a tuple of (i, j) index pairs
    into ``digits``.
    """

    __setattr__ = __delattr__ = _immutable
    _make = classmethod(_checked_make)

    def __new__(cls, l: int, m: int, digits: tuple[tuple[int, int], ...], transitions: object = "full"):
        if not (l > m >= 2):
            raise SpecError("carpet requires l > m >= 2")
        if not digits:
            raise SpecError("carpet requires at least one digit")
        seen = set()
        for a, b in digits:
            if not (0 <= a < l and 0 <= b < m):
                raise SpecError(f"digit ({a}, {b}) outside the {l}x{m} grid")
            if (a, b) in seen:
                raise SpecError(f"duplicate digit ({a}, {b})")
            seen.add((a, b))
        if transitions != "full":
            n = len(digits)
            for i, j in transitions:
                if not (0 <= i < n and 0 <= j < n):
                    raise SpecError(f"transition ({i}, {j}) outside the digit list")
        return super().__new__(cls, l, m, digits, transitions)

    def alpha(self) -> float:
        """log l / log m - 1, strictly positive because l > m."""
        return math.log(self.l) / math.log(self.m) - 1.0

    def theta(self) -> float:
        """The partition-sum exponent 1 / (alpha + 1) = log m / log l."""
        return math.log(self.m) / math.log(self.l)

    def is_full_shift(self) -> bool:
        return self.transitions == "full"

    def digit_symbol(self, pair: tuple[int, int]) -> str:
        a, b = pair
        return f"{a}.{b}"


def carpet_to_factor(spec: CarpetSpec) -> tuple[FactorSystem, float]:
    """Turn a carpet into its digit SFT factored onto row letters.

    The source shift lives on the digit pairs; the letter map projects a
    digit (a, b) to the row letter ``str(b)``.  Returns the factor system
    and alpha = log l / log m - 1.

    Examples
    --------
    >>> spec = CarpetSpec(3, 2, ((0, 0), (2, 0), (1, 1)))
    >>> fs, alpha = carpet_to_factor(spec)
    >>> fs.image_alphabet
    ('0', '1')
    >>> fs.fiber_symbols("0")
    ('0.0', '2.0')
    >>> round(alpha, 6)
    0.584963
    """
    names = tuple(spec.digit_symbol(p) for p in spec.digits)
    n = len(names)
    if spec.is_full_shift():
        matrix = ((1,) * n,) * n
    else:
        rows = [[0] * n for _ in range(n)]
        for i, j in spec.transitions:
            rows[i][j] = 1
        matrix = tuple(tuple(row) for row in rows)
    sft = Sft(names, matrix)
    letter_map = {
        name: str(b) for name, (_, b) in zip(names, spec.digits)
    }
    return FactorSystem(sft, letter_map), spec.alpha()


class EventuallyPeriodicPoint(
    NamedTuple("EventuallyPeriodicPoint", [("preperiod", tuple), ("cycle", tuple)])
):
    """An image point given by a finite preperiod and a repeating cycle.

    Membership in the image subshift is decided by the counting engine
    (nonempty viable lift states), not presumed here; this type only
    carries the combinatorial description.
    """

    __setattr__ = __delattr__ = _immutable
    _make = classmethod(_checked_make)

    def __new__(cls, preperiod: tuple[str, ...], cycle: tuple[str, ...]):
        if not cycle:
            raise SpecError("cycle word must be nonempty")
        return super().__new__(cls, preperiod, cycle)

    def letter(self, i: int) -> str:
        """Letter at 0-based position i."""
        r = len(self.preperiod)
        if i < r:
            return self.preperiod[i]
        return self.cycle[(i - r) % len(self.cycle)]

    def head(self, n: int) -> tuple[str, ...]:
        return tuple(self.letter(i) for i in range(n))

    def shift(self, k: int = 1) -> "EventuallyPeriodicPoint":
        """The point with the first k letters dropped."""
        if k < 0:
            raise PreconditionError("shift amount must be >= 0")
        r = len(self.preperiod)
        if k <= r:
            return EventuallyPeriodicPoint(self.preperiod[k:], self.cycle)
        rot = (k - r) % len(self.cycle)
        return EventuallyPeriodicPoint(
            (), self.cycle[rot:] + self.cycle[:rot]
        )
