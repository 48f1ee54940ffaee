"""Exact lift counting and log-domain partition sums.

Counts are Python integers throughout, so nothing saturates; only the
final transcendental step (log, fractional powers) leaves the exact
domain.  The sweep holds its weights as bare float logs, and each level
carries one bound on their rounding error, charged once per level from
level-wide maxima; every S_n leaves as a ``LogReal`` with its bound.

The partition sum S_n adds count(w)^theta over all occurring image
words w of length n.  The sum is nonlinear in the counts, so there is
no single transfer matrix; the sub-exponential lever is that the
per-symbol count vector propagates linearly, hence two prefixes with
proportional vectors generate subtrees whose sums differ by the exact
scalar c^theta.  Collapsed mode therefore sweeps the prefix tree one
level at a time and merges the prefixes of a level by (last letter,
gcd-normalized count vector); a backward pass over the kept levels
gives the suffix sums that cylinder masses need.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import PreconditionError, ResourceError, SpecError
from .sft import EventuallyPeriodicPoint, FactorSystem

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "LogReal",
    "PartitionSum",
    "CollapsedEngine",
    "preimage_count",
    "brute_force_count",
    "image_word_counts",
    "partition_sum",
    "partition_series",
    "dn_count",
    "is_image_point",
    "viable_sets",
]

DEFAULT_NODE_BUDGET = 50_000_000
_BUDGET_ENV = "CARPETDIM_NODE_BUDGET"
_EPS = 2.0 ** -52
_NEG_INF = float("-inf")  # log of zero; compared directly on hot paths


def resolve_node_budget(explicit: Optional[int]) -> int:
    if explicit is not None:
        if explicit < 1:
            raise PreconditionError("node budget must be >= 1")
        return explicit
    raw = os.environ.get(_BUDGET_ENV)
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            raise SpecError(f"{_BUDGET_ENV} must be an integer, got {raw!r}")
        if value < 1:
            raise SpecError(f"{_BUDGET_ENV} must be >= 1")
        return value
    return DEFAULT_NODE_BUDGET


class LogReal:
    """A nonnegative real stored as its natural log with a tracked bound.

    ``err`` bounds the absolute error of ``log``, which is the relative
    error of the represented value to first order.  Addition is an
    order-stable two-term log-sum-exp; because the terms are
    nonnegative, the result's log error is a convex combination of the
    input errors, so the bound combines by max plus the per-operation
    rounding.  Multiplication adds logs, so there the bounds add.
    """

    __slots__ = ("log", "err")

    def __init__(self, log: float, err: float = 0.0):
        self.log = log
        self.err = err

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(_NEG_INF, 0.0)

    def add(self, other: "LogReal") -> "LogReal":
        if self.log == _NEG_INF:
            return LogReal(other.log, other.err)
        if other.log == _NEG_INF:
            return LogReal(self.log, self.err)
        hi, lo = (self.log, other.log) if self.log >= other.log else (other.log, self.log)
        out = hi + math.log1p(math.exp(lo - hi))
        return LogReal(out, max(self.err, other.err) + _EPS * (abs(out) + 3.0))

    def times(self, other: "LogReal") -> "LogReal":
        if self.log == _NEG_INF or other.log == _NEG_INF:
            return LogReal.zero()
        out = self.log + other.log
        return LogReal(out, self.err + other.err + _EPS * (abs(out) + 1.0))

    def scaled_by_log(self, dlog: float) -> "LogReal":
        """Multiply by e^dlog, charging for dlog's own float rounding."""
        if self.log == _NEG_INF:
            return LogReal.zero()
        out = self.log + dlog
        return LogReal(out, self.err + _EPS * (3.0 * abs(dlog) + abs(out) + 1.0))

    @property
    def err_bound(self) -> float:
        return self.err

    def __repr__(self):
        return f"LogReal(log={self.log!r}, err={self.err!r})"


def _advance(vec: tuple[int, ...], cols: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    # row vector times a 0/1 block given by its column supports; plain
    # loops, as comprehensions cost a call each on short vectors
    out = []
    for c in cols:
        t = 0
        for i in c:
            t += vec[i]
        out.append(t)
    return tuple(out)


def _normalize(vec: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    g = gcd(*vec)
    if g <= 1:
        return 1, vec
    return g, tuple(c // g for c in vec)


def _read(fs: FactorSystem, b: int, vec: tuple[int, ...], letters) -> Optional[tuple]:
    """(last letter, count vector) after reading the letter indices
    ``letters`` on from a prefix ending in letter b with count vector
    vec, or None once the count drops to 0."""
    for b2 in letters:
        cols = fs.fiber_supports[b].get(b2)
        vec = _advance(vec, cols) if cols else ()
        if not any(vec):
            return None
        b = b2
    return b, vec


def preimage_count(fs: FactorSystem, word: tuple[str, ...]) -> int:
    """Exact number of source words mapping letterwise onto ``word``.

    Computed as the grand sum of the product of fiber blocks along the
    word applied to the all-ones vector.  Words not in the image
    language (including words with unknown letters) count 0.
    """
    if not word:
        raise PreconditionError("word must be nonempty")
    idx = fs.image_index
    if any(letter not in idx for letter in word):
        return 0
    b = idx[word[0]]
    end = _read(fs, b, (1,) * len(fs.fibers[b]), [idx[letter] for letter in word[1:]])
    return sum(end[1]) if end else 0


def brute_force_count(fs: FactorSystem, word: tuple[str, ...], limit: int = 12) -> int:
    """Independent oracle for ``preimage_count``: explicit DFS, no matrices."""
    if not word:
        raise PreconditionError("word must be nonempty")
    if len(word) > limit:
        raise PreconditionError(
            f"brute-force oracle refuses words longer than {limit}"
        )
    idx = fs.image_index
    if any(letter not in idx for letter in word):
        return 0
    sft = fs.source
    fibers_by_letter = [
        set(fs.fibers[idx[letter]]) for letter in word
    ]
    total = 0
    stack = [(0, x) for x in sorted(fibers_by_letter[0], reverse=True)]
    while stack:
        depth, x = stack.pop()
        if depth == len(word) - 1:
            total += 1
            continue
        for y in sft.successor_sets[x]:
            if y in fibers_by_letter[depth + 1]:
                stack.append((depth + 1, y))
    return total


def image_word_counts(fs: FactorSystem, n: int) -> dict[tuple[str, ...], int]:
    """All occurring image words of length n with their lift counts.

    Enumerates source paths one by one and buckets them by image word,
    so it is matrix-free and doubles as an exhaustive oracle.  Cost is
    the number of source words of length n; keep n small.
    """
    if n < 1:
        raise PreconditionError("word length must be >= 1")
    sft = fs.source
    letter_of = [fs.letter_map[s] for s in sft.symbols]
    out: dict[tuple[str, ...], int] = {}
    stack = [(x,) for x in range(sft.alphabet_size)]
    while stack:
        path = stack.pop()
        if len(path) == n:
            key = tuple(letter_of[i] for i in path)
            out[key] = out.get(key, 0) + 1
        else:
            stack.extend(path + (y,) for y in sft.successor_sets[path[-1]])
    return out


def _prefix_words(fs: FactorSystem, n: int):
    """Occurring image words of lengths 1..n with their exact count vectors.

    Yields (letter indices, count vector) depth first, letters in
    alphabet order: the exact-mode reference walk, and the package's
    one word enumerator.
    """
    supports = fs.fiber_supports
    stack = [((b,), (1,) * len(f)) for b, f in reversed(list(enumerate(fs.fibers)))]
    while stack:
        word, vec = stack.pop()
        yield word, vec
        if len(word) < n:
            for b2, cols in reversed(supports[word[-1]].items()):
                nxt = _advance(vec, cols)
                if any(nxt):
                    stack.append((word + (b2,), nxt))


@dataclass(frozen=True)
class PartitionSum:
    """log S_n plus the word count and search-effort counters."""

    n: int
    theta: float
    value: LogReal
    word_count: int
    visited_nodes: int
    collapsed_nodes: int
    mode: str


def _log_sum_exp(terms: list[float]) -> float:
    """log of the sum of e^t over ``terms``: the largest term plus the log
    of one ``fsum`` of exponentials in (0, 1]; -inf for no finite term."""
    if len(terms) == 1:
        return terms[0]
    hi = max(terms, default=_NEG_INF)
    if hi == _NEG_INF:
        return hi
    return hi + math.log(math.fsum([math.exp(t - hi) for t in terms]))


def _summed(terms: list[float], err: float) -> LogReal:
    """The log-sum-exp of logs >= 0 that are off by ``err`` before their
    last log-times-theta and add, charged as in ``CollapsedEngine``."""
    out = _log_sum_exp(terms)
    return LogReal(out, err + _EPS * (4.0 * out + 2.0))


def _matmul(a: list, b: list) -> list:
    # matrices of (weight, words): weights multiply in the log domain,
    # word counts as integers; (zero, 0) marks a missing entry
    return [[_dot(r, c) for c in zip(*b)] for r in a]


def _dot(r, c) -> tuple[LogReal, int]:
    acc, words = LogReal.zero(), 0
    for (x, m), (y, n) in zip(r, c):
        if m and n:
            acc, words = acc.add(x.times(y)), words + m * n
    return acc, words


class CollapsedEngine:
    """Level-synchronous sweep over the collapsed prefix tree.

    A state of level k, (last letter, gcd-normalized count vector),
    stands for the image words of length k that end in it, and carries
    (log weight, words): the log of the sum of gcd^theta over them, as
    a bare float, and their number.  So S_k sums e^(log weight) *
    (sum of vector)^theta over level k.  A step merges children by key,
    which is exact because extensions of proportional vectors have
    proportional counts.  ``visited`` counts the states of level 1 and
    every nonzero edge, the jump's included, and ``_charge`` holds it
    to the budget.

    One kernel, ``_children``, gives a state's children with the log
    factor d = theta * log g that each child's gcd g contributes; the
    forward step, the backward pass and the jump all read it.  The
    factor is computed once per engine for each g, and is 0.0 for
    g = 1, where no rounding is charged.

    One driver, ``_reach``, sweeps on from the held levels.  ``levels``
    holds every level from 1; ``partition`` holds only the last, and
    once a step returns the key set it started from, raises that linear
    map to a power when that costs less than stepping.  A held level's
    S_k is read without sweeping, and one ``backward`` pass over held
    levels gives the suffix sums.

    Rounding.  Each held level keeps one bound E on the absolute error
    of every log weight in it.  Every weight sums products of gcd^theta
    >= 1, so every log is >= 0, and the largest log T of a level bounds
    each term, spread and result met while building it.  Take eps =
    2^-52, +, - and * correctly rounded (within eps/2, relative), exp
    and log faithful (within eps, the assumption ``LogReal.add`` makes)
    and ``fsum`` correctly rounded.  A step then adds to E, once per
    level and from level-wide maxima:

    - for the child terms lw + d: log g is off by eps log g, so
      theta log g by eps d, and the product rounds by eps/2 d; the add
      rounds by eps/2 T.  That is eps (2 D + T + 1), D being the
      largest d the engine has met and the 1 covering second-order
      terms, and nothing while D = 0, as lw + 0.0 is exact.
    - for a key reached more than once, hi + log(fsum(exp(t - hi))):
      t - hi rounds by eps/2 (hi - lo) <= eps/2 T, exp by eps and fsum
      by eps/2, all relative, so by as much in the log; the log adds
      eps T, its result being at most T, and the final add eps/2 T.
      That is eps (2 T + 2).  A log-sum-exp moves by at most the
      largest error of its terms, so E itself passes through.

    ``_total`` sums the terms lw + theta log(sum of vector) of a level
    the same way.  theta log(sum) rounds by 1.5 eps of itself and the
    add by eps/2 of the term, at most 2 eps S in all, S >= every term
    being the log of the sum, and the sum adds eps (2 S + 2).
    ``backward`` starts from eps (2 T + 1) for the last
    level's theta log(sum of vector) and charges each level above it
    as a step with merges.  The jump keeps a ``LogReal`` per entry of
    its matrices and hands on the largest entry error.
    """

    def __init__(self, fs: FactorSystem, theta: float, node_budget: Optional[int] = None):
        if not (0.0 < theta <= 1.0):
            raise PreconditionError("theta must be in (0, 1]")
        self.fs = fs
        self.theta = theta
        self.budget = resolve_node_budget(node_budget)
        self.visited = 0
        self.collapsed_nodes = 0
        self._sums: dict[int, tuple[LogReal, int]] = {}
        self._held: list[tuple[dict, float]] = []  # (level, error bound), deepest last
        self._first = 0  # the level of _held[0]
        self._stationary_edges = 0  # edges per step once the key set repeats
        self._dlogs: dict[int, float] = {1: 0.0}  # g -> theta * log g

    def _charge(self, visited: int, k: int, depth: int, held: int) -> None:
        """Record ``visited``; past the budget, say how far the sweep got:
        the level being built, and ``held``, the states of every level in
        the held store plus the children of level k built so far."""
        self.visited = visited
        if visited > self.budget:
            raise ResourceError(
                f"node budget exceeded ({self.budget} nodes) at level {k} of {depth} "
                f"with {held} states held; raise the budget or lower the depth"
            )

    def _reach(self, n: int, keep: bool) -> None:
        """Hold level n, sweeping on from the deepest held level below it,
        or from level 1.  With ``keep`` every level from 1 stays held;
        without it only the last does, and a step that repeats its key
        set may be raised to a power."""
        held, first = self._held, self._first
        k = first + len(held) - 1
        if first <= n <= k and (first == 1 or not keep):
            return
        if not held or n < first or (keep and first != 1):
            roots = {(b, (1,) * len(f)): (0.0, 1) for b, f in enumerate(self.fs.fibers)}
            self._charge(self.visited + len(roots), 1, n, len(roots))
            self.collapsed_nodes += len(roots)
            held, k = [(roots, 0.0)], 1
            self._stationary_edges = 0
        # raising a repeating step to a power costs about 2 s^3 log2(n - k)
        # products for s states, stepping (n - k) times its edges
        while k < n:
            level, err = held[-1]
            if not keep and 2 * len(level) ** 3 * (n - k).bit_length() < (n - k) * self._stationary_edges:
                held, k = [self._jump(held, k, n)], n
                continue
            before = self.visited
            nxt = self._step(held, k + 1, n)
            self._stationary_edges = self.visited - before if nxt[0].keys() == level.keys() else 0
            if not keep:
                held = []
            held.append(nxt)
            k += 1
        self._held, self._first = held, k - len(held) + 1

    def _step(self, held: list, k: int, depth: int) -> tuple[dict, float]:
        """Level k and its error bound from the deepest level of ``held``,
        level k - 1, on the way to level ``depth``."""
        level, err = held[-1]
        children = self._children
        visited = self.visited
        nxt: dict = {}
        merged: dict = {}  # key -> all its terms, for keys reached twice
        for (b, prim), (lw, words) in level.items():
            kids = children(b, prim)
            visited += len(kids)
            for key, d in kids:
                old = nxt.get(key)
                if old is None:
                    nxt[key] = (lw + d, words)
                else:
                    merged.setdefault(key, [old[0]]).append(lw + d)
                    nxt[key] = (old[0], old[1] + words)
            if visited > self.budget:
                self._charge(visited, k, depth, sum(len(h) for h, _ in held) + len(nxt))
        for key, terms in merged.items():
            nxt[key] = (_log_sum_exp(terms), nxt[key][1])
        self.visited = visited
        self.collapsed_nodes += len(nxt)
        top = max(nxt.values(), default=(0.0,))[0]
        return nxt, err + self._step_error(top, bool(merged))

    def _step_error(self, top: float, merged: bool) -> float:
        """What one step adds to a level's error bound, ``top`` being the
        level's largest log; derived in the class docstring."""
        d = max(self._dlogs.values())
        charge = 2.0 * d + top + 1.0 if d else 0.0
        if merged:
            charge += 2.0 * top + 2.0
        return _EPS * charge

    def _children(self, b: int, prim: tuple[int, ...]) -> list:
        """(child state, theta * log g) for each letter that extends a
        state (b, prim) with a nonzero count vector, whose gcd g the
        child state has divided out."""
        dlogs = self._dlogs
        out = []
        for b2, cols in self.fs.fiber_supports[b].items():
            # the count vector times the 0/1 block, as in _advance
            vec = []
            for c in cols:
                t = 0
                for i in c:
                    t += prim[i]
                vec.append(t)
            g = gcd(*vec)
            if not g:
                continue
            d = dlogs.get(g)
            if d is None:
                d = self._dlog(g)
            out.append(((b2, tuple(vec) if g == 1 else tuple(c // g for c in vec)), d))
        return out

    def _dlog(self, g: int) -> float:
        """theta * log g, computed once per engine; 0.0 for g = 1."""
        d = self._dlogs.get(g)
        if d is None:
            d = self._dlogs[g] = self.theta * math.log(g)
        return d

    def _total(self, level: dict, err: float) -> tuple[LogReal, int]:
        # S_k and the word count of a level whose log weights are off by err
        theta, log = self.theta, math.log
        terms = [lw + theta * log(sum(p)) for (_, p), (lw, _) in level.items()]
        return _summed(terms, err), sum(n for _, n in level.values())

    def _jump(self, held: list, k: int, n: int) -> tuple[dict, float]:
        """Level n and its error bound from the deepest level of ``held``,
        level k, whose successor has its key set: the step is then one
        fixed linear map on (weight, words), raised to the power n - k by
        repeated squaring."""
        level, err = held[-1]
        in_store = sum(len(h) for h, _ in held)
        keys = list(level)
        where = {s: i for i, s in enumerate(keys)}
        one_step = [[(LogReal.zero(), 0)] * len(keys) for _ in keys]
        for i, (b, prim) in enumerate(keys):
            kids = self._children(b, prim)
            self._charge(self.visited + len(kids), k + 1, n, in_store)
            for key, d in kids:
                one_step[i][where[key]] = (LogReal(0.0).scaled_by_log(d) if d else LogReal(0.0), 1)
        row, steps = [[(LogReal(level[s][0], err), level[s][1]) for s in keys]], n - k
        while steps:
            if steps & 1:
                row = _matmul(row, one_step)
            steps >>= 1
            if steps:
                one_step = _matmul(one_step, one_step)
        return {s: (x.log, m) for s, (x, m) in zip(keys, row[0])}, max(x.err for x, _ in row[0])

    def partition(self, n: int) -> PartitionSum:
        if n < 1:
            raise PreconditionError("depth must be >= 1")
        if n not in self._sums:
            self._reach(n, keep=False)
            self._sums[n] = self._total(*self._held[n - self._first])
        value, words = self._sums[n]
        return PartitionSum(
            n, self.theta, value, words, self.visited, self.collapsed_nodes, "collapsed"
        )

    def levels(self, depth: int) -> list[dict]:
        """Levels 1..depth, all held, going on from the levels already
        held; each maps a state (b, primitive vector) to (log weight,
        words)."""
        self._reach(depth, keep=True)
        return [level for level, _ in self._held[:depth]]

    def backward(self, levels: list[dict]) -> tuple[list[dict], list[float]]:
        """Suffix sums over held levels, one pass from the last level up,
        and one error bound per level.  ``sums[k][s]`` is the float log
        of the sum of the final count^theta over the extensions to the
        last level of a prefix in state s of level k + 1, the prefix's
        own gcd factored out, or -inf when there are none; ``errs[k]``
        bounds the error of every finite log in ``sums[k]``."""
        children, theta, log = self._children, self.theta, math.log
        sums = {s: theta * log(sum(s[1])) for s in levels[-1]}
        err = _EPS * (2.0 * max(sums.values(), default=0.0) + 1.0)
        out, errs = [sums], [err]
        for level in reversed(levels[:-1]):
            below = sums
            sums = {s: _log_sum_exp([below[key] + d for key, d in children(*s)]) for s in level}
            err += self._step_error(max(sums.values(), default=0.0), True)
            out.append(sums)
            errs.append(err)
        return out[::-1], errs[::-1]


def shared_engine(
    fs: FactorSystem, theta: float, node_budget: Optional[int], engine: Optional[CollapsedEngine]
) -> CollapsedEngine:
    """``engine`` if given, else a new one.  A given engine must count for
    ``fs`` at ``theta``: its sums are reported under those."""
    if engine is None:
        return CollapsedEngine(fs, theta, node_budget)
    if engine.fs != fs or engine.theta != theta:
        raise PreconditionError("engine was built for another factor system or theta")
    return engine


def partition_sum(
    fs: FactorSystem,
    n: int,
    theta: float,
    mode: str = "collapsed",
    node_budget: Optional[int] = None,
) -> PartitionSum:
    """S_n = sum of count(w)^theta over occurring image words of length n.

    ``mode="exact"`` walks the full pruned prefix tree; ``"collapsed"``
    sweeps it level by level merging (letter, normalized vector) states,
    and agrees with exact up to tracked rounding error.  Exceeding the
    node budget raises ResourceError rather than truncating.
    """
    if n < 1:
        raise PreconditionError("depth must be >= 1")
    if not (0.0 < theta <= 1.0):
        raise PreconditionError("theta must be in (0, 1]")
    if mode == "exact":
        budget = resolve_node_budget(node_budget)
        counts: dict[int, int] = {}  # lift count -> words of length n with it
        for visited, (word, vec) in enumerate(_prefix_words(fs, n), 1):
            if visited > budget:
                raise ResourceError(
                    f"node budget exceeded ({budget} nodes); "
                    f"use collapsed mode, raise the budget, or lower the depth"
                )
            if len(word) == n:
                c = sum(vec)
                counts[c] = counts.get(c, 0) + 1
        # theta log c + log m rounds by eps (1.5 theta log c + log m) plus
        # eps/2 of itself, within the 2 eps of itself that _summed charges
        terms = [theta * math.log(c) + math.log(m) for c, m in counts.items()]
        return PartitionSum(n, theta, _summed(terms, 0.0), sum(counts.values()), visited, 0, "exact")
    if mode == "collapsed":
        return CollapsedEngine(fs, theta, node_budget).partition(n)
    raise PreconditionError(f"unknown mode {mode!r}")


def partition_series(
    fs: FactorSystem,
    n_max: int,
    theta: float,
    node_budget: Optional[int] = None,
    engine: Optional[CollapsedEngine] = None,
) -> list[PartitionSum]:
    """S_1 .. S_{n_max} from one collapsed sweep."""
    if n_max < 1:
        raise PreconditionError("depth must be >= 1")
    eng = shared_engine(fs, theta, node_budget, engine)
    return [eng.partition(n) for n in range(1, n_max + 1)]


def _cycle_viable(fs: FactorSystem, cycle: tuple[str, ...]) -> list[set[int]]:
    # Greatest fixed point of "has a successor in the next fiber" on the
    # product of the source graph with the cyclic tail automaton.
    idx = fs.image_index
    q = len(cycle)
    for letter in cycle:
        if letter not in idx:
            return [set() for _ in range(q)]
    fibers = [set(fs.fibers[idx[letter]]) for letter in cycle]
    viable = [set(f) for f in fibers]
    succ = fs.source.successor_sets
    changed = True
    while changed:
        changed = False
        for j in range(q):
            nxt = viable[(j + 1) % q]
            keep = {
                x for x in viable[j]
                if any(y in nxt for y in succ[x])
            }
            if keep != viable[j]:
                viable[j] = keep
                changed = True
    return viable


def viable_sets(fs: FactorSystem, point: EventuallyPeriodicPoint, upto: int) -> list[set[int]]:
    """Viable lift symbols at positions 0..upto-1 of the point.

    A symbol is viable at position i when some infinite lift of the tail
    from position i starts there.  Empty set at position 0 means the
    point is not in the image subshift.
    """
    if upto < 1:
        raise PreconditionError("need at least one position")
    idx = fs.image_index
    r = len(point.preperiod)
    q = len(point.cycle)
    cyc = _cycle_viable(fs, point.cycle)
    succ = fs.source.successor_sets

    def tail_viable(i: int) -> set[int]:
        return cyc[(i - r) % q]

    sets: dict[int, set[int]] = {}
    top = max(upto, r + 1)
    for i in range(top, -1, -1):
        if i >= r:
            sets[i] = tail_viable(i)
            continue
        letter = point.preperiod[i]
        if letter not in idx:
            sets[i] = set()
            continue
        fiber = fs.fibers[idx[letter]]
        nxt = sets[i + 1]
        sets[i] = {
            x for x in fiber if any(y in nxt for y in succ[x])
        }
    return [sets[i] for i in range(upto)]


def is_image_point(fs: FactorSystem, point: EventuallyPeriodicPoint) -> bool:
    """Whether the point lies in the image subshift (has an infinite lift)."""
    return bool(viable_sets(fs, point, 1)[0])


def dn_count(fs: FactorSystem, point: EventuallyPeriodicPoint, n: int) -> int:
    """Number of length-n lift prefixes that extend to full lifts of the point.

    Counts source words x_1..x_n in the fibers of the first n letters
    whose last symbol is tail-viable; every such word is the prefix of an
    infinite lift, and conversely.
    """
    if n < 1:
        raise PreconditionError("depth must be >= 1")
    sets = viable_sets(fs, point, n)
    if not sets[0]:
        return 0
    A = fs.source.matrix
    counts = {x: 1 for x in sorted(sets[0])}
    for i in range(1, n):
        nxt: dict[int, int] = {}
        for y in sorted(sets[i]):
            c = sum(cnt for x, cnt in counts.items() if A[x][y])
            if c:
                nxt[y] = c
        counts = nxt
        if not counts:
            return 0
    return sum(counts.values())
