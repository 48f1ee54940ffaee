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
gives the suffix sums that cylinder masses need.  The deepest level is
never built: a prefix's extension by one letter has the count
g * (prim . r), r holding the row sums of a fiber block, so S_n and the
last suffix sums are read off level n - 1.

``LogReal`` and ``PartitionSum`` are ``NamedTuple`` records, so each
compares equal to a plain tuple of its fields.
"""

from __future__ import annotations

import math
from math import gcd
from operator import mul
from typing import NamedTuple, Optional

from .errors import PreconditionError, ResourceError
from .sft import EventuallyPeriodicPoint, FactorSystem

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "LogReal",
    "PartitionSum",
    "CollapsedEngine",
    "ExactEngine",
    "ENGINES",
    "make_engine",
    "preimage_count",
    "partition_sum",
    "partition_series",
    "dn_count",
    "is_image_point",
    "viable_sets",
]

DEFAULT_NODE_BUDGET = 50_000_000
_EPS = 2.0 ** -52
_NEG_INF = float("-inf")  # log of zero; compared directly on hot paths


def resolve_node_budget(explicit: Optional[int]) -> int:
    if explicit is None:
        return DEFAULT_NODE_BUDGET
    if explicit < 1:
        raise PreconditionError("node budget must be >= 1")
    return explicit


class LogReal(NamedTuple):
    """A nonnegative real as its natural log, with ``err`` bounding the
    absolute error of ``log``, which is the relative error of the value
    to first order.  The rounding that ``err`` covers is derived in
    ``CollapsedEngine``."""

    log: float
    err: float = 0.0


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


def _lifts(fs: FactorSystem, word) -> Optional[tuple]:
    """``_read`` of the image word from the all-ones vector over its first
    fiber; None for a word with an unknown letter or without lifts."""
    idx = fs.image_index
    if any(letter not in idx for letter in word):
        return None
    b = idx[word[0]]
    return _read(fs, b, (1,) * len(fs.fibers[b]), [idx[letter] for letter in word[1:]])


def preimage_count(fs: FactorSystem, word: tuple[str, ...]) -> int:
    """Exact number of source words mapping letterwise onto ``word``.

    Computed as the grand sum of the product of fiber blocks along the
    word applied to the all-ones vector.  Words not in the image
    language (including words with unknown letters) count 0.
    """
    if not word:
        raise PreconditionError("word must be nonempty")
    end = _lifts(fs, word)
    return sum(end[1]) if end else 0


def _prefix_words(fs: FactorSystem, n: int):
    """Occurring image words of lengths 1..n with their exact count vectors.

    Yields (letter indices, count vector) depth first, letters in
    alphabet order: the reference walk of ``ExactEngine``.
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


class PartitionSum(NamedTuple):
    """log S_n plus the word count and search-effort counters."""

    n: int
    value: LogReal
    word_count: int
    visited_nodes: int
    collapsed_nodes: int


def _log_sum_exp(terms: list[float]) -> float:
    """log of the sum of e^t over ``terms``: the largest term plus the log
    of one ``fsum`` of exponentials in (0, 1]; -inf for no finite term.
    Two terms take the closed form hi + log(1.0 + e^(lo - hi)), the same
    float: e^0.0 is exactly 1.0, and ``fsum`` of two floats is their
    correctly rounded sum, as is 1.0 + e^(lo - hi)."""
    if len(terms) == 2:
        hi, lo = terms
        if lo > hi:
            hi, lo = lo, hi
        if lo == _NEG_INF:
            return hi
        return hi + math.log(1.0 + math.exp(lo - hi))
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


def _log_matmul(a: list, b: list) -> tuple[list, float]:
    """The product of matrices of (log weight, words), words == 0 marking
    a missing entry: an entry's terms x + y merge by log-sum-exp and word
    counts multiply as integers.  Also what the product adds to the sum
    of its factors' error bounds, derived in ``CollapsedEngine``."""
    out, top = [], 0.0
    for r in a:
        row = []
        for c in zip(*b):
            terms, words = [], 0
            for (x, m), (y, k) in zip(r, c):
                if m and k:
                    terms.append(x + y)
                    words += m * k
            lw = _log_sum_exp(terms)
            if lw > top:
                top = lw
            row.append((lw, words))
        out.append(row)
    return out, _EPS * (2.5 * top + 2.0)


class CollapsedEngine:
    """Level-synchronous sweep over the collapsed prefix tree.

    A state of level k, (last letter, gcd-normalized count vector),
    stands for the image words of length k that end in it, and carries
    (log weight, words): the log of the sum of gcd^theta over them, as
    a bare float, and their number.  So S_k sums e^(log weight) *
    (sum of vector)^theta over level k.  A step merges children by key,
    which is exact because extensions of proportional vectors have
    proportional counts.

    Level k is never built to read S_k.  A state (a, prim) of level
    k - 1 extends by letter b to a vector that sums to x = prim . r,
    r holding the row sums of the 0/1 block (a, b) (``fiber_row_sums``),
    so S_k = sum over level k - 1 of e^(log weight) * sum over b of
    x^theta, over the pairs with x > 0, and the words of level k number
    the sum of words times those pairs.  This takes no gcd, key or
    merge; S_1 comes from the fiber sizes.  ``visited`` counts the
    states of level 1 and every nonzero edge, the jump's included, and
    ``_charge`` holds it to the budget.  The first read of S_k, whoever
    asks, charges its pairs, which are the edges out of level k - 1,
    unless level k is held and its edges charged; a step over edges a
    read has charged charges them no more (``_paid``).  So a sum or a
    series visits what it did when it built its deepest level.
    ``collapsed_nodes`` counts the states built, which leaves out the
    level a read stands in for.

    One kernel, ``_children``, gives a state's children with the log
    factor d = theta * log g that each child's gcd g contributes.  The
    factor is computed once per engine for each g, and is 0.0 for
    g = 1, where no rounding is charged.

    One driver, ``_reach``, sweeps on from the held levels.  ``levels``
    holds every level from 1; ``partition`` holds only the last, level
    n - 1, and once a step returns the key set it started from, raises
    that linear map to a power when that costs less than stepping.  An
    S_k whose level k - 1 is held is read without sweeping, and one
    ``backward`` pass over held levels gives the suffix sums.
    ``_reach`` picks a step's child source once: while every level is
    held, each state's child list is kept from its first build for as
    long as the levels are held (``edges``), so a state that comes back
    at a deeper level reads it instead of rebuilding it; a sweep that
    drops its levels, and the jump, call the kernel afresh.
    ``backward`` and the cylinder-mass walks of ``measures`` read the
    kept lists and build none, taking a last letter into the level not
    built through the row sums, so the kernel stays the one rule that
    turns a state into its children; walks along single words step
    exact count vectors with ``_read``.

    Rounding.  Each held level keeps one bound E on the absolute error
    of every log weight in it.  Every weight sums products of gcd^theta
    >= 1, so every log is >= 0, and the largest log T of a level bounds
    each term, spread and result met while building it.  Take eps =
    2^-52, +, - and * correctly rounded (within eps/2, relative), exp
    and log faithful (within eps) and ``fsum`` correctly rounded.  A
    step then adds to E, once per level and from level-wide maxima:

    - for the child terms lw + d: log g is off by eps log g, so
      theta log g by eps d, and the product rounds by eps/2 d; the add
      rounds by eps/2 T.  That is eps (2 D + T + 1), D being the
      largest d of the edges the step reads and the 1 covering
      second-order terms, and nothing while D = 0, as lw + 0.0 is exact.
    - for a key reached more than once, hi + log(fsum(exp(t - hi))):
      t - hi rounds by eps/2 (hi - lo) <= eps/2 T, exp by eps and fsum
      by eps/2, all relative, so by as much in the log; the log adds
      eps T, its result being at most T, and the final add eps/2 T.
      That is eps (2 T + 2).  A log-sum-exp moves by at most the
      largest error of its terms, so E itself passes through.  Two
      terms take hi + log(1.0 + exp(lo - hi)), which is the same float:
      exp(0.0) is exactly 1.0, and fsum of two floats rounds their sum
      correctly, as the add does.  So the charge is unchanged.

    The read of S_k sums the terms lw + theta log x of level k - 1 the
    same way, x being an exact integer >= 1.  theta log x rounds by 1.5
    eps of itself and the add by eps/2 of the term, at most 2 eps S in
    all, S >= every term being the log of the sum, and the sum adds
    eps (2 S + 2).  S_k is so off by at most E_{k-1} + eps (4 S + 2),
    one step's charge less than a sum over a built level k would be.
    ``backward`` seeds level depth - 1, in that same read, with the
    log-sum-exp of theta log x over each state's pairs: 1.5 eps T for
    theta log x and eps (2 T + 2) for the merge, within eps (4 T + 2),
    T being the largest seed.  It charges each level above it as a step
    with merges, D being the largest d of the kept lists that level
    reads, and a held level ``depth`` its own theta log(sum of vector),
    eps (2 T + 1).

    The jump multiplies matrices of such entries, each matrix with one
    bound on the error of all its logs.  The row starts from the
    level's E.  The one-step entries d are each off by at most 1.5 eps
    d, as in a step, so by eps 2 D, D now being the largest d of the
    one-step map, which is nothing when every g is 1.  A product of
    factors off by e and f has entries log-sum-exp(x + y), off by
    e + f, plus eps/2 T for the adds x + y and eps (2 T + 2) for the
    merge, T now being the product's largest finite log, which bounds
    every term.  That is eps (2.5 T + 2) per product, charged
    whether or not an entry merges.
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
        self._paid = (0, 0)  # (level k, its edges that a read of S_{k+1} charged)
        self._edges: Optional[dict] = None  # state -> child list, while level 1 is held
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

    def _reach(self, n: int, keep: bool, depth: int) -> None:
        """Hold level n on the way to level ``depth``, which budget
        messages name, sweeping on from the deepest held level below it,
        or from level 1.  With ``keep`` every level from 1 stays held;
        without it only the last does, and a step that repeats its key
        set may be raised to a power."""
        held, first = self._held, self._first
        k = first + len(held) - 1
        if first <= n <= k and (first == 1 or not keep):
            return
        if not held or n < first or (keep and first != 1):
            roots = {(b, (1,) * len(f)): (0.0, 1) for b, f in enumerate(self.fs.fibers)}
            self._charge(self.visited + len(roots), 1, depth, len(roots))
            self.collapsed_nodes += len(roots)
            held, k = [(roots, 0.0)], 1
            self._stationary_edges = 0
            self._paid = (0, 0)
            self._edges = {}
        children = self._kept_children() if keep else self._children
        # raising a repeating step to a power costs about 2 s^3 log2(n - k)
        # products for s states, stepping (n - k) times its edges
        while k < n:
            level, err = held[-1]
            # the edges out of level k that a read of S_{k+1} has charged
            paid = self._paid[1] if self._paid[0] == k else 0
            if not keep and 2 * len(level) ** 3 * (n - k).bit_length() < (n - k) * self._stationary_edges:
                held, k = [self._jump(held, k, n, depth, paid)], n
                continue
            before = self.visited - paid
            nxt = self._step(held, k + 1, depth, children, paid)
            self._stationary_edges = self.visited - before if nxt[0].keys() == level.keys() else 0
            if not keep:
                held = []
            held.append(nxt)
            k += 1
        self._held, self._first = held, k - len(held) + 1
        if self._first != 1:
            self._edges = None  # the child lists go with the levels they came from

    def _kept_children(self):
        """The kernel read through ``_edges``: each state's child list is
        built on its first read and kept.  A closure, so that the engine
        holds no reference cycle and is freed as soon as it is dropped."""
        edges, kernel = self._edges, self._children

        def children(state):
            kids = edges.get(state)
            if kids is None:
                kids = edges[state] = kernel(state)
            return kids

        return children

    @property
    def edges(self) -> Optional[dict]:
        """The kept child lists, read-only: after ``levels(depth)`` each
        state of levels 1..depth-1 maps to its ``_children`` list of
        (child state, theta * log g); None once a sweep that holds one
        level has dropped them with the levels."""
        return self._edges

    def _step(self, held: list, k: int, depth: int, children, paid: int) -> tuple[dict, float]:
        """Level k and its error bound from the deepest level of ``held``,
        level k - 1, on the way to level ``depth``, reading each state's
        child list from ``children``; ``paid`` of its edges are already
        charged."""
        level, err = held[-1]
        visited = self.visited - paid
        nxt: dict = {}
        merged: dict = {}  # key -> all its terms, for keys reached twice
        top_d = 0.0  # the largest d of the edges read
        for state, (lw, words) in level.items():
            kids = children(state)
            visited += len(kids)
            for key, d in kids:
                if d > top_d:
                    top_d = d
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
        return nxt, err + self._step_error(top, bool(merged), top_d)

    def _step_error(self, top: float, merged: bool, d: float) -> float:
        """What one step adds to a level's error bound, ``top`` being the
        level's largest log and ``d`` the largest log factor of the edges
        it read; derived in the class docstring."""
        charge = 2.0 * d + top + 1.0 if d else 0.0
        if merged:
            charge += 2.0 * top + 2.0
        return _EPS * charge

    def _children(self, state: tuple[int, tuple[int, ...]]) -> list:
        """(child state, theta * log g) for each letter that extends a
        state (b, prim) with a nonzero count vector, whose gcd g the
        child state has divided out."""
        b, prim = state
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
                d = dlogs[g] = self.theta * math.log(g)
            out.append(((b2, tuple(vec) if g == 1 else tuple(c // g for c in vec)), d))
        return out

    def _jump(self, held: list, k: int, n: int, depth: int, paid: int) -> tuple[dict, float]:
        """Level n and its error bound from the deepest level of ``held``,
        level k, whose successor has its key set: the step is then one
        fixed linear map on (weight, words), raised to the power n - k by
        repeated squaring.  ``depth`` and ``paid`` are as for ``_step``."""
        level, err = held[-1]
        in_store = sum(len(h) for h, _ in held)
        keys = list(level)
        where = {s: i for i, s in enumerate(keys)}
        one_step = [[(_NEG_INF, 0)] * len(keys) for _ in keys]
        visited = self.visited - paid
        for i, state in enumerate(keys):
            kids = self._children(state)
            visited += len(kids)
            self._charge(visited, k + 1, depth, in_store)
            for key, d in kids:
                one_step[i][where[key]] = (d, 1)
        row, steps = [[level[s] for s in keys]], n - k
        map_err = 2.0 * _EPS * max((d for r in one_step for d, m in r if m), default=0.0)
        while steps:
            if steps & 1:
                row, charge = _log_matmul(row, one_step)
                err += map_err + charge
            steps >>= 1
            if steps:
                one_step, charge = _log_matmul(one_step, one_step)
                map_err += map_err + charge
        return dict(zip(keys, row[0])), err

    def partition(self, n: int) -> PartitionSum:
        if n < 1:
            raise PreconditionError("depth must be >= 1")
        if n not in self._sums:
            self._read_sum(n)
        value, words = self._sums[n]
        return PartitionSum(n, value, words, self.visited, self.collapsed_nodes)

    def _read_sum(self, n: int, seeds: Optional[dict] = None) -> None:
        """Read S_n and its word count into ``_sums`` off level n - 1
        through the row sums (class docstring); S_1 from the fiber sizes.
        Given ``seeds``, also map each state of level n - 1 to the
        log-sum-exp of its theta log x, ``backward``'s seed.  Only a first
        read, whoever asks, stores the sum and charges as derived there."""
        fresh = n not in self._sums
        theta, log, fibers = self.theta, math.log, self.fs.fibers
        if n == 1:
            if not self._held:  # every held store was swept from level 1
                self._reach(1, False, 1)
            self._sums[1] = _summed([theta * log(len(f)) for f in fibers], 0.0), len(fibers)
            return
        self._reach(n - 1, False, n)
        held, first = self._held, self._first
        level, err = held[n - 1 - first]
        charge = fresh and n - first == len(held)  # level n is not held
        rows = self.fs.fiber_row_sums
        terms: list[float] = []
        words = 0
        visited = before = self.visited
        for state, (lw, m) in level.items():
            a, prim = state
            logs = []  # theta log x of the state's pairs
            for _, r in rows[a]:
                x = sum(map(mul, prim, r))
                if x:
                    t = theta * log(x)
                    logs.append(t)
                    terms.append(lw + t)
            if seeds is not None:
                seeds[state] = _log_sum_exp(logs)
            pairs = len(logs)
            words += m * pairs
            if charge:
                visited += pairs
                if visited > self.budget:
                    self._charge(visited, n, n, sum(len(h) for h, _ in held))
        if charge:
            self.visited = visited
            self._paid = (n - 1, visited - before)
        if fresh:
            self._sums[n] = _summed(terms, err), words

    def series(self, n_max: int) -> list[PartitionSum]:
        """S_1 .. S_{n_max}, sweeping on one level at a time."""
        return [self.partition(n) for n in range(1, n_max + 1)]

    def levels(self, depth: int) -> list[dict]:
        """Levels 1..depth, all held, going on from the levels already
        held; each maps a state (b, primitive vector) to (log weight,
        words)."""
        self._reach(depth, True, depth)
        return [level for level, _ in self._held[:depth]]

    def backward(self, depth: Optional[int] = None) -> tuple[list[dict], list[float]]:
        """Suffix sums to level ``depth`` over the held levels 1..depth - 1,
        one pass from level depth - 1 up, and one error bound per level.
        ``sums[k][s]`` is the float log of the sum of the final
        count^theta over the extensions to level ``depth`` of a prefix in
        state s of level k + 1, the prefix's own gcd factored out;
        ``errs[k]`` bounds the error of every log in ``sums[k]``.

        Level depth - 1 is seeded by the read of S_depth (``_read_sum``),
        charged if it is the first, so ``levels(depth - 1)`` is all that
        must be held and level ``depth`` is never built.  When level
        ``depth`` is held as well, its own sums, theta log of the sum of
        each state's vector, come last, so after ``levels(depth)`` the
        lists cover levels 1..depth; ``depth`` defaults to the deepest
        held level.  The levels above the seed read the child lists the
        forward sweep kept, one loop per level that builds its sums and
        takes the largest log and the largest d of the lists read as it
        goes, the two maxima its error charge needs.  A depth whose
        levels are not held raises PreconditionError."""
        held = self._held
        if depth is None:
            depth = len(held)
        if self._first != 1 or not 1 <= depth <= len(held) + 1:
            raise PreconditionError(
                f"backward to level {depth} reads levels 1..{max(depth - 1, 1)} "
                f"held by levels(); they are not held"
            )
        edges, theta, log = self._edges, self.theta, math.log
        out: list[dict] = []
        errs: list[float] = []
        if depth > 1:
            sums: dict = {}  # the seed, from the read of S_depth
            self._read_sum(depth, sums)
            err = _EPS * (4.0 * max(sums.values(), default=0.0) + 2.0)
            out.append(sums)
            errs.append(err)
            for level, _ in reversed(held[: depth - 2]):
                below, sums, top, top_d = sums, {}, 0.0, 0.0
                for state in level:
                    terms = []
                    for key, d in edges[state]:
                        if d > top_d:
                            top_d = d
                        terms.append(below[key] + d)
                    t = sums[state] = _log_sum_exp(terms)
                    if t > top:
                        top = t
                err += self._step_error(top, True, top_d)
                out.append(sums)
                errs.append(err)
            out.reverse()
            errs.reverse()
        if depth <= len(held):
            sums = {s: theta * log(sum(s[1])) for s in held[depth - 1][0]}
            out.append(sums)
            errs.append(_EPS * (2.0 * max(sums.values(), default=0.0) + 1.0))
        return out, errs


class ExactEngine:
    """The reference walk over the full pruned prefix tree, word by word.

    ``partition(n)`` walks ``_prefix_words`` once to depth n and tallies
    the lift counts of every length up to n, so any S_k up to the
    deepest depth walked is read without walking again.  ``visited``
    counts the nodes of every walk against the budget.  A term theta
    log c + log m, for m words of lift count c, rounds by eps (1.5 theta
    log c + log m) plus eps/2 of itself, within the 2 eps of itself that
    ``_summed`` charges.
    """

    def __init__(self, fs: FactorSystem, theta: float, node_budget: Optional[int] = None):
        if not (0.0 < theta <= 1.0):
            raise PreconditionError("theta must be in (0, 1]")
        self.fs = fs
        self.theta = theta
        self.budget = resolve_node_budget(node_budget)
        self.visited = 0
        self._sums: list[tuple[LogReal, int]] = []  # (S_k, words) for k = 1..depth walked

    def partition(self, n: int) -> PartitionSum:
        if n < 1:
            raise PreconditionError("depth must be >= 1")
        if n > len(self._sums):
            tallies: list[dict] = [{} for _ in range(n)]  # per length: lift count -> words
            for word, vec in _prefix_words(self.fs, n):
                self.visited += 1
                if self.visited > self.budget:
                    raise ResourceError(
                        f"node budget exceeded ({self.budget} nodes) at word length "
                        f"{len(word)} of {n}; use collapsed mode, raise the budget, "
                        f"or lower the depth"
                    )
                tally, c = tallies[len(word) - 1], sum(vec)
                tally[c] = tally.get(c, 0) + 1
            theta, log = self.theta, math.log
            self._sums = [
                (_summed([theta * log(c) + log(m) for c, m in t.items()], 0.0), sum(t.values()))
                for t in tallies
            ]
        value, words = self._sums[n - 1]
        return PartitionSum(n, value, words, self.visited, 0)

    def series(self, n_max: int) -> list[PartitionSum]:
        """S_1 .. S_{n_max} off one walk to n_max."""
        self.partition(n_max)
        return [self.partition(n) for n in range(1, n_max + 1)]


ENGINES = {"collapsed": CollapsedEngine, "exact": ExactEngine}


def make_engine(
    fs: FactorSystem, theta: float, mode: str, node_budget: Optional[int] = None
) -> CollapsedEngine | ExactEngine:
    """The engine of ``mode``, a key of ``ENGINES``, for the system at theta."""
    if mode not in ENGINES:
        raise PreconditionError(f"unknown mode {mode!r}")
    return ENGINES[mode](fs, theta, node_budget)


def partition_sum(
    fs: FactorSystem, n: int, theta: float, mode: str = "collapsed", node_budget: Optional[int] = None
) -> PartitionSum:
    """S_n = sum of count(w)^theta over occurring image words of length n,
    from a fresh engine of ``mode``: ``"exact"`` walks the full pruned
    prefix tree, ``"collapsed"`` sweeps it merging states and agrees with
    exact up to its tracked rounding error.  Exceeding the node budget
    raises ResourceError rather than truncating."""
    return make_engine(fs, theta, mode, node_budget).partition(n)


def partition_series(engine, n_max: int) -> list[PartitionSum]:
    """S_1 .. S_{n_max} from one pass of the engine: the collapsed sweep
    level by level, the exact walk once to n_max."""
    if n_max < 1:
        raise PreconditionError("depth must be >= 1")
    return engine.series(n_max)


def viable_sets(fs: FactorSystem, point: EventuallyPeriodicPoint, upto: int) -> list[set[int]]:
    """Viable lift symbols at positions 0..upto-1 of the point.

    A symbol is viable at position i when some infinite lift of the tail
    from position i starts there.  One rule gives the sets: a symbol of
    a letter's fiber is viable when it has a viable successor at the
    next position, and an unknown letter has an empty fiber.  Around the
    cycle the rule runs from the full fibers to its greatest fixed
    point, then once back through the preperiod.  Empty set at position
    0 means the point is not in the image subshift.
    """
    if upto < 1:
        raise PreconditionError("need at least one position")
    idx = fs.image_index
    succ = fs.source.successor_sets

    def back(symbols, nxt: set[int]) -> set[int]:
        return {x for x in symbols if any(y in nxt for y in succ[x])}

    def fiber(letter: str) -> set[int]:
        return set(fs.fibers[idx[letter]]) if letter in idx else set()

    q = len(point.cycle)
    cycle, before = [fiber(letter) for letter in point.cycle], None
    while cycle != before:
        before = cycle[:]
        for j in reversed(range(q)):
            cycle[j] = back(cycle[j], cycle[(j + 1) % q])
    sets = [cycle[0]]
    for letter in reversed(point.preperiod):
        sets.append(back(fiber(letter), sets[-1]))
    return (sets[:0:-1] + cycle * (upto // q + 1))[:upto]


def is_image_point(fs: FactorSystem, point: EventuallyPeriodicPoint) -> bool:
    """Whether the point lies in the image subshift (has an infinite lift)."""
    return bool(viable_sets(fs, point, 1)[0])


def dn_count(fs: FactorSystem, point: EventuallyPeriodicPoint, n: int) -> int:
    """Number of length-n lift prefixes that extend to full lifts of the point.

    Counts source words x_1..x_n in the fibers of the first n letters
    whose last symbol is tail-viable; every such word is the prefix of an
    infinite lift, and conversely.  A viable x_n makes every earlier
    symbol viable, so the count sums the head's lift count vector over
    the last fiber's viable symbols; unknown letters count 0.
    """
    if n < 1:
        raise PreconditionError("depth must be >= 1")
    end = _lifts(fs, point.head(n))
    viable = viable_sets(fs, point, n)[n - 1]
    return sum(c for x, c in zip(fs.fibers[end[0]], end[1]) if x in viable) if end else 0
