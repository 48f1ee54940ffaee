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
gcd-normalized count vector); a backward pass over the kept levels,
seeded by a join, gives the suffix sums that cylinder masses need, on
either side of the join.
The deepest level is never built.  Lift counts join exactly at any
cut: a word u ending in letter a and a word w starting with it
overlap in one word of count end_u . start_w.  So an engine built
with ``join``, as ``make_engine`` builds it, reads S_n by pairing a
level k of the sweep with a level j of the same sweep over the
transposed source, k + j = n + 1; the row sums of the fiber blocks
are its level 2, and with them S_n and the last suffix sums are read
off level n - 1.

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


def _summed(terms: list[float], err: float, rate: float = 4.0, add: float = 2.0) -> LogReal:
    """The log-sum-exp S of logs >= 0 that are off by ``err`` before their
    last log-times-theta and add, charged eps (rate S + add) as derived
    in ``CollapsedEngine``: eps (4 S + 2) for terms lw + theta log x,
    eps (6.5 S + 4) for a joined read's lw_u + seed_u."""
    out = _log_sum_exp(terms)
    return LogReal(out, err + _EPS * (rate * out + add))


def _dots(vec: tuple[int, ...], cols) -> Optional[list]:
    """The dot products of ``vec`` with vectors given column by column,
    ``cols[i]`` holding coordinate i of each; None for a zero ``vec``.
    Every junction pairing, the joined read of S_n, its mirrored pass
    and ``measures.additivity_scan``, takes its counts here."""
    out = None
    for c, col in zip(vec, cols):
        if c:
            if out is None:
                out = col if c == 1 else [c * x for x in col]
            else:
                out = [y + c * x for y, x in zip(out, col)]
    return out


def _by_letter(level: dict, letters: int) -> list:
    """The states of ``level`` grouped by letter, for ``_dots``: per
    letter, one column per fiber symbol, and the states' log weights and
    words in the same order."""
    groups: list = [([], [], []) for _ in range(letters)]
    for (a, prim), (lw, m) in level.items():
        prims, lws, ms = groups[a]
        prims.append(prim)
        lws.append(lw)
        ms.append(m)
    return [(tuple(zip(*prims)), lws, ms) for prims, lws, ms in groups]


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


class _OverBudget(ResourceError):
    """The node budget ran out while building ``level`` on the way to
    ``depth`` with ``held`` states held; ``backward`` is the backward
    level of a join, which the message then names too, and ``pairs``, if
    any, the pairs a read of S_depth took before it stopped."""

    def __init__(self, budget: int, level: int, depth: int, held: int, backward: Optional[int] = None, pairs: int = 0):
        where = f"level {level}" if backward is None else f"level {level} and backward level {backward}"
        read = f" and {pairs} pairs read" if pairs else ""
        super().__init__(
            f"node budget exceeded ({budget} nodes) at {where} of {depth} "
            f"with {held} states held{read}; raise the budget or lower the depth"
        )
        self.level, self.held = level, held


class CollapsedEngine:
    """Level-synchronous sweep over the collapsed prefix tree.

    A state of level k, (last letter, gcd-normalized count vector),
    stands for the image words of length k that end in it, and carries
    (log weight, words): the log of the sum of gcd^theta over them, as
    a bare float, and their number.  So S_k sums e^(log weight) *
    (sum of vector)^theta over level k.  A step merges children by key,
    which is exact because extensions of proportional vectors have
    proportional counts.

    Level n is never built to read S_n; it is a join.  A forward state
    u = (a, prim_u) of level k stands for words ending in letter a, and
    a backward state w = (a, prim_w) of level j of the sweep over
    ``fs.transposed`` for words starting with it, read right to left.
    Their overlap on a has count g_u g_w x with x = prim_u . prim_w, so
    S_n, n = k + j - 1, is the sum over letters a and over such pairs
    with x > 0 of e^(lw_u + lw_w) x^theta, and the words of length n
    number the sum of m_u m_w over those pairs.  B_2, the backward level
    2, is the row-sum table (``fiber_row_sums``): each row r of block
    (a, b) is a state of log weight 0.0 and one word, as a state
    (a, prim) of level n - 1 extends by letter b to a vector that sums
    to prim . r.  S_1 comes from the fiber sizes.

    One reader, ``_read_sum``, takes every S_n from the split (k, j)
    that ``_walk`` holds, with one set of sums and one epilogue, and one
    inner loop for each kind of start level, picked by j.  B_2 has a few
    rows per letter, so a state takes them row by row, with no gcd, key
    or merge, one term per pair.  A swept level j > 2 has many starts
    per letter, so they are grouped by first letter, one column per
    fiber symbol, and a state takes their counts column by column
    (``_dots``) and folds its pairs into one log-sum-exp, its seed; the
    sum keeps one term per state, so its memory follows the states held
    and not the pairs.  Each loop is the faster one on its own side, so
    neither is folded into the other.

    The split.  Every read of S_n, n >= 2, is a start, then ``_walk``,
    then ``_read_sum``.  ``_walk`` alone picks the split: it moves (k, j)
    from the start to k + j = n + 1 one move at a time, each advancing
    the side whose level has fewer states, ties forward, whatever the
    engine holds, and holds both levels; the reader neither sweeps nor
    walks.  The caller names one of three starts:

    - (1, 2) for ``partition`` built with ``join``, as ``make_engine``
      builds every collapsed engine.  So the split depends on the system
      and n alone, no split is kept between reads, and a partition read
      of S_n does not depend on the partition sums read before it.  A
      forward side no larger than B_2 at every move takes them all, on
      the path of a read off level n - 1, which covers every full shift
      (one state per letter against the letter pairs).  A forward side
      whose key set repeats and that is no larger than the backward
      level takes every move left, so it goes to level n + 1 - j in one
      ``_reach``, which may jump.  The backward side steps a second
      engine, ``_back``, that holds one level here.
    - (n - 1, 2) for ``series``, and for ``partition`` without ``join``,
      the default.  The walk makes no move: it sweeps forward to level
      n - 1, and the read is off that level through B_2.  So a fresh S_n
      visits the states of level 1 and the edges out of levels
      1..n - 1 unless the sweep jumps: the count that
      ``perfbench/carpets.py`` models to fix the work of its picks.
      ``series`` takes this start on a joined engine too: a join's pairs
      serve one sum, and each of S_1 .. S_n would pay its own, more than
      the one forward sweep whose steps reuse the pairs of the reads at
      j = 2.  So a series holds levels 1 .. n - 1 in turn, visits what a
      fresh read off level n - 1 does, and takes no join, nor a jump:
      the s states of a level have at most s^2 edges, fewer than the
      2 s^3 products of a power.  Its S_n agrees with a joined read's
      within both errors and is the same float when that read's split
      stays at j = 2 and it does not jump.
    - (upto, 2) for ``backward(depth, upto)``, the seeded split (below).

    The seeded split.  ``backward(depth, upto)``, with or without
    ``join``, needs suffix sums on levels 1..upto only, so it starts its
    walk at (upto, 2), whatever levels are held, and follows the same
    rule to k + j = depth + 1, keeping every forward level it reaches,
    levels 1..upto among them, whose kept child lists the pass above the
    seed reads, and every level of ``_back``.  It sweeps what is not
    held, so its caller need hold nothing, and its split and its
    ``upto`` lists depend on the system, ``depth`` and ``upto`` alone;
    a second seeded read at that split visits nothing while those
    levels stay held.  The read of S_depth at that split also hands
    over each state u's seed, the log-sum-exp of lw_w + theta log x
    over its pairs: its suffix sum, as the pairs of u are its
    extensions to level depth grouped by their last j letters.
    ``backward``'s ``mirror`` lets the same read serve the backward
    side too: past B_2, a second pass over the same pairs with the
    sides' roles swapped (``_mirror_seeds``) gives each state w of
    backward level j the log-sum-exp of lw_u + theta log x, its suffix
    sum in the sweep over ``fs.transposed``, its pairs being its
    extensions to the left grouped by their first k letters, and the
    pass above the seed runs over ``_back``'s kept child lists.  The
    pairs are those the read charged, so the second pass charges
    nothing, and the read's loop takes no branch for it.  So a mass at
    a late position is read off the backward levels the read holds and
    not off forward levels swept past the split.

    ``visited`` counts the states of level 1 and every nonzero edge, the
    jump's included, of both sweeps, and the pairs read, against one
    budget (``_charge``); a budget message past B_2 names the forward
    and the backward level, and one that stops a read counts the pairs
    it took.  The first read of S_n, whoever asks,
    charges its pairs, unless level n is held and its edges charged; at
    j = 2 the pairs are the edges out of level n - 1, and a step over
    them charges them no more (``_paid``).  So a sum visits its two
    sweeps to its split and its pairs.  ``collapsed_nodes`` counts the
    states both sweeps build, which leaves out the levels a join stands
    in for.

    One kernel, ``_children``, gives a state's children with the log
    factor d = theta * log g that each child's gcd g contributes.  The
    factor is computed once per engine for each g, and is 0.0 for
    g = 1, where no rounding is charged.

    One driver, ``_reach``, sweeps on from the held levels.  ``levels``
    holds every level from 1; ``partition`` holds only the last, the
    forward level of its split, and once a step returns the key set it
    started from, raises that linear map to a power when that costs
    less than stepping.  A walk reads the forward levels it reaches that
    are held without sweeping, and one ``backward`` pass over the levels
    its walk holds gives the suffix sums.
    ``_reach`` picks a step's child source once: while every level is
    held, each state's child list is kept from its first build for as
    long as the levels are held (``edges``), so a state that comes back
    at a deeper level reads it instead of rebuilding it; a sweep that
    drops its levels, and the jump, call the kernel afresh.
    ``backward`` and the cylinder-mass walks of ``measures`` read the
    kept lists and build none, taking a last letter into the level not
    built through the row sums, so the kernel stays the one rule that
    turns a state into its children; the mirrored pass reads
    ``_back``'s lists through ``_kept_children``, which rebuilds those
    that a ``backward`` without ``mirror`` dropped.  Walks along single
    words step exact count vectors with ``_read``.

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

    The read of S_n sums its terms the same way, x being an exact
    integer >= 1, lw_u off by E_F, the error bound of forward level k,
    and lw_w by E_B, that of backward level j.  A state's seed is the
    log-sum-exp of the terms lw_w + theta log x over its pairs, lw_w
    being 0.0 at j = 2.  Every such term is >= 0 and at most its state's
    seed, so at most T, the largest seed.  theta log x rounds by 1.5 eps
    of itself and the add by eps/2 of its result, exact at j = 2, at
    most 2 eps T together; the merge adds eps (2 T + 2), and E_B passes
    through.  So a seed is off by at most E_B + eps (4 T + 2), with
    E_B = 0 at j = 2.  Past B_2 the read sums lw_u + seed_u over the
    states of level k.  lw_u >= 0, so every seed is at most its term and
    T <= S, S >= every term being the log of the sum; the add rounds by
    eps/2 S and the sum adds eps (2 S + 2), with E_F passing through.
    S_n is so off by at most E_F + E_B + eps (6.5 S + 4).  At j = 2 the
    read sums the terms lw + theta log x of each pair instead: theta
    log x rounds by 1.5 eps of itself and the add by eps/2 S, and the
    sum adds eps (2 S + 2), so the read off level n - 1 is off by at
    most E_{n-1} + eps (4 S + 2), one step's charge less than a sum over
    a built level n would be.  B_2 gives each state a few pairs, so
    these terms follow the states too, and folding them as well would
    charge eps (2.5 S + 2) more on every read off level n - 1, the one
    every full shift takes: it widened the full-shift brackets of the
    benchmark by 8.5% in the median and by up to 21%.  The mirrored
    pass's seed of a backward state w, the log-sum-exp of lw_u + theta
    log x over its pairs, is a seed with the sides swapped: its terms
    are >= 0 and at most T, now the largest backward seed, theta log x
    and the add round by at most 2 eps T together, the merge adds
    eps (2 T + 2), and E_F passes through, so it is off by at most
    E_F + eps (4 T + 2).  ``backward`` takes the seeds of its read of
    S_depth, and of the mirrored pass, and charges each level above
    them as a step with merges, D being the largest d of the kept lists
    that level reads.

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

    def __init__(self, fs: FactorSystem, theta: float, node_budget: Optional[int] = None, join: bool = False):
        if not (0.0 < theta <= 1.0):
            raise PreconditionError("theta must be in (0, 1]")
        self.fs = fs
        self.theta = theta
        self.join = join  # read an unheld S_n as a join (class docstring)
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
        self._back: Optional[CollapsedEngine] = None  # the sweep of fs.transposed

    def _charge(self, visited: int, k: int, depth: int, held: int) -> None:
        """Record ``visited``; past the budget, say how far the sweep got:
        the level being built, and ``held``, the states of every level in
        the held store plus the children of level k built so far."""
        self.visited = visited
        if visited > self.budget:
            raise _OverBudget(self.budget, k, depth, held)

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
    def transposed(self) -> Optional[CollapsedEngine]:
        """The engine of the sweep over ``fs.transposed`` that a joined
        read steps for its backward side, read-only; None before the
        first backward move."""
        return self._back

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
        """S_n from the start (1, 2) with ``join``, or (n - 1, 2), a read
        off level n - 1, without it (``_sum``, class docstring)."""
        return self._sum(n, (1, 2) if self.join else (n - 1, 2))

    def _sum(self, n: int, start: tuple[int, int]) -> PartitionSum:
        """S_n and the counters so far: S_n as first read, by ``_read_sum``
        at the split that ``_walk`` reaches from ``start``, or S_1 off the
        fiber sizes; a later call reads what the first stored."""
        if n < 1:
            raise PreconditionError("depth must be >= 1")
        if n not in self._sums:
            if n == 1:
                if not self._held:  # every held store was swept from level 1
                    self._reach(1, False, 1)
                fibers = self.fs.fibers
                self._sums[1] = _summed([self.theta * math.log(len(f)) for f in fibers], 0.0), len(fibers)
            else:
                self._read_sum(n, *self._walk(n, start, False))
        value, words = self._sums[n]
        return PartitionSum(n, value, words, self.visited, self.collapsed_nodes)

    def _read_sum(self, n: int, k: int, j: int, seeds: Optional[dict] = None) -> float:
        """Read S_n and its word count into ``_sums`` at the split (k, j),
        k + j = n + 1, n >= 2, that ``_walk`` reached and holds: forward
        level k, and past B_2 backward level j of ``_back``.  The only
        reader of S_n, with no sweep and no walk.  j picks the inner loop,
        each the faster on its side (class docstring): B_2's rows one by
        one, with one term per pair, or a swept level's starts in columns
        through ``_dots``, folding each state's pairs into its seed, the
        log-sum-exp of lw_w + theta log x over them, for one term
        lw_u + seed per state.
        Given ``seeds``, also map each state of level k to its seed,
        ``backward``'s.  Returns E_B, the error bound of the backward
        level (0.0 for B_2).
        Only a first read, whoever asks, stores the sum and charges its
        pairs, unless level n is held and its edges charged; at j = 2 they
        are ``_paid``, so the step over them charges them no more.  A read
        that the budget stops counts the pairs it took in its message."""
        fresh = n not in self._sums
        theta, log = self.theta, math.log
        held, first = self._held, self._first
        level, err = held[k - first]
        charge = fresh and n >= first + len(held)  # level n is not held
        terms: list[float] = []  # one per pair at j = 2, one per state past it
        words = 0
        visited = before = self.visited
        if j == 2:
            rows = self.fs.fiber_row_sums
            starts, start_err = (), 0.0
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
                        break
        else:
            back = self._back
            starts, start_err = back._held[j - back._first]
            groups = _by_letter(starts, len(self.fs.fibers))
            for (a, prim), (lw, m) in level.items():
                cols, lws, ms = groups[a]
                logs = []  # lw_w + theta log x of the state's pairs
                paired = 0  # the words of their starts
                for x, lw_w, m_w in zip(_dots(prim, cols) or (), lws, ms):
                    if x:
                        logs.append(lw_w + theta * log(x))
                        paired += m_w
                seed = _log_sum_exp(logs)
                if seeds is not None:
                    seeds[a, prim] = seed
                terms.append(lw + seed)
                words += m * paired
                if charge:
                    visited += len(logs)
                    if visited > self.budget:
                        break
        if charge:
            self.visited = visited
            if visited > self.budget:
                in_store = sum(len(h) for h, _ in held) + len(starts)
                if j == 2:
                    raise _OverBudget(self.budget, n, n, in_store, pairs=visited - before)
                raise _OverBudget(self.budget, k, n, in_store, j, visited - before)
            if j == 2:
                self._paid = (k, visited - before)
        if fresh:
            self._sums[n] = _summed(terms, err + start_err, *((4.0, 2.0) if j == 2 else (6.5, 4.0))), words
        return start_err

    def _walk(self, n: int, start: tuple[int, int], keep: bool) -> tuple[int, int]:
        """Walk the split (k, j) from ``start`` to k + j = n + 1, holding
        forward level k and backward level j, and return it: one move at
        a time, each advancing the side with fewer states, ties forward.
        The only code that picks a split, from one of three starts (class
        docstring): (1, 2) for a joined ``partition``, (n - 1, 2) for
        ``series`` and the read without ``join``, where no move is left,
        and (upto, 2) for ``backward``, which so holds levels 1..upto.
        No split is kept between walks, so a split depends on the system,
        n and the start alone.  With ``keep``, as ``backward`` walks,
        every forward level reached stays held (``levels``).  A forward side
        whose key set repeats, and that is no larger, takes every move
        left, so it is reached in one ``_reach``, which may jump unless it
        keeps its levels.  A backward move steps ``_back``, the engine of
        ``fs.transposed``, which holds one level without ``keep`` and
        every level with it and their child lists, against this engine's
        budget, visits and node count.  A budget message past B_2 names
        both levels and counts both sides' states."""
        back, (k, j) = self._back, start
        self._reach(k, keep, n)
        table = sum(map(len, self.fs.fiber_row_sums))  # the states of B_2
        while k + j <= n:
            held, first = self._held, self._first
            starts = len(back._held[j - back._first][0]) if j > 2 else table
            if len(held[k - first][0]) <= starts:
                last = first + len(held) - 1
                target = n + 1 - j if k == last and self._stationary_edges else k + 1
                try:
                    self._reach(target, keep, n)
                except _OverBudget as exc:
                    if j == 2:
                        raise
                    raise _OverBudget(self.budget, exc.level, n, exc.held + starts, j) from None
                k = target
            else:
                if back is None:
                    back = self._back = CollapsedEngine(self.fs.transposed, self.theta, self.budget)
                back.visited, nodes = self.visited, back.collapsed_nodes
                try:
                    back._reach(j + 1, keep, n)
                except _OverBudget as exc:
                    forward = sum(len(h) for h, _ in held)
                    raise _OverBudget(self.budget, k, n, exc.held + forward, exc.level) from None
                finally:
                    self.visited = back.visited
                    self.collapsed_nodes += back.collapsed_nodes - nodes
                j += 1
        return k, j

    def series(self, n_max: int) -> list[PartitionSum]:
        """S_1 .. S_{n_max} off one forward sweep: each S_n is read from
        the start (n - 1, 2), so off level n - 1, held one level at a
        time, and its pairs are the edges of the next step (class
        docstring)."""
        if n_max < 1:
            raise PreconditionError("depth must be >= 1")
        return [self._sum(n, (n - 1, 2)) for n in range(1, n_max + 1)]

    def levels(self, depth: int) -> list[dict]:
        """Levels 1..depth, all held, going on from the levels already
        held; each maps a state (b, primitive vector) to (log weight,
        words)."""
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        self._reach(depth, True, depth)
        return [level for level, _ in self._held[:depth]]

    def backward(self, depth: int, upto: Optional[int] = None, mirror: int = 0) -> tuple:
        """Suffix sums to level ``depth`` over levels 1..``upto``, one pass
        from the seed up, and one error bound per level: exactly ``upto``
        lists of each, upto defaulting to depth - 1; an upto outside
        1..depth - 1, so any depth below 2, raises PreconditionError.
        ``sums[k][s]`` is the float log of the sum of the final
        count^theta over the extensions to level ``depth`` of a prefix in
        state s of level k + 1, the prefix's own gcd factored out;
        ``errs[k]`` bounds the error of every log in ``sums[k]``.

        The seed is the read of S_depth (``_read_sum``) at a split (k, j),
        charged if it is the first, which maps each state of forward level
        k to the log-sum-exp of lw_w + theta log x over its pairs with
        backward level j.  The split is walked from (upto, 2) by
        ``_walk``'s rule, keeping the forward levels it reaches: the walk
        holds levels 1..upto itself, sweeping what is not held, so the
        split and the lists depend on the system, ``depth`` and ``upto``
        alone, not on what the engine held before.  The default's split
        is (depth - 1, 2): level depth - 1 is read with the row sums, and
        level ``depth`` is never built.  The levels above the seed read
        the child lists the forward sweep kept (``_upward``); the sums of
        levels past ``upto`` are dropped.

        A ``mirror`` level lets the one read serve both sides of its
        split: (sums, errs, back, back_errs) is returned, sums and errs
        over the whole forward side, levels 1..k, and, when k < mirror
        and j > 2, back and back_errs the same lists for levels 1..j of
        ``transposed``, seeded by ``_mirror_seeds`` and read through the
        child lists it keeps: ``back[i][w]`` is the float log of the sum
        of the final count^theta over the extensions to the left, to
        length ``depth``, of a word that starts in state w of transposed
        level i + 1, its own gcd factored out.  Else both back lists are
        empty, and ``backward`` drops the transposed sweep's child lists,
        which nothing reads after it."""
        if upto is None:
            upto = depth - 1
        if not 1 <= upto < depth:
            raise PreconditionError(f"backward to level {depth} returns levels 1..upto, upto in 1..{depth - 1}")
        seeds: dict = {}  # from the read of S_depth
        k, j = self._walk(depth, (upto, 2), True)
        err = self._read_sum(depth, k, j, seeds)
        err += _EPS * (4.0 * max(seeds.values(), default=0.0) + 2.0)
        sums, errs = self._upward(k, seeds, err)
        back = self._back
        if k < mirror and j > 2:
            return (sums, errs, *back._upward(j, *self._mirror_seeds(k, j)))
        if back is not None and back._edges:
            back._edges.clear()
        return (sums, errs, [], []) if mirror else (sums[:upto], errs[:upto])

    def _upward(self, n: int, seeds: dict, err: float) -> tuple[list[dict], list[float]]:
        """The suffix sums of held levels 1..n and their bounds, from
        ``seeds``, those of level n, off by ``err``: one loop per level
        above, over the kept child lists (``_kept_children``, which
        rebuilds a list a walk dropped), builds its sums and takes the
        largest log and the largest d of the lists read as it goes, the
        two maxima its step charge needs (class docstring)."""
        children = self._kept_children()
        sums, out, errs = seeds, [seeds], [err]
        for level, _ in reversed(self._held[: n - 1]):
            below, sums, top, top_d = sums, {}, 0.0, 0.0
            for state in level:
                terms = []
                for key, d in children(state):
                    if d > top_d:
                        top_d = d
                    terms.append(below[key] + d)
                t = sums[state] = _log_sum_exp(terms)
                if t > top:
                    top = t
            err += self._step_error(top, True, top_d)
            out.append(sums)
            errs.append(err)
        return out[::-1], errs[::-1]

    def _mirror_seeds(self, k: int, j: int) -> tuple[dict, float]:
        """Each state w of backward level j, j > 2, mapped to its seed, the
        log-sum-exp of lw_u + theta log x over its pairs with forward
        level k, and their bound E_F + eps (4 T + 2) (class docstring).
        The pairs are those the read of S_{k+j-1} took, the sides' roles
        swapped, so nothing is charged."""
        level, err = self._held[k - self._first]
        back = self._back
        groups = _by_letter(level, len(self.fs.fibers))
        theta, log = self.theta, math.log
        seeds = {}
        for a, prim in back._held[j - back._first][0]:
            cols, lws, _ = groups[a]
            seeds[a, prim] = _log_sum_exp(
                [lw + theta * log(x) for x, lw in zip(_dots(prim, cols) or (), lws) if x]
            )
        return seeds, err + _EPS * (4.0 * max(seeds.values(), default=0.0) + 2.0)


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
    """The engine of ``mode``, a key of ``ENGINES``, for the system at
    theta; a collapsed one reads an unheld S_n as a join."""
    if mode not in ENGINES:
        raise PreconditionError(f"unknown mode {mode!r}")
    if mode == "collapsed":
        return CollapsedEngine(fs, theta, node_budget, join=True)
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
