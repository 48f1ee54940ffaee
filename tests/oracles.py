"""Test-side oracles.

Most work from the raw transition matrix and letter map by explicit
enumeration, independently of the library internals, so a bug in the
library's vector recursions or viability fixed points cannot hide in
the oracle as well.  The last three are reference forms of the engine's
read paths, written state by state and pair by pair with one ``fsum``
log-sum-exp: the faster forms must return exactly the same floats.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

from carpetdim.counting import _EPS, CollapsedEngine, _advance, resolve_node_budget
from carpetdim.errors import PreconditionError, ResourceError
from carpetdim.measures import (
    DEFAULT_REFUTATION_THRESHOLD,
    AdditivityScanReport,
    _first_seen,
    _representative,
    _strictly_decreasing_run,
)
from carpetdim.sft import EventuallyPeriodicPoint, FactorSystem, Sft


def fiber_blocks(fs: FactorSystem) -> dict[tuple[int, int], tuple[tuple[int, ...], ...]]:
    """Every block (a, b) of the transition matrix, rows in the fiber of
    a and columns in the fiber of b, dense and keyed in letter order:
    the reference that ``fiber_supports`` and ``fiber_row_sums`` are
    read off in ``fiber_tables_oracle``."""
    A = fs.source.matrix
    return {
        (a, b): tuple(tuple(A[i][j] for j in cols) for i in rows)
        for a, rows in enumerate(fs.fibers)
        for b, cols in enumerate(fs.fibers)
    }


def fiber_tables_oracle(fs: FactorSystem) -> tuple[tuple, tuple]:
    """(``fiber_supports``, ``fiber_row_sums``) rescanned from the dense
    blocks of ``fiber_blocks``: the nonzero blocks in key order, each
    with its column supports and its row sums."""
    blocks = fiber_blocks(fs)
    supports: list[dict] = [{} for _ in fs.fibers]
    for (a, b), block in blocks.items():
        if any(map(any, block)):
            supports[a][b] = tuple(
                tuple(i for i, row in enumerate(block) if row[j]) for j in range(len(block[0]))
            )
    row_sums = tuple(
        tuple((b, tuple(map(sum, blocks[(a, b)]))) for b in found) for a, found in enumerate(supports)
    )
    return tuple(supports), row_sums


def product_count_oracle(fs: FactorSystem, word) -> int:
    """Lift count by brute Cartesian product over the fibers.

    Exponential in the word length; keep words short (<= 6 or so).
    """
    idx = fs.image_index
    if any(letter not in idx for letter in word):
        return 0
    fibers = [fs.fibers[idx[letter]] for letter in word]
    matrix = fs.source.matrix
    total = 0
    for tup in itertools.product(*fibers):
        if all(matrix[tup[i]][tup[i + 1]] for i in range(len(tup) - 1)):
            total += 1
    return total


def extendable_prefix_oracle(
    fs: FactorSystem, point: EventuallyPeriodicPoint, n: int
) -> int:
    """Count length-n lift prefixes extendable to infinite lifts.

    Survival sets ("can lift the next t letters starting here") only
    shrink as t grows, and at a fixed position of the cycle they can
    shrink at most |X| times, so running the survival DP for
    q * |X| + q extra steps past position n makes the sets at positions
    0..n equal to their infinite-horizon limits.  Prefixes are then
    enumerated path by path.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    k = fs.source.alphabet_size
    succ = fs.source.successor_sets
    idx = fs.image_index
    q = len(point.cycle)
    total_len = n + q * k + q + 1

    fibers = []
    for i in range(total_len + 1):
        letter = point.letter(i)
        if letter in idx:
            fibers.append(set(fs.fibers[idx[letter]]))
        else:
            fibers.append(set())

    alive = [set() for _ in range(total_len + 1)]
    alive[total_len] = fibers[total_len]
    for i in range(total_len - 1, -1, -1):
        nxt = alive[i + 1]
        alive[i] = {x for x in fibers[i] if any(y in nxt for y in succ[x])}

    prefixes = set()

    def extend(i, path):
        if i == n:
            prefixes.add(tuple(path))
            return
        for y in succ[path[-1]]:
            if y in alive[i]:
                path.append(y)
                extend(i + 1, path)
                path.pop()

    for x in sorted(alive[0]):
        extend(1, [x])
    return len(prefixes)


def viable_sets_oracle(
    fs: FactorSystem, point: EventuallyPeriodicPoint, upto: int
) -> list[set[int]]:
    """Viable lift symbols at positions 0..upto-1, by bounded path search.

    x is viable at position i when a lift path starting at x at
    position i survives L = r + q * |symbols| + 1 letters, its reachable
    set carried forward letter by letter.  Such a path spends at least
    q * |symbols| + 1 letters in the cycle, so some (symbol, phase) pair
    repeats on it and the loop between the two visits repeats forever:
    an infinite lift.  Conversely an infinite lift survives any length.
    """
    idx = fs.image_index
    succ = fs.source.successor_sets
    span = len(point.preperiod) + len(point.cycle) * fs.source.alphabet_size + 1

    def fiber(i):
        letter = point.letter(i)
        return set(fs.fibers[idx[letter]]) if letter in idx else set()

    def survives(x, i):
        reach = {x}
        for j in range(i + 1, i + span):
            here = fiber(j)
            reach = {y for s in reach for y in succ[s] if y in here}
        return bool(reach)

    return [{x for x in fiber(i) if survives(x, i)} for i in range(upto)]


def structure_oracle(matrix):
    """(irreducible, mixing, mixing index or None, period) of a 0/1
    matrix, from explicit walks and integer matrix powers.

    The period is the gcd of the closed-walk lengths <= k, found by a
    depth-first search over (vertex, walk length) states; every simple
    cycle is such a walk.  The mixing index is the least m <= (k-1)^2 + 1
    with every entry of the integer power A^m positive.
    """
    k = len(matrix)
    period = 0
    reach = []
    for start in range(k):
        seen = set()
        stack = [(start, 0)]
        while stack:
            v, length = stack.pop()
            if (v, length) in seen or length > k:
                continue
            seen.add((v, length))
            if v == start and length:
                period = math.gcd(period, length)
            stack.extend((w, length + 1) for w in range(k) if matrix[v][w])
        reach.append({v for v, length in seen if length})
    irreducible = all(len(r) == k for r in reach)
    power = [row[:] for row in matrix]
    mixing_index = None
    for m in range(1, (k - 1) ** 2 + 2):
        if all(e > 0 for row in power for e in row):
            mixing_index = m
            break
        power = [[sum(power[i][t] * matrix[t][j] for t in range(k)) for j in range(k)]
                 for i in range(k)]
    return irreducible, mixing_index is not None, mixing_index, period


def perron_bracket_oracle(matrix, width=Fraction(1, 2**48), max_steps=2000):
    """An exact bracket (lower, upper) of the spectral radius of a
    nonnegative integer matrix, as two Fractions.

    Each strongly connected component C, found from explicit
    reachability, is irreducible, so C + I is primitive and holds rho(C)
    + 1 in the Collatz-Wielandt bracket [min (w_i / v_i), max (w_i /
    v_i)] of every positive v, w = (C + I)v.  The integer vectors v =
    (C + I)^t 1 stay positive; the steps stop once the bracket is at
    most ``width`` of its upper end, or after ``max_steps``.  The root
    of the matrix is the largest over the components, so the ends are
    the largest lower and the largest upper end, each minus 1.
    """
    k = len(matrix)
    reach = []
    for start in range(k):
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for w in range(k):
                if matrix[v][w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    lower = upper = Fraction(0)
    for comp in {frozenset(j for j in reach[i] if i in reach[j]) for i in range(k)}:
        nodes = sorted(comp)
        shifted = [[matrix[i][j] + (i == j) for j in nodes] for i in nodes]
        v = [1] * len(nodes)
        for _ in range(max_steps):
            w = [sum(map(mul, row, v)) for row in shifted]
            ratios = [Fraction(a, b) for a, b in zip(w, v)]
            lo, hi = min(ratios), max(ratios)
            if hi - lo <= width * hi:
                break
            v = w
        lower, upper = max(lower, lo - 1), max(upper, hi - 1)
    return lower, upper


def leading_minors_positive(matrix, c) -> bool:
    """Whether every leading principal minor of cI - A is positive, for a
    nonnegative matrix A and a rational c.

    Plain Gaussian elimination in Fractions, without pivoting: its k-th
    pivot is the ratio of the k-th to the (k-1)-th leading minor, so
    while the earlier minors are positive, the k-th is positive exactly
    when the k-th pivot is.  By the M-matrix criterion this holds exactly
    when c > rho(A).
    """
    k = len(matrix)
    rows = [[Fraction(c) * (i == j) - Fraction(x) for j, x in enumerate(row)] for i, row in enumerate(matrix)]
    for p in range(k):
        if rows[p][p] <= 0:
            return False
        for i in range(p + 1, k):
            f = rows[i][p] / rows[p][p]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[p])]
    return True


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


def fsum_log_sum_exp(terms):
    """log of the sum of e^t over ``terms`` as one ``fsum`` of
    exponentials in (0, 1] after the largest term, for any number of
    terms; -inf for no finite term."""
    if len(terms) == 1:
        return terms[0]
    hi = max(terms, default=-math.inf)
    if hi == -math.inf:
        return hi
    return hi + math.log(math.fsum([math.exp(t - hi) for t in terms]))


def backward_oracle(engine: CollapsedEngine, depth: int):
    """``CollapsedEngine.backward(depth)`` state by state: the seed from
    each state's vector stepped through its blocks and summed, each
    level above it one comprehension over the kept child lists, and the
    level maxima its error charges need taken in passes of their own.  Reads the held levels and kept
    lists of an engine after ``levels(depth)`` or ``levels(depth - 1)``."""
    held, edges, theta = engine._held, engine.edges, engine.theta
    supports = engine.fs.fiber_supports
    out, errs = [], []
    if depth > 1:
        levels = [level for level, _ in held[: depth - 1]]
        sums = {
            s: fsum_log_sum_exp([
                theta * math.log(x) for cols in supports[s[0]].values() if (x := sum(_advance(s[1], cols)))
            ])
            for s in levels[-1]
        }
        err = _EPS * (4.0 * max(sums.values(), default=0.0) + 2.0)
        out.append(sums)
        errs.append(err)
        for level in reversed(levels[:-1]):
            below = sums
            sums = {s: fsum_log_sum_exp([below[key] + d for key, d in edges[s]]) for s in level}
            top_d = max((d for s in level for _, d in edges[s]), default=0.0)
            err += engine._step_error(max(sums.values(), default=0.0), True, top_d)
            out.append(sums)
            errs.append(err)
        out.reverse()
        errs.reverse()
    if depth <= len(held):
        sums = {s: theta * math.log(sum(s[1])) for s in held[depth - 1][0]}
        out.append(sums)
        errs.append(_EPS * (2.0 * max(sums.values(), default=0.0) + 1.0))
    return out, errs


def additivity_scan_oracle(fs: FactorSystem, max_len: int, threshold=DEFAULT_REFUTATION_THRESHOLD,
                           node_budget=None) -> AdditivityScanReport:
    """``additivity_scan`` pair by pair: for each end state and each
    start level, every start's ratio in turn, the block's first minimum
    kept as the witness candidate.  The same sweeps, budget charges and
    messages, so reports and errors must match exactly."""
    budget = resolve_node_budget(node_budget)
    rev = FactorSystem(Sft(fs.source.symbols, tuple(zip(*fs.source.matrix))), fs.letter_map)
    front, back = CollapsedEngine(fs, 1.0, budget), CollapsedEngine(rev, 1.0, budget)
    ends = front.levels(max_len)
    back.visited = front.visited
    starts = back.levels(max_len)
    work = back.visited
    supports = fs.fiber_supports
    new_ends = _first_seen(ends)
    new_starts = [[(b, v_dir, sum(v_dir)) for b, v_dir in level] for level in _first_seen(starts)]
    min_ratio, max_ratio, best = math.inf, -math.inf, None
    cap_min = [math.inf] * (max_len + 1)
    for ju, u_level in enumerate(new_ends, 1):
        for a, u_dir in u_level:
            rows = {b: _advance(u_dir, cols) for b, cols in supports[a].items()}
            u_count = sum(u_dir)
            for jv, v_level in enumerate(new_starts, 1):
                work += len(v_level)
                if work > budget:
                    raise ResourceError(
                        f"node budget exceeded ({budget} nodes) scanning ends of "
                        f"length {ju} against starts of length {jv}, max_len {max_len}; "
                        f"lower max_len or raise the budget"
                    )
                low, arg = math.inf, None
                for b, v_dir, v_count in v_level:
                    row = rows.get(b)
                    if row is None:
                        continue
                    num = sum(map(mul, row, v_dir))
                    if not num:
                        continue
                    ratio = num / (u_count * v_count)
                    max_ratio = max(max_ratio, ratio)
                    if ratio < low:
                        low, arg = ratio, (b, v_dir)
                cap = max(ju, jv)
                cap_min[cap] = min(cap_min[cap], low)
                if low < min_ratio:
                    min_ratio = low
                    best = (ju, (a, u_dir), jv, arg)
    witness = None
    if best is not None:
        ju, u_key, jv, v_key = best
        names = fs.image_alphabet
        u = _representative(front.edges, ends[: ju - 1], u_key)
        v = _representative(back.edges, starts[: jv - 1], v_key)[::-1]
        witness = (tuple(names[b] for b in u), tuple(names[b] for b in v))
    trend = list(itertools.accumulate(cap_min[1:], min))
    refuted = min_ratio < threshold and _strictly_decreasing_run(trend, 4) and witness is not None
    return AdditivityScanReport(
        max_len=max_len,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        min_trend=tuple(trend),
        verdict=f"refuted-up-to-{max_len}" if refuted else "consistent-with-almost-additive",
        witness=witness,
        threshold=threshold,
    )
