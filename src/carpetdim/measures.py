"""Finite-depth cylinder measures and the scans built on them.

The depth-l partition measure weights each image word u of length l by
count(u)^theta / S_l.  Everything here is a finite, exactly-defined
marginal or average of that measure: no sampling, no truncation of the
defining sums.  Masses come from the counting engine's sweep with its
levels kept: a mass sums count^theta over word extensions, which is
the suffix sum of the word's state times g^theta, g being the gcd
taken out of the word's count vector.  A word's state and g^theta come
from a walk along the engine's kept child lists, whose edges carry
theta log g.  So the measure functions take a ``CollapsedEngine``,
which fixes the system, theta and the node budget, and several of them
given one engine read the levels it holds without sweeping again; an
``ExactEngine`` holds no levels and raises PreconditionError.

The result records are ``NamedTuple``s, so each compares equal to a
plain tuple of its fields.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Optional

from .counting import (
    _EPS,
    CollapsedEngine,
    LogReal,
    _advance,
    _log_sum_exp,
    resolve_node_budget,
)
from .errors import NonMixingError, PreconditionError, ResourceError
from .pressure import (
    PressureEstimate,
    mixing_index,
    pressure_interval,
    superadditive_constants,  # not called here; perfbench/tracing.py patches this name
)
from .sft import FactorSystem, Sft, singleton_clumps, validate_sft

__all__ = [
    "CylinderDistribution",
    "GibbsEnvelope",
    "AdditivityScanReport",
    "UniquenessReport",
    "DEFAULT_REFUTATION_THRESHOLD",
    "nu_marginal",
    "gibbs_scan",
    "cesaro_average",
    "cesaro_defect",
    "additivity_scan",
    "uniqueness_report",
]

DEFAULT_REFUTATION_THRESHOLD = 0.01


class CylinderDistribution(NamedTuple):
    """A probability assignment to depth-n image cylinders.

    ``kind`` records the construction: ``nu_l_marginal`` for the depth-n
    marginal of the level-``level`` partition measure, ``cesaro`` for a
    finite Cesaro average of its shifts.  Masses always sum to 1 up to
    rounding, which the test suite asserts at 1e-10.
    """

    depth: int
    kind: str
    masses: dict[tuple[str, ...], float]
    level: int

    def total(self) -> float:
        return sum(self.masses.values())

    def mass(self, word: tuple[str, ...]) -> float:
        return self.masses.get(tuple(word), 0.0)


class GibbsEnvelope(NamedTuple):
    """Observed cylinder-mass ratios against their theoretical envelope.

    The scanned ratio is mass(w) * e^(n P) / count(w)^theta with the
    upper pressure bound standing in for P, so full-shift systems come
    out at exactly 1 up to rounding.  The envelope ends are
    C1 = e^(-(M-1) P_hi) / K_tilde and C2 = K_tilde e^(n_max (P_hi - P_lo)),
    padded outward for rounding; ``gibbs_scan`` derives them.
    """

    C1_lower: float
    C2_upper: float
    min_ratio: float
    max_ratio: float
    pressure_interval_used: PressureEstimate
    level: int
    n_max: int

    @property
    def contained(self) -> bool:
        return self.C1_lower <= self.min_ratio and self.max_ratio <= self.C2_upper


class AdditivityScanReport(NamedTuple):
    """Concatenation-ratio extremes count(uv) / (count(u) count(v)).

    ``min_trend[k-1]`` is the minimum ratio over all pairs with both
    factor lengths at most k, so the series is nonincreasing by
    construction; a genuine almost-additivity failure shows up as a
    strictly decreasing tail heading under the threshold.  ``witness``
    is a concrete pair attaining ``min_ratio``.
    """

    max_len: int
    min_ratio: float
    max_ratio: float
    min_trend: tuple[float, ...]
    verdict: str
    witness: Optional[tuple[tuple[str, ...], tuple[str, ...]]]
    threshold: float


class UniquenessReport(NamedTuple):
    """Verdict record for uniqueness of the full-dimension measure."""

    singleton_clump: bool
    clump_letters: tuple[str, ...]
    almost_additive_evidence: str
    conclusion: str


def nu_marginal(engine: CollapsedEngine, level: int, depth: int) -> CylinderDistribution:
    """Depth-``depth`` marginal of the level-``level`` partition measure
    of the engine's system at its theta.

    mass(w) = sum over length-``level`` words u extending w of
    count(u)^theta, divided by S_level.  The inner sum is the suffix
    sum of w's state from one backward pass over the kept levels, so
    the marginal at any depth costs little more than S_level itself.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if level < depth:
        raise PreconditionError("level must be >= depth")
    masses = {w: m for w, m in _shift_masses(engine, level, depth, [0])[0].items() if m > 0.0}
    return CylinderDistribution(depth=depth, kind="nu_l_marginal", masses=masses, level=level)


def gibbs_scan(engine: CollapsedEngine, level: int, n_max: int) -> GibbsEnvelope:
    """Scan mass-versus-count ratios on all cylinders of length <= n_max
    under the level measure of the engine's system at its theta.

    For each occurring word w of length n the observed ratio is
    r(w) = mass_L(w) * e^(n P_hi) / count(w)^theta, L being ``level``
    and [P_lo, P_hi] the pressure bracket at depth L.  The gcd of w's
    count vector cancels, so the scan runs over the states of the
    sweep, not over words.  The envelope follows from
    S_a S_b <= K_tilde S_{a+b} (see ``SuperadditiveConstants``):

    - upper: mass_L(w) S_L <= count(w)^theta S_{L-n} by
      submultiplicativity, S_{L-n} S_n <= K_tilde S_L, and
      S_n >= e^(n P) by subadditivity, so
      r(w) <= C2 = K_tilde e^(n_max (P_hi - P_lo)).
    - lower: joining w to any word of length L-n-M+1 through M-1
      symbols gives count(w)^theta S_{L-n-M+1} <= mass_L(w) S_L; with
      S_L <= S_{L-n-M+1} S_{n+M-1} and S_k <= K_tilde e^(k P) (Fekete),
      r(w) >= C1 = e^(-(M-1) P_hi) / K_tilde.

    Both ends are then padded outward by the tracked log errors of the
    scanned suffix sums, of S_L, of the ratio's own float arithmetic and
    of the constants.  Requires a mixing source and level > n_max + M,
    so every suffix crosses a mixing window.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    M = mixing_index(engine.fs)
    if level <= n_max + M:
        raise PreconditionError(f"level must exceed n_max + mixing index = {n_max + M}")
    # levels first, then the backward pass, whose seed comes from the
    # read of S_L; S_{M-1} and S_L are then read without a sweep
    _held_levels(engine, level - 1)
    back, errs = engine.backward(level)
    estimate = pressure_interval(engine, level)
    constants = estimate.constants
    total = engine.partition(level).value
    theta = engine.theta
    p_hi, p_lo = estimate.upper, estimate.lower
    log = math.log
    lo, hi = math.inf, -math.inf
    slack = 0.0
    for n, (sums, err) in enumerate(zip(back[:n_max], errs), 1):
        # r = sub - log S_L - theta log(sum of vector) + n p_hi
        scale = n * p_hi
        big = 0.0
        # Sft rejects stranded symbols, so every state has a child and
        # every suffix sum is finite
        for (_, prim), sub in sums.items():
            x = theta * log(sum(prim))
            r = sub - total.log - x + scale
            if r < lo:
                lo = r
            if r > hi:
                hi = r
            if sub + x > big:
                big = sub + x
        # x rounds by 1.5 eps x, n p_hi by eps/2 |scale| and each of the
        # three adds by eps/2 (big + |log S_L| + |scale|)
        bound = err + total.err + _EPS * (3.0 * big + 2.0 * abs(total.log) + 2.0 * abs(scale) + 1.0)
        slack = max(slack, bound)
    log_k, k_err = constants.log_K_tilde, constants.rounding_bound
    c1 = _scaled(-log_k, k_err, -(constants.M - 1) * p_hi)
    c2 = _scaled(log_k, k_err, n_max * (p_hi - p_lo))
    return GibbsEnvelope(
        C1_lower=math.exp(c1.log - _pad(c1, slack)),
        C2_upper=math.exp(c2.log + _pad(c2, slack)),
        min_ratio=math.exp(lo),
        max_ratio=math.exp(hi),
        pressure_interval_used=estimate,
        level=level,
        n_max=n_max,
    )


def _scaled(log: float, err: float, dlog: float) -> LogReal:
    # e^log off by err times e^dlog, charging for dlog's own rounding
    out = log + dlog
    return LogReal(out, err + _EPS * (3.0 * abs(dlog) + abs(out) + 1.0))


def _pad(end: LogReal, slack: float) -> float:
    # an envelope end's outward log padding: its tracked error, the
    # ratios' (slack), and the rounding of the padded sum and of the
    # exponentials of the end and of a ratio
    return end.err + slack + _EPS * (abs(end.log) + 3.0)


def _held_levels(engine, depth: int) -> list[dict]:
    # the held levels 1..depth that masses read; an exact walk holds none
    if not isinstance(engine, CollapsedEngine):
        raise PreconditionError("cylinder masses read held levels, which only a CollapsedEngine keeps")
    return engine.levels(depth)


def _shift_masses(eng, level, probe_depth, positions):
    # masses[i][word] for each requested shift position i.  Paths over
    # the kept child lists start at the states of level i, whose last
    # letter comes just before the word (at i = 0, at level 1, the first
    # letters), and end in the word; a path's term adds its start's log
    # weight to the suffix sum where it ends plus its gcd factors.
    # Starting at level i, not i + 1, keeps the merged weights of level
    # i + 1 out of the terms: a mass is one log-sum-exp of unmerged ones.
    # Level L = ``level`` is not built: a word that ends there takes its
    # last letter through the row sums, as S_L is read, its term then
    # being the path's plus theta log x, even if level L is held; the
    # (letter, theta log x) pairs are taken once per end state.  The
    # paths built count against the node budget with the nodes visited.
    levels = _held_levels(eng, max(level - 1, 1))
    back, _ = eng.backward(level)  # reads S_L with the seed
    total = eng.partition(level).value
    edges, names, rows, theta = eng.edges, eng.fs.image_alphabet, eng.fs.fiber_row_sums, eng.theta
    log = math.log
    tails: dict[tuple, list[tuple[int, float]]] = {}  # end state at level L - 1 -> its pairs
    out: dict[int, dict[tuple[str, ...], float]] = {}
    room, built = eng.budget - eng.visited, 0
    for i in positions:
        start = max(i - 1, 0)
        depth = i + probe_depth  # the level the word ends at
        last = 1 < depth == level  # level L; at level 1 the suffix sums are held
        terms: dict[tuple[int, ...], list[float]] = {}
        for state, (lw, _) in levels[start].items():
            paths = [((state[0],), state, 0.0)]
            for length in range(2, depth - start + 1 - last):
                paths = [(word + (key[0],), key, t + d) for word, s, t in paths for key, d in edges[s]]
                built += len(paths)
                if built > room:
                    raise ResourceError(
                        f"node budget exceeded ({eng.budget} nodes) building paths of word "
                        f"length {length} of {depth - start} for the masses at position {i}; "
                        f"lower the probe depth or raise the budget"
                    )
            for word, end, t in paths:
                if last:
                    tail = tails.get(end)
                    if tail is None:
                        tail = tails[end] = []
                        for b, r in rows[end[0]]:
                            x = sum(map(mul, end[1], r))
                            if x:
                                tail.append((b, theta * log(x)))
                    for b, y in tail:
                        terms.setdefault((word + (b,))[-probe_depth:], []).append(lw + (t + y))
                else:
                    terms.setdefault(word[-probe_depth:], []).append(lw + (back[depth - 1][end] + t))
        out[i] = {
            tuple(names[b] for b in word): math.exp(_log_sum_exp(ts) - total.log)
            for word, ts in terms.items()
        }
    return out


def _cesaro_tables(engine, level, n_terms, probe_depth, positions):
    # the shift masses an n_terms-term Cesaro average reads at positions
    if n_terms < 1:
        raise PreconditionError("n_terms must be >= 1")
    if probe_depth < 1:
        raise PreconditionError("probe depth must be >= 1")
    if level < n_terms + probe_depth:
        raise PreconditionError("level must be >= n_terms + probe_depth")
    return _shift_masses(engine, level, probe_depth, positions)


def cesaro_average(engine: CollapsedEngine, level: int, n_terms: int, probe_depth: int) -> CylinderDistribution:
    """Average of the first ``n_terms`` shifts of the level measure.

    masses(w) = (1/N) * sum over i < N of the mass the level measure
    gives to the event "w occurs at position i".  Each term is a full
    probability distribution over depth-``probe_depth`` words, so the
    average is one as well.
    """
    tables = _cesaro_tables(engine, level, n_terms, probe_depth, range(n_terms))
    masses: dict[tuple[str, ...], float] = {}
    for i in range(n_terms):
        for word, m in tables[i].items():
            masses[word] = masses.get(word, 0.0) + m
    masses = {w: m / n_terms for w, m in masses.items()}
    return CylinderDistribution(
        depth=probe_depth, kind="cesaro", masses=masses, level=level
    )


def cesaro_defect(engine: CollapsedEngine, level: int, n_terms: int, probe_depth: int) -> float:
    """Shift-invariance defect of the ``n_terms``-term Cesaro average.

    The average telescopes: applying one shift changes it by
    (mass at position N - mass at position 0) / N, so the defect is the
    maximum of that difference over all probed words.  It can never
    exceed 2/N and shrinks as the averages converge toward an invariant
    measure.
    """
    tables = _cesaro_tables(engine, level, n_terms, probe_depth, [0, n_terms])
    first = tables[0]
    last = tables[n_terms]
    words = set(first) | set(last)
    worst = 0.0
    for w in words:
        worst = max(worst, abs(last.get(w, 0.0) - first.get(w, 0.0)))
    return worst / n_terms


def _representative(edges: dict, levels: list[dict], key) -> list[int]:
    # The first word of a state in sweep order: its parent is the first
    # state of the level above, in insertion order, whose kept child
    # list holds it.
    word = [key[0]]
    for level in reversed(levels):
        key = next(s for s in level if any(k == key for k, _ in edges[s]))
        word.append(key[0])
    return word[::-1]


def _first_seen(levels: list[dict]) -> list[list]:
    # the states of each level that no shallower level holds
    seen: set = set()
    out = []
    for level in levels:
        fresh = [s for s in level if s not in seen]
        seen.update(fresh)
        out.append(fresh)
    return out


def _first_pair(fs: FactorSystem, u_key, v_level: list, low: float):
    # the first start of the block (u, v_level) in sweep order whose
    # ratio is the block's minimum ``low``, as the scan computes it
    a, u_dir = u_key
    u_count = sum(u_dir)
    for b, v_dir in v_level:
        cols = fs.fiber_supports[a].get(b)
        num = sum(map(mul, _advance(u_dir, cols), v_dir)) if cols else 0
        if num and num / (u_count * sum(v_dir)) == low:
            return b, v_dir


def additivity_scan(
    fs: FactorSystem,
    max_len: int,
    threshold: float = DEFAULT_REFUTATION_THRESHOLD,
    node_budget: Optional[int] = None,
) -> AdditivityScanReport:
    """Extremes of count(uv) / (count(u) count(v)) over short words.

    Pairs range over occurring words u, v with lengths up to ``max_len``
    whose concatenation also occurs.  The ratio only depends on the
    direction of u's ending count vector and of v's starting count
    vector, so the scan runs over the states of two sweeps: of the
    source for the ending vectors, of the transposed source for the
    starting ones.  This makes it polynomial in the number of distinct
    directions instead of the number of words; the witness words are
    the first words of their states in sweep order.  A state that
    recurs at a deeper level gives the same ratios under a larger
    length cap, which the running minimum of ``min_trend`` already
    covers, so each state is scanned at its first level only (for a
    full shift, level 1 only) and the budget is charged for the pairs
    scanned, each end state against every start level in turn, so an
    overrun names the lengths of the block that crossed it.

    The scan goes column by column.  The start states are grouped once
    by first letter, each group holding one column per symbol of the
    letter's fiber, the states' counts and each level's slice.  For an
    end state and a letter, the numerators count(uv) over the gcds are
    the row of u's vector through the fiber block times those columns,
    summed column by column; the ratio of each pair is then
    num / (count(u) count(v)) as an exact integer division, each level's
    minimum is taken over its slice and the maximum over the group at
    once.  The witness block is the first (u, v level) in scan order
    that attains the minimum, and its pair the block's first one in
    sweep order, found by rescanning that block alone.

    The ratio never exceeds 1 (counts are submultiplicative).  The
    verdict is ``refuted-up-to-{max_len}`` when the minimum falls under
    ``threshold`` along a strictly decreasing stretch of at least four
    trend entries, with the witness pair stored; otherwise
    ``consistent-with-almost-additive``.  A ``threshold`` that is not
    finite raises PreconditionError: the report must carry it as a
    JSON number.
    """
    if max_len < 1:
        raise PreconditionError("max_len must be >= 1")
    if not math.isfinite(threshold):
        raise PreconditionError("threshold must be finite")
    budget = resolve_node_budget(node_budget)
    # ends: (last letter, direction of the ending count vector);
    # starts: (first letter, direction of the starting count vector),
    # from the transposed source, whose sweep reads words right to left
    rev = FactorSystem(Sft(fs.source.symbols, tuple(zip(*fs.source.matrix))), fs.letter_map)
    front, back = CollapsedEngine(fs, 1.0, budget), CollapsedEngine(rev, 1.0, budget)
    ends = front.levels(max_len)
    back.visited = front.visited  # one budget for both sweeps and the pairs
    starts = back.levels(max_len)
    work = back.visited
    supports = fs.fiber_supports

    # each state only at the first level that holds it: a later copy
    # repeats its ratios under a larger cap
    new_ends = _first_seen(ends)
    new_starts = _first_seen(starts)
    n_starts = sum(map(len, new_starts))
    # the starts by first letter, in scan order: letter b -> (one column
    # per symbol of b's fiber, the starts' counts, (jv, lo, hi) for each
    # level jv that holds starts[lo:hi])
    groups: dict = {}
    for jv, v_level in enumerate(new_starts, 1):
        for b, v_dir in v_level:
            dirs, counts, slices = groups.setdefault(b, ([], [], []))
            if not slices or slices[-1][0] != jv:
                slices.append([jv, len(dirs), len(dirs)])
            dirs.append(v_dir)
            counts.append(sum(v_dir))
            slices[-1][2] += 1
    groups = {b: (list(zip(*dirs)), counts, slices) for b, (dirs, counts, slices) in groups.items()}

    min_ratio = math.inf
    max_ratio = -math.inf
    best = None
    cap_min = [math.inf] * (max_len + 1)
    for ju, u_level in enumerate(new_ends, 1):
        for a, u_dir in u_level:
            if work + n_starts > budget:
                for jv, v_level in enumerate(new_starts, 1):
                    work += len(v_level)
                    if work > budget:
                        raise ResourceError(
                            f"node budget exceeded ({budget} nodes) scanning ends of "
                            f"length {ju} against starts of length {jv}, max_len {max_len}; "
                            f"lower max_len or raise the budget"
                        )
            work += n_starts
            u_count = sum(u_dir)
            lows = [math.inf] * (max_len + 1)  # the minimum of each block (u, jv)
            for b, cols in supports[a].items():
                # level 1 of the transposed sweep holds every letter, so
                # every letter has a group
                v_cols, v_counts, slices = groups[b]
                # count(uv) over the gcds for every start v of letter b,
                # one column of the starts per symbol of b's fiber
                nums = None
                for c, col in zip(_advance(u_dir, cols), v_cols):
                    if not c:
                        continue
                    if nums is None:
                        nums = col if c == 1 else [c * x for x in col]
                    else:
                        nums = [n + c * x for n, x in zip(nums, col)]
                if nums is None:
                    continue
                ratios = [n / (u_count * v) for n, v in zip(nums, v_counts)]
                low_of = high_of = ratios
                if 0 in nums:  # a concatenation that does not occur is no pair
                    low_of = [r if n else math.inf for r, n in zip(ratios, nums)]
                    high_of = [r if n else -math.inf for r, n in zip(ratios, nums)]
                high = max(high_of)
                if high > max_ratio:
                    max_ratio = high
                for jv, lo, hi in slices:
                    low = min(low_of[lo:hi])
                    if low < lows[jv]:
                        lows[jv] = low
            for jv in range(1, max_len + 1):
                low = lows[jv]
                cap = max(ju, jv)
                if low < cap_min[cap]:
                    cap_min[cap] = low
                if low < min_ratio:
                    min_ratio = low
                    best = (ju, (a, u_dir), jv)
    witness = None
    if best is not None:
        ju, u_key, jv = best
        v_key = _first_pair(fs, u_key, new_starts[jv - 1], min_ratio)
        names = fs.image_alphabet
        u = _representative(front.edges, ends[: ju - 1], u_key)
        v = _representative(back.edges, starts[: jv - 1], v_key)[::-1]
        witness = (tuple(names[b] for b in u), tuple(names[b] for b in v))
    trend = []
    running = math.inf
    for cap in range(1, max_len + 1):
        running = min(running, cap_min[cap])
        trend.append(running)
    refuted = (
        min_ratio < threshold
        and _strictly_decreasing_run(trend, 4)
        and witness is not None
    )
    verdict = f"refuted-up-to-{max_len}" if refuted else "consistent-with-almost-additive"
    return AdditivityScanReport(
        max_len=max_len,
        min_ratio=min_ratio,
        max_ratio=max_ratio,
        min_trend=tuple(trend),
        verdict=verdict,
        witness=witness,
        threshold=threshold,
    )


def _strictly_decreasing_run(seq, length):
    run = 1
    for i in range(1, len(seq)):
        run = run + 1 if seq[i] < seq[i - 1] else 1
        if run >= length:
            return True
    return False


def uniqueness_report(fs: FactorSystem, scan: AdditivityScanReport) -> UniquenessReport:
    """Assemble the uniqueness verdict for the full-dimension measure.

    A singleton clump settles the question outright.  Failing that, a
    scan consistent with almost additivity supports (but does not prove)
    uniqueness through the Gibbs route.  Otherwise only uniqueness of
    the image-side equilibrium state survives, and nothing is claimed
    about its lifts.
    """
    report = validate_sft(fs.source)
    if not report.mixing:
        raise NonMixingError("uniqueness verdicts require a mixing source shift")
    clumps = tuple(singleton_clumps(fs))
    if clumps:
        conclusion = "unique-full-dimension-measure"
    elif scan.verdict == "consistent-with-almost-additive":
        conclusion = "unique-conditional-on-almost-additivity"
    else:
        conclusion = "image-uniqueness-only"
    return UniquenessReport(
        singleton_clump=bool(clumps),
        clump_letters=clumps,
        almost_additive_evidence=scan.verdict,
        conclusion=conclusion,
    )
