"""Two-sided pressure and Hausdorff-dimension bounds from partition sums.

The sequence log S_n is subadditive, so log S_n / n is an upper bound
for the pressure at every n.  With a topologically mixing source of
mixing index M, the splicing constant K_tilde = S_{M-1} makes
log(S_n / K_tilde) superadditive (proof at ``SuperadditiveConstants``),
so (log S_n - log K_tilde) / n is a valid lower bound at the same n.
Dimension is pressure divided by log m.  The only inexactness is
floating log conversion, and each end is padded by the tracked errors
of the terms it reads: the upper end by that of log S_n, the lower end
by those of log S_n and log K_tilde.

The result records are ``NamedTuple``s, so each compares equal to a
plain tuple of its fields.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Optional, Sequence

from .counting import (
    CollapsedEngine,
    ExactEngine,
    LogReal,
    _read,
    dn_count,
    make_engine,
    partition_series,
)
from .errors import NonMixingError, NotFullShiftError, PreconditionError, ResourceError
from .sft import (
    CarpetSpec,
    EventuallyPeriodicPoint,
    FactorSystem,
    carpet_to_factor,
    validate_sft,
)

__all__ = [
    "SuperadditiveConstants",
    "PressureEstimate",
    "DimensionEstimate",
    "CompensationEstimate",
    "superadditive_constants",
    "pressure_interval",
    "convergence_rows",
    "hausdorff_dimension",
    "mcmullen_closed_form",
    "compensation_at_periodic",
    "perron_eigenvalue",
]


class SuperadditiveConstants(NamedTuple):
    """The splicing constant of the superadditive lower pressure bound.

    M is the mixing index (the least M with A^M > 0) and K_tilde =
    S_{M-1}, with S_0 := 1 so that K_tilde = 1 when M = 1.  K_tilde
    satisfies S_l * S_n <= K_tilde * S_{l+n} for all l, n >= 1:

    1. A^M > 0 joins any lift x of an image word u to any lift y of an
       image word v through M - 1 source symbols z, and x z y determines
       (x, z, y), so count(u) * count(v) <= sum over image words w of
       length M - 1 of count(u w v).
    2. theta <= 1 makes t -> t^theta subadditive: (sum x)^theta <= sum
       x^theta.  Summing (1) to the power theta over u and v, the words
       u w v being distinct, gives S_l * S_n <= S_{l+n+M-1}.
    3. Counts are submultiplicative, count(a b) <= count(a) count(b),
       so S_{l+n+M-1} <= S_{M-1} * S_{l+n}.

    ``log_K_tilde`` is the float log S_{M-1} and ``rounding_bound`` its
    tracked error, both 0 when M = 1.
    """

    M: int
    log_K_tilde: float
    rounding_bound: float


class PressureEstimate(NamedTuple):
    """A bracket [lower, upper] for the pressure, valid at this single n.

    ``words`` counts the occurring image words of length n.
    ``rounding_bound`` is the lower end's pad, the tracked errors of
    log S_n and of log K_tilde together; the upper end is padded by the
    error of log S_n alone.
    """

    n: int
    upper: float
    lower: float
    words: int
    constants: SuperadditiveConstants
    log_Sn: float
    rounding_bound: float


class DimensionEstimate(NamedTuple):
    """Hausdorff-dimension interval for a carpet at depth n."""

    alpha: float
    lower: float
    upper: float
    n: int
    closed_form: Optional[float]
    pressure: Optional[PressureEstimate]
    warnings: tuple[str, ...] = ()


class CompensationEstimate(NamedTuple):
    """A finite evaluation of the relative-pressure function at one point.

    ``spectral`` is the growth rate of lift counts around the periodic
    tail, log rho / q, with rho the upper end of an exact bisection
    bracket at most 2^-54 of its lower end wide (``perron_eigenvalue``),
    so it lies at most log(1 + 2^-54) / q above the true rate, up to the
    one rounding, the log of that exact ratio; ``series`` is the
    finite-depth slope of the extendable-prefix counts.  The two agree
    almost everywhere but not necessarily pointwise, so reports carry
    both and never claim equality.
    """

    point: EventuallyPeriodicPoint
    value: float
    method: str
    depth: Optional[int] = None


def mixing_index(fs: FactorSystem) -> int:
    """The source's mixing index M; NonMixingError if it is not mixing."""
    report = validate_sft(fs.source)
    if not report.mixing:
        raise NonMixingError(
            "source shift is not topologically mixing; "
            "superadditive constants would be unsound"
        )
    return report.mixing_index


def superadditive_constants(engine: CollapsedEngine | ExactEngine) -> SuperadditiveConstants:
    """M and K_tilde = S_{M-1} for the engine's system, whose source
    must be mixing, read off the engine's partition sum S_{M-1} at its
    theta; no sum is read when M = 1."""
    M = mixing_index(engine.fs)
    s_prev = engine.partition(M - 1).value if M > 1 else LogReal(0.0)
    return SuperadditiveConstants(M=M, log_K_tilde=s_prev.log, rounding_bound=s_prev.err)


def pressure_interval(engine: CollapsedEngine | ExactEngine, n: int) -> PressureEstimate:
    """Bracket the pressure of the engine's system at its theta, using
    S_n and the splicing constant, both from the one engine given,
    collapsed or exact.

    upper = log S_n / n holds by subadditivity; lower = (log S_n -
    log K_tilde) / n by Fekete's lemma for the superadditive
    log(S_n / K_tilde).  Each end is padded by the tracked rounding
    errors of the terms it reads: upper = (log S_n + e_n) / n and
    lower = (log S_n - e_n - e_K - log K_tilde) / n, e_n and e_K being
    the errors of log S_n and of log K_tilde.  The constant is read
    before S_n, so a collapsed sweep passes level M - 1 once.
    """
    if n < 1:
        raise PreconditionError("depth must be >= 1")
    return _bracket(engine, n, superadditive_constants(engine))


def _bracket(engine, n: int, constants: SuperadditiveConstants) -> PressureEstimate:
    # pressure_interval's bracket; the caller reads the constants off this engine
    ps = engine.partition(n)
    s_n = ps.value
    pad = s_n.err + constants.rounding_bound
    return PressureEstimate(
        n=n,
        upper=(s_n.log + s_n.err) / n,
        lower=(s_n.log - pad - constants.log_K_tilde) / n,
        words=ps.word_count,
        constants=constants,
        log_Sn=s_n.log,
        rounding_bound=pad,
    )


def mcmullen_closed_form(spec: CarpetSpec) -> float:
    """Closed-form dimension for carpets whose digit shift is full.

    With every transition allowed the lift count of an image word
    factorizes over its letters, and the dimension reduces to
    log_m(sum over rows j of t_j^(log_l m)) with t_j the number of
    selected digits in row j.  The sum runs over the rows that hold a
    digit, in row order, so its cost does not grow with m.

    Rounding.  Take eps = 2^-52, log and pow faithful (within eps,
    relative), a divide and an add correctly rounded (within eps/2), and
    let R be the number of rows summed, t the largest row count and D
    the returned value.  theta = log m / log l rounds by 2.5 eps of
    itself, so t_j^theta moves by 2.5 eps theta log t_j relative, and the
    pow adds eps (a count of 1 gives 1.0 exactly).  The R positive terms
    add within (R - 1) eps/2 of their sum, so the sum T is off by
    a eps relative, a = 1 + 2.5 theta log t + (R - 1)/2.  log T is then
    off by eps |log T| + a eps absolutely, and log m by eps log m; their
    quotient rounds by eps/2 more.  With |log T| / log m = |D| that is
    |D - exact| <= eps (2.5 |D| + (a + 1) / log m), the 1 covering
    second-order terms: at most 11 eps on the six carpets of acceptance
    criterion 01, against brackets about 3e-14 wide.
    """
    if not spec.is_full_shift():
        raise NotFullShiftError(
            "closed form requires the full digit shift (transitions == 'full')"
        )
    theta = spec.theta()
    rows = Counter(b for _, b in spec.digits)
    total = sum(rows[b] ** theta for b in sorted(rows))
    return math.log(total) / math.log(spec.m)


def hausdorff_dimension(
    spec: CarpetSpec, n: int, mode: str = "collapsed", node_budget: Optional[int] = None
) -> DimensionEstimate:
    """Dimension interval for a carpet at depth n.

    The pressure interval is divided by log m; the closed form is
    attached when the digit shift is full.  For a source shift that is
    not mixing only the subadditive upper bound is reported and the
    lower end falls back to the trivial 0, flagged in the warnings.
    ``mode`` picks the engine, as in ``make_engine``.
    """
    fs, alpha = carpet_to_factor(spec)
    log_m = math.log(spec.m)
    closed = mcmullen_closed_form(spec) if spec.is_full_shift() else None
    engine = make_engine(fs, spec.theta(), mode, node_budget)
    try:
        estimate = pressure_interval(engine, n)
    except NonMixingError:
        value = engine.partition(n).value
        estimate, lower, upper = None, 0.0, min(2.0, (value.log + value.err) / (n * log_m))
        warnings = ("source shift is not mixing: lower bound unavailable, 0 reported",)
    else:
        lower, upper = max(0.0, estimate.lower / log_m), min(2.0, estimate.upper / log_m)
        warnings = ()
    return DimensionEstimate(
        alpha=alpha, lower=lower, upper=upper, n=n, closed_form=closed, pressure=estimate, warnings=warnings
    )


def convergence_rows(engine: CollapsedEngine | ExactEngine, n_max: int) -> list[PressureEstimate]:
    """Pressure brackets at every depth 1..n_max from one pass of the
    engine (``partition_series``), each built as by ``pressure_interval``
    with the constant read once, so the last is the bracket reported at
    n_max.  Feeds the CSV series and the convergence plots.

    The series is one walk of the collapsed engine from the split
    (1, 2), one move per depth, that reads each S_n at the split it
    reaches (``CollapsedEngine.series``) and weighs the reads still to
    come in its moves, so its splits can differ from those of the one
    read that ``pressure_interval`` walks to n, and it never takes the
    squaring jump that read may take.  A sum read at another split sums
    the same S_n over other terms, so the last row can differ from that
    bracket in its last digits.  Each step adds its rounding bound, so
    on a long run of repeating levels the last row is wider than the
    bracket of a jump, though both hold the pressure: ``full_torus_32``
    at n_max = 2000 gives a width of 1.85e-12 against 2.0e-14 without
    the series.  A second walk would make the two equal at the cost of
    every series.
    """
    # the series first, so that an exact engine walks once and the
    # constant is read off that walk
    series = partition_series(engine, n_max)
    constants = superadditive_constants(engine)
    return [_bracket(engine, ps.n, constants) for ps in series]


def perron_eigenvalue(matrix: Sequence[Sequence[object]]) -> float:
    """Spectral radius of a nonnegative square matrix, rounded once to a
    float.

    The entries are read exactly, a float as its dyadic ratio, and
    brought to integers A by their common denominator.  The test is the
    M-matrix criterion (Berman and Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, Thm 6.2.3): c > rho(A) exactly when every
    leading principal minor of cI - A is positive, for reducible A too.
    Bisection on that test, first on the binary exponent and then 54
    times on the dyadic grid below it, leaves rho in a bracket at most
    2^-54 of its lower end wide, and its upper end, an exact ratio, is
    the root.  That is a quarter of an ulp, so the one rounding returns
    rho itself whenever rho is a float.  A root past the float range
    raises ResourceError naming its binary exponent.
    """
    k = len(matrix)
    if k == 0 or any(len(row) != k for row in matrix):
        raise PreconditionError("matrix must be square and nonempty")
    for row in matrix:
        for x in row:
            if x < 0 or (isinstance(x, float) and not math.isfinite(x)):
                raise PreconditionError("matrix must be nonnegative and finite")
    num, den = _perron_root(matrix)
    try:
        return num / den
    except OverflowError:
        raise ResourceError(f"the Perron root {_scaled(num, den)} is past the float range") from None


_WIDTH = 54  # steps below the binary exponent: a bracket 2^-_WIDTH of its lower end wide


def _perron_root(matrix: Sequence[Sequence[object]]) -> tuple[int, int]:
    # the spectral radius as an exact ratio num / den, the bracket's upper end
    ratios = [[x.as_integer_ratio() for x in row] for row in matrix]
    den = math.lcm(*(d for row in ratios for _, d in row))
    ints = [[n * (den // d) for n, d in row] for row in ratios]
    # a nonnegative integer matrix that is not nilpotent has rho >= 1
    if _above(ints, 1, 1):
        return 0, 1
    # 2^lo <= rho < 2^hi; the largest row sum bounds rho
    lo, hi = 0, max(map(sum, ints)).bit_length()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _above(ints, 1 << mid, 1):
            hi = mid
        else:
            lo = mid
    # 2^lo * a / 2^_WIDTH <= rho < 2^lo * b / 2^_WIDTH
    a, b = 1 << _WIDTH, 2 << _WIDTH
    while b - a > 1:
        mid = (a + b) // 2
        if _above(ints, mid << lo, 1 << _WIDTH):
            b = mid
        else:
            a = mid
    return b << lo, den << _WIDTH


def _above(ints: list[list[int]], num: int, dd: int) -> bool:
    # whether num / dd > rho(ints): fraction-free (Bareiss) elimination on
    # num*I - dd*ints without pivoting, whose pivots are its leading
    # principal minors; each division is exact, as the earlier pivots are
    # positive
    k = len(ints)
    m = [[(num if i == j else 0) - dd * x for j, x in enumerate(row)] for i, row in enumerate(ints)]
    prev = 1
    for p in range(k):
        pivot = m[p][p]
        if pivot <= 0:
            return False
        for i in range(p + 1, k):
            for j in range(p + 1, k):
                m[i][j] = (m[i][j] * pivot - m[i][p] * m[p][j]) // prev
        prev = pivot
    return True


def _scaled(num: int, den: int) -> str:
    # num / den as a float's repr, or past the float range as m * 2**e with 1 <= m <= 2
    try:
        return repr(num / den)
    except OverflowError:
        e = num.bit_length() - den.bit_length()
        m = num / (den << e)
        return f"{m!r} * 2**{e}" if m >= 1.0 else f"{2.0 * m!r} * 2**{e - 1}"


def compensation_at_periodic(
    fs: FactorSystem,
    point: EventuallyPeriodicPoint,
    depth: int = 12,
) -> tuple[CompensationEstimate, CompensationEstimate]:
    """Evaluate the compensation function at an eventually periodic point.

    Returns (spectral, series).  The spectral quantity is log of the
    Perron root of the fiber-block product around the cycle divided by
    the cycle length, which is exactly the exponential growth rate of
    the lift counts along the tail.  The root is taken, as in
    ``perron_eigenvalue``, on the exact integer product P by bisection
    on the signs of the leading principal minors of cI - P: an exact
    ratio at most 2^-54 of the root above it.  The one rounding is its
    log, with a power of two split off by bit lengths, so no float holds
    the root at any cycle length.  The series value is the depth-n slope
    log(extendable-prefix count) / n.  No pointwise equality is claimed.
    """
    report = validate_sft(fs.source)
    if not report.irreducible:
        raise PreconditionError("compensation evaluation requires an irreducible source")
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    # d > 0 exactly when the point is in the image: an infinite lift's
    # length-depth prefix ends on a viable symbol, so it is counted, and a
    # counted prefix ends on a viable symbol, so it extends to an
    # infinite lift
    d = dn_count(fs, point, depth)
    if d == 0:
        raise PreconditionError(
            "point is not in the image subshift (its tail has no infinite lift)"
        )
    idx = fs.image_index
    cycle = [idx[letter] for letter in point.cycle]
    q = len(cycle)
    # row i of the product is the unit vector e_i read around the cycle.
    # Its Perron root is >= 1: d > 0 gives the point an infinite lift,
    # which passes the fiber of cycle[0] once per period, so every power
    # of the product has a nonzero entry; it is not nilpotent, and a
    # nonnegative integer matrix that is not nilpotent has root >= 1
    size, around = len(fs.fibers[cycle[0]]), cycle[1:] + cycle[:1]
    ends = [_read(fs, cycle[0], tuple(int(j == i) for j in range(size)), around) for i in range(size)]
    product = [end[1] if end else (0,) * size for end in ends]
    num, den = _perron_root(product)
    # one log of the exact root: 2^cut is split off by bit lengths, so
    # that a root of any size fits a float
    cut = max(0, num.bit_length() - den.bit_length() - 1)
    log_root = math.log(num / (den << cut)) + cut * math.log(2.0)
    spectral = CompensationEstimate(point=point, value=log_root / q, method="spectral")
    series = CompensationEstimate(
        point=point, value=math.log(d) / depth, method="series", depth=depth
    )
    return spectral, series
