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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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
    strongly_connected_components,
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


@dataclass(frozen=True)
class SuperadditiveConstants:
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
    tracked error, both 0 when M = 1; ``K_tilde`` is its exponential,
    for reports only.
    """

    M: int
    K_tilde: float
    log_K_tilde: float
    rounding_bound: float


@dataclass(frozen=True)
class PressureEstimate:
    """A bracket [lower, upper] for the pressure, valid at this single n.

    ``rounding_bound`` is the lower end's pad, the tracked errors of
    log S_n and of log K_tilde together; the upper end is padded by the
    error of log S_n alone.
    """

    n: int
    upper: float
    lower: float
    theta: float
    constants: SuperadditiveConstants
    log_Sn: float
    rounding_bound: float


@dataclass(frozen=True)
class DimensionEstimate:
    """Hausdorff-dimension interval for a carpet at depth n."""

    alpha: float
    lower: float
    upper: float
    n: int
    closed_form: Optional[float]
    pressure: Optional[PressureEstimate]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CompensationEstimate:
    """A finite evaluation of the relative-pressure function at one point.

    ``spectral`` estimates the growth rate of lift counts around the
    periodic tail, log rho / q, by power iteration with no error bound;
    ``series`` is the finite-depth slope of the extendable-prefix
    counts.  The two presentations agree almost everywhere but not
    necessarily pointwise, so reports carry both and never claim
    equality.
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
    must be mixing, read off the engine's partition sums S_1..S_{M-1}
    at its theta; no sum is read when M = 1."""
    M = mixing_index(engine.fs)
    s_prev = partition_series(engine, M - 1)[-1].value if M > 1 else LogReal(0.0)
    return SuperadditiveConstants(
        M=M, K_tilde=math.exp(s_prev.log), log_K_tilde=s_prev.log, rounding_bound=s_prev.err
    )


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
    s_n = engine.partition(n).value
    pad = s_n.err + constants.rounding_bound
    return PressureEstimate(
        n=n,
        upper=(s_n.log + s_n.err) / n,
        lower=(s_n.log - pad - constants.log_K_tilde) / n,
        theta=engine.theta,
        constants=constants,
        log_Sn=s_n.log,
        rounding_bound=pad,
    )


def mcmullen_closed_form(spec: CarpetSpec) -> float:
    """Closed-form dimension for carpets whose digit shift is full.

    With every transition allowed the lift count of an image word
    factorizes over its letters, and the dimension reduces to
    log_m(sum over rows j of t_j^(log_l m)) with t_j the number of
    selected digits in row j.
    """
    if not spec.is_full_shift():
        raise NotFullShiftError(
            "closed form requires the full digit shift (transitions == 'full')"
        )
    theta = spec.theta()
    total = sum(t ** theta for t in spec.row_occupancy() if t)
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


def convergence_rows(engine: CollapsedEngine | ExactEngine, n_max: int) -> list[dict]:
    """Pressure brackets at every depth 1..n_max from one pass of the
    engine (``partition_series``), each as by ``pressure_interval``: a
    row carries n, log S_n, the occurring-word count and the upper and
    lower bounds valid at that n, so the last row is the bracket
    reported at n_max.  Feeds the CSV series and the convergence plots.

    The series steps the collapsed engine through every level, so it
    never takes the squaring jump that ``pressure_interval`` alone may
    take towards n, and each step adds its rounding bound.  On a
    long run of repeating levels the last row is then wider than that
    bracket, though both hold the pressure: ``full_torus_32`` at n_max =
    2000 gives a width of 1.85e-12 against 2.0e-14 without the series.
    A second sweep would make the two equal at the cost of every series.
    """
    # the series first, so that an exact engine walks once and the
    # constant is read off that walk
    series = partition_series(engine, n_max)
    constants = superadditive_constants(engine)
    rows = []
    for ps in series:
        estimate = _bracket(engine, ps.n, constants)
        rows.append(
            {
                "n": ps.n,
                "log_Sn": estimate.log_Sn,
                "words": ps.word_count,
                "upper_bound": estimate.upper,
                "lower_bound": estimate.lower,
            }
        )
    return rows


def _float_matrix(matrix: Sequence[Sequence[object]]) -> tuple[list[list[float]], int]:
    # Scale huge integer entries down by a power of two before float
    # conversion; returns (float matrix, binary exponent of the scale).
    max_bits = 0
    for row in matrix:
        for x in row:
            if isinstance(x, int) and x > 0:
                max_bits = max(max_bits, x.bit_length())
    shift = max(0, max_bits - 512)
    out = []
    for row in matrix:
        out.append(
            [float(x >> shift) if (shift and isinstance(x, int)) else float(x) for x in row]
        )
    return out, shift


def perron_eigenvalue(
    matrix: Sequence[Sequence[object]],
    tol: float = 1e-13,
    max_iter: int = 200_000,
) -> float:
    """Spectral radius of a nonnegative square matrix by power iteration.

    Deterministic all-ones start; iteration on each strongly connected
    component with a +1 diagonal shift (which makes an irreducible
    component primitive without moving its Perron vector).  Reducible
    matrices return the maximum over components.  If a component has
    not converged within ``max_iter`` iterations, ResourceError is
    raised and names the last Collatz-Wielandt bracket
    [min (Ax)_i / x_i, max (Ax)_i / x_i]; no point inside it is returned.
    """
    k = len(matrix)
    if k == 0 or any(len(row) != k for row in matrix):
        raise PreconditionError("matrix must be square and nonempty")
    if max_iter < 1:
        raise PreconditionError("max_iter must be >= 1")
    for row in matrix:
        for x in row:
            if x < 0 or (isinstance(x, float) and math.isnan(x)):
                raise PreconditionError("matrix must be nonnegative")
    floats, shift = _float_matrix(matrix)
    # adjacency from the original entries so scaling can't drop an edge
    succ = [[j for j in range(k) if matrix[i][j]] for i in range(k)]
    comp = strongly_connected_components(succ)
    best = 0.0
    for cid in set(comp):
        nodes = [i for i in range(k) if comp[i] == cid]
        internal = [
            (i, j) for i in nodes for j in succ[i] if comp[j] == cid
        ]
        if not internal:
            continue
        if len(nodes) == 1:
            i = nodes[0]
            best = max(best, floats[i][i])
            continue
        sub = [[floats[i][j] for j in nodes] for i in nodes]
        best = max(best, _power_iterate(sub, tol, max_iter, shift))
    return math.ldexp(best, shift) if shift else best


def _power_iterate(sub: list[list[float]], tol: float, max_iter: int, shift: int) -> float:
    # the Perron root of sub, which is the matrix scaled by 2^-shift
    s = len(sub)
    shifted = [
        [sub[i][j] + (1.0 if i == j else 0.0) for j in range(s)] for i in range(s)
    ]
    x = [1.0] * s
    prev = None
    lo = hi = 0.0
    for _ in range(max_iter):
        y = [sum(shifted[i][j] * x[j] for j in range(s)) for i in range(s)]
        quotients = [y[i] / x[i] for i in range(s) if x[i] > 0.0]
        lo, hi = min(quotients), max(quotients)
        num = sum(x[i] * y[i] for i in range(s))
        den = sum(x[i] * x[i] for i in range(s))
        rayleigh = num / den
        norm = max(y)
        x = [v / norm for v in y]
        if prev is not None and abs(rayleigh - prev) < tol * max(1.0, abs(rayleigh)):
            return rayleigh - 1.0
        prev = rayleigh
    raise ResourceError(
        f"power iteration did not converge in {max_iter} iterations; the last "
        f"Collatz-Wielandt bracket of the Perron root is "
        f"[{math.ldexp(lo - 1.0, shift)!r}, {math.ldexp(hi - 1.0, shift)!r}]"
    )


def compensation_at_periodic(
    fs: FactorSystem,
    point: EventuallyPeriodicPoint,
    depth: int = 12,
) -> tuple[CompensationEstimate, CompensationEstimate]:
    """Evaluate the compensation function at an eventually periodic point.

    Returns (spectral, series).  The spectral quantity is log of the
    Perron root of the fiber-block product around the cycle divided by
    the cycle length, which is exactly the exponential growth rate of
    the lift counts along the tail.  The reported value is not exact:
    the root is a Rayleigh quotient from ``perron_eigenvalue``, stopped
    when two successive quotients agree to 1e-13 relative, and no error
    bound comes with it.  The series value is the depth-n slope
    log(extendable-prefix count) / n.  No pointwise equality between
    the two is claimed.
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
    # row i of the product is the unit vector e_i read around the cycle
    size, around = len(fs.fibers[cycle[0]]), cycle[1:] + cycle[:1]
    ends = [_read(fs, cycle[0], tuple(int(j == i) for j in range(size)), around) for i in range(size)]
    product = [end[1] if end else (0,) * size for end in ends]
    if all(x == 0 for row in product for x in row):
        raise PreconditionError("fiber-block product around the cycle is zero")
    rho = perron_eigenvalue(product)
    spectral = CompensationEstimate(
        point=point, value=math.log(rho) / q, method="spectral"
    )
    series = CompensationEstimate(
        point=point, value=math.log(d) / depth, method="series", depth=depth
    )
    return spectral, series
