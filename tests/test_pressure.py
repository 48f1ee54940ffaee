"""Pressure brackets, dimension intervals, spectral radii, compensation."""

import math
import random
from collections import Counter
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from carpetdim import counting
from carpetdim.counting import (
    _EPS,
    CollapsedEngine,
    ExactEngine,
    LogReal,
    dn_count,
    partition_series,
)
from carpetdim.errors import (
    NonMixingError,
    NotFullShiftError,
    PreconditionError,
    ResourceError,
)
from carpetdim.pressure import (
    compensation_at_periodic,
    convergence_rows,
    hausdorff_dimension,
    mcmullen_closed_form,
    perron_eigenvalue,
    pressure_interval,
    superadditive_constants,
)
from carpetdim.sft import CarpetSpec, EventuallyPeriodicPoint, carpet_to_factor

from conftest import THETA_32, make_factor, random_mixing_system

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# the six full-shift carpets of acceptance criterion 01
CRITERION_01_CARPETS = [
    CarpetSpec(3, 2, ((0, 0), (1, 0), (0, 1))),
    CarpetSpec(3, 2, ((0, 0), (1, 0), (2, 0), (0, 1))),
    CarpetSpec(4, 2, ((0, 0), (1, 1), (3, 0))),
    CarpetSpec(4, 3, ((0, 0), (1, 1), (2, 2), (3, 0), (0, 2))),
    CarpetSpec(5, 3, ((0, 0), (1, 0), (2, 1), (3, 2), (4, 1), (0, 2))),
    CarpetSpec(7, 5, ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 0), (6, 1), (2, 3))),
]


def closed_form_bound(spec):
    """The rounding bound that ``mcmullen_closed_form``'s docstring
    derives: eps (2.5 |D| + (a + 1) / log m), a = 1 + 2.5 theta log t +
    (R - 1)/2 for R rows summed, t the largest row count."""
    rows = Counter(b for _, b in spec.digits)
    a = 1.0 + 2.5 * spec.theta() * math.log(max(rows.values())) + (len(rows) - 1) / 2.0
    return _EPS * (2.5 * abs(mcmullen_closed_form(spec)) + (a + 1.0) / math.log(spec.m))


def closed_form_oracle(spec) -> Decimal:
    """log_m of the sum over rows of (row count)^(log m / log l), in
    50-digit ``Decimal``."""
    rows = Counter(b for _, b in spec.digits)
    with localcontext() as ctx:
        ctx.prec = 50
        log_m = Decimal(spec.m).ln()
        theta = log_m / Decimal(spec.l).ln()
        total = sum((theta * Decimal(t).ln()).exp() for t in rows.values())
        return total.ln() / log_m


def assert_splices(fs, theta, N):
    """K_tilde = S_{M-1} (S_0 = 1), and log S_l + log S_n <= log K_tilde
    + log S_{l+n} for l, n <= N within the tracked rounding errors."""
    engine = CollapsedEngine(fs, theta)
    constants = superadditive_constants(engine)
    series = partition_series(engine, 2 * N)
    logs = [p.value.log for p in series]
    errs = [p.value.err for p in series]
    assert constants.log_K_tilde == (logs[constants.M - 2] if constants.M > 1 else 0.0)
    for l in range(1, N + 1):
        for n in range(1, N + 1):
            slack = errs[l - 1] + errs[n - 1] + errs[l + n - 1] + constants.rounding_bound
            assert logs[l - 1] + logs[n - 1] <= (
                constants.log_K_tilde + logs[l + n - 1] + slack
            ), f"K_tilde splice fails at l={l}, n={n}, theta={theta}"


def mixing_system(request, name):
    """The factor system of a fixture, carpets converted."""
    fs = request.getfixturevalue(name)
    return carpet_to_factor(fs)[0] if isinstance(fs, CarpetSpec) else fs


class TestSuperadditiveConstants:
    def test_full_shift_constants(self, torus_32):
        fs, _ = carpet_to_factor(torus_32)
        engine = CollapsedEngine(fs, THETA_32)
        constants = superadditive_constants(engine)
        assert constants.M == 1
        # S_1 = 2 * 3^theta = 4 up to float rounding at this geometry
        assert math.exp(engine.partition(1).value.log) == pytest.approx(4.0, rel=1e-12)
        # M = 1: the splicing constant is S_0 = 1, full shifts being
        # exactly multiplicative
        assert math.exp(constants.log_K_tilde) == 1.0
        assert constants.log_K_tilde == 0.0

    def test_fixture_constants_positive(self, any_fixture):
        constants = superadditive_constants(CollapsedEngine(any_fixture, THETA_32))
        assert constants.M >= 1
        assert math.exp(constants.log_K_tilde) >= 1.0
        assert constants.rounding_bound > 0.0
        for theta in (THETA_32, 1.0):
            assert_splices(any_fixture, theta, 20)

    @pytest.mark.parametrize("seed", range(12))
    def test_splicing_constant_on_random_mixing_systems(self, seed):
        fs = random_mixing_system(random.Random(seed))
        for theta in (THETA_32, 0.5, 1.0):
            assert_splices(fs, theta, 20)

    @pytest.mark.parametrize("system, walks", [("torus_32", []), ("fibonacci", [1]), ("parity", [4])])
    def test_reads_sums_only_to_m_minus_1(self, request, monkeypatch, system, walks):
        fs = mixing_system(request, system)
        seen = []
        walk = counting._prefix_words
        monkeypatch.setattr(counting, "_prefix_words", lambda fs, n: seen.append(n) or walk(fs, n))
        superadditive_constants(ExactEngine(fs, THETA_32))
        assert seen == walks

    def test_non_mixing_raises(self):
        fs = make_factor(["a", "b"], [("a", "b"), ("b", "a")], {"a": "x", "b": "x"})
        with pytest.raises(NonMixingError):
            superadditive_constants(CollapsedEngine(fs, THETA_32))


class TestPressureInterval:
    def test_interval_width_formula(self, fibonacci):
        est = pressure_interval(CollapsedEngine(fibonacci, THETA_32), 12)
        width = est.upper - est.lower
        expected = (
            est.constants.log_K_tilde + 2.0 * est.rounding_bound
        ) / est.n
        assert width == pytest.approx(expected, rel=1e-12)
        assert est.lower <= est.log_Sn / est.n <= est.upper

    def test_intervals_at_different_depths_overlap(self, any_fixture):
        """Every interval sandwiches the same limit, so lows never cross highs."""
        estimates = [
            pressure_interval(CollapsedEngine(any_fixture, THETA_32), n) for n in (2, 5, 9, 13)
        ]
        for a in estimates:
            for b in estimates:
                assert a.lower <= b.upper + 1e-12

    @pytest.mark.parametrize("engine_type", [CollapsedEngine, ExactEngine])
    @pytest.mark.parametrize("system, M", [("torus_32", 1), ("fibonacci", 2), ("parity", 5)])
    def test_each_end_pads_only_its_own_terms(self, request, engine_type, system, M):
        """upper = (log S_n + e_n) / n and lower = (log S_n - e_n - e_K -
        log K_tilde) / n, e_K being the tracked error of S_{M-1}, 0 at M = 1."""
        fs = mixing_system(request, system)
        engine = engine_type(fs, THETA_32)
        n = 12
        est = pressure_interval(engine, n)
        # both engines keep what they read, so these are the sums the bracket used
        s_n = engine.partition(n).value
        k = engine.partition(M - 1).value if M > 1 else LogReal(0.0, 0.0)
        assert est.constants.M == M
        assert (est.constants.log_K_tilde, est.constants.rounding_bound) == (k.log, k.err)
        assert est.upper == (s_n.log + s_n.err) / n
        assert est.lower == (s_n.log - (s_n.err + k.err) - k.log) / n
        assert est.rounding_bound == s_n.err + k.err

    def test_takes_no_constants(self, fibonacci):
        """The constant is always read off the bracket's own engine."""
        engine = CollapsedEngine(fibonacci, THETA_32)
        with pytest.raises(TypeError):
            pressure_interval(engine, 12, constants=superadditive_constants(engine))

    def test_exact_mode_agrees(self, parity):
        col = pressure_interval(CollapsedEngine(parity, THETA_32), 8)
        exa = pressure_interval(ExactEngine(parity, THETA_32), 8)
        assert col.log_Sn == pytest.approx(exa.log_Sn, abs=1e-12)

    def test_rejects_bad_depth(self, parity):
        with pytest.raises(PreconditionError):
            pressure_interval(CollapsedEngine(parity, THETA_32), 0)


class TestClosedForm:
    def test_column_carpet_value(self, carpet_21):
        theta = carpet_21.theta()
        expected = math.log(2.0**theta + 1.0) / math.log(2.0)
        assert mcmullen_closed_form(carpet_21) == pytest.approx(expected, abs=1e-15)

    def test_full_torus_has_dimension_two(self, torus_32):
        assert mcmullen_closed_form(torus_32) == pytest.approx(2.0, abs=1e-12)

    def test_single_row_reduces_to_theta(self):
        spec = CarpetSpec(3, 2, ((0, 0), (1, 0)))
        # both digits on one vertical level: a self-similar horizontal set
        assert mcmullen_closed_form(spec) == pytest.approx(
            spec.theta(), abs=1e-12
        )

    @pytest.mark.parametrize("spec", CRITERION_01_CARPETS, ids=lambda s: f"{s.l}x{s.m}-{len(s.digits)}")
    def test_rounding_within_its_bound(self, spec):
        """Within the bound its docstring derives of the 50-digit value,
        a bound of at most 11 eps on these carpets."""
        bound = closed_form_bound(spec)
        assert abs(Decimal(mcmullen_closed_form(spec)) - closed_form_oracle(spec)) <= Decimal(bound)
        assert bound <= 11 * _EPS

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rounding_within_its_bound_on_full_shifts(self, data):
        m = data.draw(st.integers(2, 40), label="m")
        l = data.draw(st.integers(m + 1, 60), label="l")
        cells = data.draw(st.sets(st.tuples(st.integers(0, l - 1), st.integers(0, m - 1)), min_size=1, max_size=60))
        spec = CarpetSpec(l, m, tuple(sorted(cells)))
        assert abs(Decimal(mcmullen_closed_form(spec)) - closed_form_oracle(spec)) <= Decimal(closed_form_bound(spec))

    def test_requires_full_digit_shift(self):
        spec = CarpetSpec(3, 2, ((0, 0), (1, 1)), transitions=((0, 1), (1, 0)))
        with pytest.raises(NotFullShiftError):
            mcmullen_closed_form(spec)


class TestHausdorffDimension:
    def test_interval_contains_closed_form(self, carpet_21):
        est = hausdorff_dimension(carpet_21, 24)
        assert est.closed_form is not None
        assert est.lower <= est.closed_form <= est.upper
        assert est.warnings == ()
        assert est.pressure is not None

    def test_depth_2000_brackets_closed_form(self, carpet_21):
        """Deep brackets end in a report, not in a RecursionError."""
        est = hausdorff_dimension(carpet_21, 2000)
        assert est.lower <= est.closed_form <= est.upper
        assert est.upper - est.lower < 1e-3

    @pytest.mark.parametrize("depth", [30, 200, 2000])
    def test_full_shift_brackets_contain_the_decimal_closed_form(self, depth):
        """The brackets are about 3.7e-14 wide and the float closed form
        sits only tens of ulps inside them, so the dimension is taken to
        60 digits: log_m of the sum over rows of t_j^theta, theta = log m
        / log l exactly."""
        for spec in CRITERION_01_CARPETS:
            est = hausdorff_dimension(spec, depth)
            with localcontext() as ctx:
                ctx.prec = 60
                log_m = Decimal(spec.m).ln()
                theta = log_m / Decimal(spec.l).ln()
                counts = [sum(1 for _, r in spec.digits if r == b) for b in range(spec.m)]
                rows = sum((theta * Decimal(t).ln()).exp() for t in counts if t)
                closed = rows.ln() / log_m
                assert Decimal(est.lower) <= closed <= Decimal(est.upper), (spec, depth)
            assert est.upper - est.lower < 4e-14

    def test_bounds_clamped_to_plane(self, torus_32):
        est = hausdorff_dimension(torus_32, 16)
        assert est.upper == 2.0  # clamped at the ambient dimension
        assert est.lower <= 2.0
        assert est.closed_form == pytest.approx(2.0, abs=1e-12)

    def test_non_mixing_carpet_degrades_gracefully(self):
        spec = CarpetSpec(3, 2, ((0, 0), (1, 1)), transitions=((0, 1), (1, 0)))
        est = hausdorff_dimension(spec, 10)
        assert est.lower == 0.0
        assert est.pressure is None
        assert est.closed_form is None
        assert any("not mixing" in w for w in est.warnings)
        assert 0.0 < est.upper <= 2.0


class TestConvergenceRows:
    def test_rows_shape_and_consistency(self, bipartite):
        rows = convergence_rows(CollapsedEngine(bipartite, THETA_32), 8)
        assert [r.n for r in rows] == list(range(1, 9))
        series = partition_series(CollapsedEngine(bipartite, THETA_32), 8)
        for row, ps in zip(rows, series):
            assert row.log_Sn == pytest.approx(ps.value.log, abs=1e-12)
            assert row.words == ps.word_count
            assert row.lower < row.upper
            single = pressure_interval(CollapsedEngine(bipartite, THETA_32), row.n)
            assert row.upper == pytest.approx(single.upper, abs=1e-10)

    @pytest.mark.parametrize("engine_type", [CollapsedEngine, ExactEngine])
    def test_last_row_is_the_reported_bracket(self, parity, engine_type):
        """Read off one engine, the series' last record is the bracket
        that ``pressure_interval`` reports at the same depth."""
        eng = engine_type(parity, THETA_32)
        rows = convergence_rows(eng, 12)
        assert rows[-1] == pressure_interval(eng, 12)


class TestPerronEigenvalue:
    def test_golden_mean(self):
        assert perron_eigenvalue(((1, 1), (1, 0))) == pytest.approx(
            GOLDEN, abs=1e-12
        )

    def test_sqrt_two(self):
        assert perron_eigenvalue(((0, 2), (1, 0))) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_scalar_and_permutation(self):
        assert perron_eigenvalue(((2,),)) == 2.0
        assert perron_eigenvalue(((0, 1), (1, 0))) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent_is_zero(self):
        assert perron_eigenvalue(((0, 1), (0, 0))) == 0.0

    def test_slowly_settling_block(self):
        """Two successive Rayleigh quotients of this matrix agree long
        before they reach the root, 1.5589798779817508 by bisection of
        the characteristic polynomial x^4 - x^3 - 2x + 1."""
        matrix = ((1, 0, 0, 1), (1, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0))
        assert perron_eigenvalue(matrix) == pytest.approx(1.5589798779817508, rel=2.0**-40)

    def test_reducible_takes_component_max(self):
        matrix = ((2, 1), (0, 3))
        assert perron_eigenvalue(matrix) == pytest.approx(3.0, abs=1e-12)

    def test_huge_integer_entries(self):
        big = 2**600
        assert perron_eigenvalue(((big,),)) == 2.0**600

    def test_rejects_negative_and_non_square(self):
        with pytest.raises(PreconditionError):
            perron_eigenvalue(((-1,),))
        with pytest.raises(PreconditionError):
            perron_eigenvalue(((1, 2),))
        with pytest.raises(PreconditionError):
            perron_eigenvalue(())

    def test_huge_integer_entries_past_the_float_scale(self):
        """Entries past 2^512 are read as exact integers, and the root
        is rounded to a float once, while it fits one."""
        assert perron_eigenvalue(((2**900, 1), (1, 0))) == 8.452712498170644e270

    def test_entries_spanning_orders_of_magnitude(self):
        """A bipartite block with roots +-sqrt(10^9): the shift by the
        ceiling of the upper end damps the root at -rho in one step,
        where a shift by 1 settles at a rate of about 1 - 2/rho."""
        root = perron_eigenvalue(((0, 10**6), (1000, 0)))
        assert root == pytest.approx(math.sqrt(1e9), rel=2.0**-40)

    def test_float_entries_are_read_exactly(self):
        """Float entries enter as their dyadic ratios; the root of this
        block is (1 + sqrt 5) / 4."""
        root = perron_eigenvalue(((0.5, 0.25), (1.0, 0.0)))
        assert root == pytest.approx((1.0 + math.sqrt(5.0)) / 4.0, rel=2.0**-40)

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_entries(self, entry):
        with pytest.raises(PreconditionError, match="finite"):
            perron_eigenvalue(((1, entry), (1, 0)))

    def test_root_past_the_float_range_raises(self):
        """A root of 2^1100 has no float; the error names its binary
        exponent rather than overflowing."""
        with pytest.raises(ResourceError, match=r"1\.0 \* 2\*\*1100"):
            perron_eigenvalue(((2**1100,),))

    def test_block_with_a_near_modulus_second_root(self):
        """The second root's modulus is within 6.4e-5 of rho, which
        power iteration separates only after millions of steps; 60-digit
        eigenvalues give 1000032.14251835569754..."""
        matrix = ((10**6, 10**6, 1000), (1, 1, 0), (1, 1000, 10**6))
        assert perron_eigenvalue(matrix) == 1000032.1425183557


class TestCompensation:
    def test_fibonacci_cycle_growth_is_golden(self, fibonacci):
        point = EventuallyPeriodicPoint((), ("2",))
        spectral, series = compensation_at_periodic(fibonacci, point, depth=12)
        assert spectral.method == "spectral"
        assert spectral.value == pytest.approx(math.log(GOLDEN), abs=1e-10)
        assert series.method == "series"
        assert series.depth == 12
        # the series slope tracks the same growth without being equated
        assert series.value == pytest.approx(math.log(GOLDEN), abs=0.2)

    def test_series_slope_matches_lift_prefix_counts(self, fibonacci):
        point = EventuallyPeriodicPoint((), ("2",))
        _, series = compensation_at_periodic(fibonacci, point, depth=9)
        expected = math.log(dn_count(fibonacci, point, 9)) / 9
        assert series.value == expected

    def test_identity_map_compensation_vanishes(self, identity_system):
        point = EventuallyPeriodicPoint((), ("a",))
        spectral, series = compensation_at_periodic(identity_system, point, depth=8)
        assert spectral.value == 0.0
        assert series.value == 0.0

    def test_longer_cycle(self, parity):
        point = EventuallyPeriodicPoint((), ("1", "2"))
        spectral, series = compensation_at_periodic(parity, point, depth=10)
        # cycle through the singleton fiber: exactly one lift per loop
        assert spectral.value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_point_outside_image(self, parity):
        with pytest.raises(PreconditionError, match="not in the image"):
            compensation_at_periodic(parity, EventuallyPeriodicPoint((), ("1",)))
        # the tail 2^inf lifts, but the head 1 1 does not
        with pytest.raises(PreconditionError, match="not in the image"):
            compensation_at_periodic(parity, EventuallyPeriodicPoint(("1", "1"), ("2",)))

    def test_rejects_reducible_source(self):
        fs = make_factor(
            ["a", "b"],
            [("a", "a"), ("a", "b"), ("b", "b")],
            {"a": "x", "b": "x"},
        )
        with pytest.raises(PreconditionError, match="irreducible"):
            compensation_at_periodic(fs, EventuallyPeriodicPoint((), ("x",)))

    def test_rejects_bad_depth(self, fibonacci):
        with pytest.raises(PreconditionError):
            compensation_at_periodic(
                fibonacci, EventuallyPeriodicPoint((), ("2",)), depth=0
            )
