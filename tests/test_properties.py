"""Property-based checks over randomly generated small systems."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from carpetdim.counting import (
    _EPS,
    _log_sum_exp,
    CollapsedEngine,
    dn_count,
    is_image_point,
    partition_sum,
    preimage_count,
    viable_sets,
)
from carpetdim.fixtures import (
    bipartite_fiber,
    column_carpet_21,
    fibonacci_fiber,
    full_torus,
    linear_lift_growth,
    parity_oscillation,
)
from carpetdim.measures import additivity_scan
from carpetdim.pressure import compensation_at_periodic, perron_eigenvalue
from carpetdim.sft import EventuallyPeriodicPoint, FactorSystem, Sft, carpet_to_factor, validate_sft
from carpetdim.specfile import dump_document, parse_system, system_doc

from conftest import THETA_32, make_factor, random_mixing_system, random_restricted_carpet
from oracles import (
    additivity_scan_oracle,
    backward_oracle,
    brute_force_count,
    extendable_prefix_oracle,
    fiber_tables_oracle,
    image_word_counts,
    leading_minors_positive,
    perron_bracket_oracle,
    product_count_oracle,
    viable_sets_oracle,
)


def _prune_to_essential(matrix, k):
    """Drop rows/columns until every symbol has in- and out-edges."""
    alive = list(range(k))
    changed = True
    while changed and alive:
        changed = False
        for i in list(alive):
            has_out = any(matrix[i][j] for j in alive)
            has_in = any(matrix[j][i] for j in alive)
            if not (has_out and has_in):
                alive.remove(i)
                changed = True
    return alive


@st.composite
def factor_systems(draw, max_states=5):
    k = draw(st.integers(min_value=2, max_value=max_states))
    bits = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    matrix = [[1 if bits[i * k + j] else 0 for j in range(k)] for i in range(k)]
    alive = _prune_to_essential(matrix, k)
    assume(alive)
    symbols = tuple(f"s{i}" for i in alive)
    sub = tuple(tuple(matrix[i][j] for j in alive) for i in alive)
    sft = Sft(symbols, sub)
    n_letters = draw(st.integers(min_value=1, max_value=len(alive)))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_letters - 1),
            min_size=len(alive),
            max_size=len(alive),
        )
    )
    letter_map = {s: f"L{assignment[i]}" for i, s in enumerate(symbols)}
    return FactorSystem(sft, dict(letter_map))


@settings(max_examples=60, deadline=None)
@given(fs=factor_systems(), n=st.integers(min_value=1, max_value=4))
def test_counting_oracles_agree(fs, n):
    buckets = image_word_counts(fs, n)
    assert sum(buckets.values()) == fs.source.word_count(n)
    for word, count in buckets.items():
        assert preimage_count(fs, word) == count
        assert brute_force_count(fs, word) == count
        assert product_count_oracle(fs, word) == count


@settings(max_examples=40, deadline=None)
@given(fs=factor_systems(), word=st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_arbitrary_words_count_consistently(fs, word):
    """Regardless of whether the word occurs, the three counters agree."""
    letters = tuple(f"L{i}" for i in word)
    assert (
        preimage_count(fs, letters)
        == brute_force_count(fs, letters)
        == product_count_oracle(fs, letters)
    )


@settings(max_examples=40, deadline=None)
@given(
    fs=factor_systems(),
    n=st.integers(min_value=1, max_value=7),
    theta=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
)
def test_collapse_is_exact_within_tracked_error(fs, n, theta):
    exact = partition_sum(fs, n, theta, mode="exact")
    collapsed = partition_sum(fs, n, theta, mode="collapsed")
    assert exact.word_count == collapsed.word_count
    tolerance = exact.value.err + collapsed.value.err
    assert abs(exact.value.log - collapsed.value.log) <= tolerance


@settings(max_examples=40, deadline=None)
@given(
    fs=factor_systems(),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=4),
)
def test_partition_sums_are_submultiplicative(fs, n, m):
    """Splitting a word can only split lift paths: S_{n+m} <= S_n S_m."""
    theta = 0.5
    sn = partition_sum(fs, n, theta).value
    sm = partition_sum(fs, m, theta).value
    snm = partition_sum(fs, n + m, theta).value
    slack = sn.err + sm.err + snm.err
    assert snm.log <= sn.log + sm.log + slack


@settings(max_examples=40, deadline=None)
@given(
    fs=factor_systems(),
    cycle=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    preperiod=st.lists(st.integers(0, 3), min_size=0, max_size=2),
    n=st.integers(min_value=1, max_value=5),
)
def test_extendable_prefix_counts_match_oracle(fs, cycle, preperiod, n):
    point = EventuallyPeriodicPoint(
        tuple(f"L{i}" for i in preperiod), tuple(f"L{i}" for i in cycle)
    )
    count = dn_count(fs, point, n)
    assert count == extendable_prefix_oracle(fs, point, n)
    assert (count > 0) == is_image_point(fs, point)


FACTOR_FIXTURES = (parity_oscillation, bipartite_fiber, fibonacci_fiber, linear_lift_growth)


@st.composite
def points_over_any_letters(draw):
    """A factor fixture or a random mixing system, and an eventually
    periodic point over its image letters and one unknown letter."""
    pick = draw(st.integers(0, len(FACTOR_FIXTURES)))
    if pick < len(FACTOR_FIXTURES):
        fs = FACTOR_FIXTURES[pick]()
    else:
        fs = random_mixing_system(random.Random(draw(st.integers(0, 2**32 - 1))))
    letters = st.sampled_from(fs.image_alphabet + ("?",))
    point = EventuallyPeriodicPoint(
        tuple(draw(st.lists(letters, max_size=3))), tuple(draw(st.lists(letters, min_size=1, max_size=4)))
    )
    return fs, point


@settings(max_examples=200, deadline=None)
@given(case=points_over_any_letters())
def test_viable_sets_match_bounded_path_search(case):
    """The greatest fixed point around the cycle and the pass back
    through the preperiod give the sets that a path search finds, at
    every position through the second pass around the cycle."""
    fs, point = case
    upto = len(point.preperiod) + 2 * len(point.cycle) + 3
    assert viable_sets(fs, point, upto) == viable_sets_oracle(fs, point, upto)


@st.composite
def image_points(draw):
    """An irreducible system and an eventually periodic point of its image."""
    fs = draw(factor_systems())
    assume(validate_sft(fs.source).irreducible)
    letters = st.sampled_from(fs.image_alphabet)
    point = EventuallyPeriodicPoint(
        tuple(draw(st.lists(letters, max_size=2))), tuple(draw(st.lists(letters, min_size=1, max_size=3)))
    )
    assume(is_image_point(fs, point))
    return fs, point


@settings(max_examples=60, deadline=None)
@given(case=image_points())
def test_compensation_spectral_is_finite_and_nonnegative(case):
    """A point of the image has an infinite lift, so the fiber-block
    product around its cycle is not nilpotent and its Perron root is
    at least 1."""
    fs, point = case
    spectral, _ = compensation_at_periodic(fs, point, depth=6)
    assert math.isfinite(spectral.value)
    assert spectral.value >= -1e-9


@st.composite
def nonnegative_matrices(draw, max_size=8):
    """A square matrix of size 1..max_size, 0/1 or with entries up to 3."""
    k = draw(st.integers(min_value=1, max_value=max_size))
    top = draw(st.sampled_from([1, 3]))
    entries = draw(st.lists(st.integers(0, top), min_size=k * k, max_size=k * k))
    return tuple(tuple(entries[i * k:(i + 1) * k]) for i in range(k))


@settings(max_examples=200, deadline=None)
@given(matrix=nonnegative_matrices())
def test_perron_root_lies_in_the_exact_bracket(matrix):
    """The float root lies in the exact Collatz-Wielandt bracket of the
    integer powers, widened by 2^-40 of its upper end."""
    lower, upper = perron_bracket_oracle(matrix)
    pad = 2.0**-40 * float(upper)
    assert float(lower) - pad <= perron_eigenvalue(matrix) <= float(upper) + pad


@settings(max_examples=200, deadline=None)
@given(matrix=nonnegative_matrices())
@example(matrix=((1, 0, 0, 1), (1, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0)))
def test_perron_root_is_within_2_to_the_minus_50_by_leading_minors(matrix):
    """The float root f is 0 exactly on a nilpotent matrix; otherwise
    f(1 + 2^-50) lies above rho and f(1 - 2^-50) does not, read off the
    signs of the leading principal minors of cI - A in exact Fractions."""
    root = perron_eigenvalue(matrix)
    k = len(matrix)
    power = [list(row) for row in matrix]
    for _ in range(k - 1):
        power = [[sum(power[i][t] * matrix[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
    assert (root == 0.0) == (not any(map(any, power)))
    if root:
        f, step = Fraction(root), Fraction(1, 2**50)
        assert leading_minors_positive(matrix, f * (1 + step))
        assert not leading_minors_positive(matrix, f * (1 - step))


@settings(max_examples=60, deadline=None)
@given(fs=factor_systems())
def test_spec_documents_round_trip(fs):
    doc = system_doc(fs)
    assert parse_system(doc) == fs
    # serialization is stable under a second pass
    again = system_doc(parse_system(doc))
    assert dump_document(again) == dump_document(doc)


def _ratio(fs, u, v):
    return preimage_count(fs, u + v) / (preimage_count(fs, u) * preimage_count(fs, v))


@settings(max_examples=40, deadline=None)
@given(fs=factor_systems(), max_len=st.integers(min_value=1, max_value=4))
def test_additivity_scan_matches_word_enumeration(fs, max_len):
    """The scan over first-seen directions finds the extremes and the
    trend that every pair of words gives; the ratios are the same
    rationals, correctly rounded, so they agree exactly."""
    report = additivity_scan(fs, max_len)
    words = [w for j in range(1, max_len + 1) for w in image_word_counts(fs, j)]
    ratios = {}
    for u in words:
        for v in words:
            if preimage_count(fs, u + v):
                ratios[u, v] = _ratio(fs, u, v)
    assert report.min_ratio == min(ratios.values())
    assert report.max_ratio == max(ratios.values())
    trend = [
        min(r for (u, v), r in ratios.items() if max(len(u), len(v)) <= k)
        for k in range(1, max_len + 1)
    ]
    assert list(report.min_trend) == trend
    u, v = report.witness
    assert _ratio(fs, u, v) == report.min_ratio


def test_additivity_scan_of_full_shift_scans_level_one_only():
    """Every level of a full-shift carpet repeats the key set of level 1,
    so the pairs of level 1 are the only ones scanned."""
    fs, _ = carpet_to_factor(column_carpet_21())
    max_len = 30
    # the two sweeps visit 2 * (2 + 4 * 29) = 236 nodes and level 1 has
    # 2 x 2 pairs; scanning every level's copy would charge 4 * 30^2 more
    report = additivity_scan(fs, max_len, node_budget=240)
    assert report.min_ratio == report.max_ratio == 1.0
    assert report.min_trend == (1.0,) * max_len
    assert report.verdict == "consistent-with-almost-additive"


def _assert_backward_sums_to_partition(fs, theta, depth):
    eng = CollapsedEngine(fs, theta)
    eng.levels(depth)
    back, errs = eng.backward(depth)
    assert len(back) == len(errs) == depth - 1  # a held level depth adds no list
    forward = eng.partition(depth).value
    # on every level, each state's log weight plus its suffix sum, added
    # up, gives S_depth.  The weights are off by the level's bound and
    # the sums by errs[k]; lw + sum rounds by eps/2 of its result, and
    # exactly on level 1, whose letters' states carry weight 1; adding
    # the terms is charged eps (|partial sum| + 3) per add, as for a
    # chain of two-term log-sum-exps
    for (level, level_err), sums, err in zip(eng._held, back, errs):
        pairs = [(lw, sums[s]) for s, (lw, _) in level.items() if sums[s] != -math.inf]
        xs = [lw + sub for lw, sub in pairs]
        total = _log_sum_exp(xs)
        rounding = _EPS / 2 * max((abs(x) for x, (lw, _) in zip(xs, pairs) if lw), default=0.0)
        chain = sum(_EPS * (abs(_log_sum_exp(xs[:i])) + 3.0) for i in range(2, len(xs) + 1))
        assert abs(total - forward.log) <= level_err + err + rounding + chain + forward.err
    return eng


@settings(max_examples=40, deadline=None)
@given(
    fs=factor_systems(),
    depth=st.integers(min_value=2, max_value=7),
    theta=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
)
def test_backward_suffix_sums_add_up_to_partition(fs, depth, theta):
    _assert_backward_sums_to_partition(fs, theta, depth)


@settings(max_examples=40, deadline=None)
@given(
    fs=factor_systems(),
    depth=st.integers(min_value=2, max_value=7),
    theta=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    max_len=st.integers(min_value=1, max_value=6),
)
def test_read_paths_match_their_reference_forms(fs, depth, theta, max_len):
    """``backward`` on a fresh engine and after ``levels(depth - 1)`` or
    ``levels(depth)``, and the additivity scan, return the floats of
    their state-by-state and pair-by-pair forms exactly."""
    for held in (0, depth - 1, depth):
        eng = CollapsedEngine(fs, theta)
        if held:
            eng.levels(held)
        back, errs = eng.backward(depth)
        assert (back, errs) == backward_oracle(eng, depth)
        assert len(back) == len(errs) == depth - 1
    assert additivity_scan(fs, max_len) == additivity_scan_oracle(fs, max_len)


@pytest.mark.parametrize("depth", [2, 4, 12])
def test_backward_suffix_sums_add_up_on_fixtures(any_fixture, depth):
    _assert_backward_sums_to_partition(any_fixture, THETA_32, depth)


def test_backward_suffix_sums_add_up_with_gcd_factors():
    # both symbols read as one letter and follow each other freely, so
    # every child's count vector (c, c) has its gcd taken out
    fs = make_factor(["a", "b"], [(x, y) for x in "ab" for y in "ab"], {"a": "x", "b": "x"})
    eng = _assert_backward_sums_to_partition(fs, THETA_32, 9)
    assert any(g > 1 for g in eng._dlogs)


def _assert_fiber_tables_match_dense_blocks(fs):
    """``fiber_supports`` and ``fiber_row_sums`` equal the tables read
    off the dense blocks, the order of every dict's keys included."""
    supports, row_sums = fiber_tables_oracle(fs)
    assert [list(d.items()) for d in fs.fiber_supports] == [list(d.items()) for d in supports]
    assert fs.fiber_row_sums == row_sums


@settings(max_examples=80, deadline=None)
@given(fs=factor_systems(max_states=7))
def test_fiber_tables_match_dense_blocks(fs):
    _assert_fiber_tables_match_dense_blocks(fs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), shape=st.sampled_from([(4, 2, 6, 0.7), (7, 3, 14, 0.5)]))
def test_fiber_tables_match_dense_blocks_on_carpets(seed, shape):
    """Restricted carpets of the benchmark's two classes, drawn by seed."""
    l, m, k, p = shape
    fs, _ = carpet_to_factor(random_restricted_carpet(random.Random(seed), l, m, k, p))
    _assert_fiber_tables_match_dense_blocks(fs)


def test_fiber_tables_match_dense_blocks_on_fixtures(any_fixture):
    _assert_fiber_tables_match_dense_blocks(any_fixture)


@pytest.mark.parametrize("spec", [column_carpet_21(), full_torus(3, 2)], ids=["column_carpet_21", "full_torus_32"])
def test_fiber_tables_match_dense_blocks_on_carpet_fixtures(spec):
    _assert_fiber_tables_match_dense_blocks(carpet_to_factor(spec)[0])
