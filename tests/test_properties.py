"""Property-based checks over randomly generated small systems."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from carpetdim.counting import (
    _EPS,
    _log_sum_exp,
    CollapsedEngine,
    dn_count,
    is_image_point,
    partition_sum,
    preimage_count,
)
from carpetdim.fixtures import column_carpet_21
from carpetdim.measures import additivity_scan
from carpetdim.sft import EventuallyPeriodicPoint, FactorSystem, Sft, carpet_to_factor
from carpetdim.specfile import dump_document, parse_system, system_doc

from conftest import THETA_32, make_factor
from oracles import brute_force_count, extendable_prefix_oracle, image_word_counts, product_count_oracle


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
    assert len(back) == len(errs) == depth
    # the letters' states carry weight 1, and their sums are off by
    # errs[0]; adding them is charged eps (|partial sum| + 3) per add, as
    # for a chain of two-term log-sum-exps
    xs = [x for x in back[0].values() if x != -math.inf]
    total = _log_sum_exp(xs)
    bound = errs[0] + sum(_EPS * (abs(_log_sum_exp(xs[:i])) + 3.0) for i in range(2, len(xs) + 1))
    forward = eng.partition(depth).value
    assert abs(total - forward.log) <= bound + forward.err
    return eng


@settings(max_examples=40, deadline=None)
@given(
    fs=factor_systems(),
    depth=st.integers(min_value=1, max_value=7),
    theta=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
)
def test_backward_suffix_sums_add_up_to_partition(fs, depth, theta):
    _assert_backward_sums_to_partition(fs, theta, depth)


@pytest.mark.parametrize("depth", [1, 4, 12])
def test_backward_suffix_sums_add_up_on_fixtures(any_fixture, depth):
    _assert_backward_sums_to_partition(any_fixture, THETA_32, depth)


def test_backward_suffix_sums_add_up_with_gcd_factors():
    # both symbols read as one letter and follow each other freely, so
    # every child's count vector (c, c) has its gcd taken out
    fs = make_factor(["a", "b"], [(x, y) for x in "ab" for y in "ab"], {"a": "x", "b": "x"})
    eng = _assert_backward_sums_to_partition(fs, THETA_32, 9)
    assert any(g > 1 for g in eng._dlogs)
