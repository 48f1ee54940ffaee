"""Counting layer: log-domain numbers, lift counts, partition sums."""

import math
import random
from collections import Counter
from decimal import Decimal, localcontext

import pytest

from carpetdim.counting import (
    CollapsedEngine,
    LogReal,
    brute_force_count,
    dn_count,
    image_word_counts,
    is_image_point,
    partition_series,
    partition_sum,
    preimage_count,
    resolve_node_budget,
    viable_sets,
    DEFAULT_NODE_BUDGET,
)
from carpetdim.errors import PreconditionError, ResourceError, SpecError
from carpetdim.fixtures import bipartite_fiber, fibonacci_fiber, linear_lift_growth, parity_oscillation
from carpetdim.sft import CarpetSpec, EventuallyPeriodicPoint, carpet_to_factor

from conftest import THETA_32, log_int, make_factor, random_mixing_system
from oracles import product_count_oracle


class TestLogReal:
    def test_zero_is_additive_identity(self):
        x = log_int(7)
        z = LogReal.zero()
        assert z.log == -math.inf
        for combined in (x.add(z), z.add(x)):
            assert combined.log == x.log
            assert combined.err == x.err

    def test_add_is_exact_within_bound(self):
        total = LogReal.zero()
        exact = 0
        for n in range(1, 400):
            total = total.add(log_int(n))
            exact += n
        assert abs(total.log - math.log(exact)) <= total.err_bound

    def test_add_bound_grows_with_depth_not_count(self):
        """Chained adds accumulate error linearly, and max-combining keeps
        the bound from doubling when balanced trees share subterms."""
        x = log_int(3)
        chain = x
        for _ in range(100):
            chain = chain.add(x)
        assert chain.err_bound < 1e-12
        # combining two copies of the same subtree must not double the bound
        doubled = chain.add(chain)
        assert doubled.err_bound < chain.err_bound + 1e-14

    def test_times_adds_logs_and_bounds(self):
        a = log_int(6)
        b = log_int(7)
        prod = a.times(b)
        assert prod.log == pytest.approx(math.log(42), abs=1e-14)
        assert prod.err >= a.err + b.err
        assert a.times(LogReal.zero()).log == -math.inf

    def test_scaled_by_log(self):
        x = log_int(5)
        y = x.scaled_by_log(math.log(3))
        assert y.log == pytest.approx(math.log(15), abs=1e-13)
        assert abs(y.log - math.log(15)) <= y.err_bound
        assert LogReal.zero().scaled_by_log(1.0).log == -math.inf


class TestPreimageCount:
    def test_rejects_empty_word(self, parity):
        with pytest.raises(PreconditionError):
            preimage_count(parity, ())
        with pytest.raises(PreconditionError):
            brute_force_count(parity, ())

    def test_unknown_letter_counts_zero(self, parity):
        assert preimage_count(parity, ("1", "9")) == 0
        assert brute_force_count(parity, ("9",)) == 0

    def test_single_letters_count_fiber_sizes(self, parity):
        assert preimage_count(parity, ("1",)) == 1
        assert preimage_count(parity, ("2",)) == 4

    def test_parity_alternation(self, parity):
        """Lifts of 1 2^n 1 collapse to one path for odd n."""
        for n in range(1, 10):
            word = ("1",) + ("2",) * n + ("1",)
            expected = 1 if n % 2 == 1 else 2 ** (n // 2 - 1) + 1
            assert preimage_count(parity, word) == expected

    def test_matches_brute_force_on_fixture_words(self, any_fixture):
        fs = any_fixture
        for n in range(1, 6):
            for word, count in image_word_counts(fs, n).items():
                assert preimage_count(fs, word) == count
                assert brute_force_count(fs, word) == count
                assert product_count_oracle(fs, word) == count

    def test_word_not_in_image_language(self, parity):
        # "1" cannot follow "1": symbol 1's successors map to letter "2"
        assert preimage_count(parity, ("1", "1")) == 0
        assert brute_force_count(parity, ("1", "1")) == 0

    def test_brute_force_refuses_long_words(self, parity):
        with pytest.raises(PreconditionError, match="refuses"):
            brute_force_count(parity, ("2",) * 13)

    def test_counts_are_exact_integers(self, bipartite):
        word = ("2",) * 12
        count = preimage_count(bipartite, word)
        assert isinstance(count, int)
        assert count == brute_force_count(bipartite, word)


class TestImageWordCounts:
    def test_bucket_totals_equal_source_word_count(self, any_fixture):
        fs = any_fixture
        for n in range(1, 7):
            buckets = image_word_counts(fs, n)
            assert sum(buckets.values()) == fs.source.word_count(n)
            assert all(c > 0 for c in buckets.values())

    def test_rejects_zero_length(self, parity):
        with pytest.raises(PreconditionError):
            image_word_counts(parity, 0)


class TestPartitionSums:
    def test_length_one_sum_by_hand(self, parity):
        # S_1 = 1^theta + 4^theta
        ps = partition_sum(parity, 1, THETA_32)
        expected = math.log(1.0 + 4.0**THETA_32)
        assert ps.value.log == pytest.approx(expected, abs=1e-12)
        assert ps.word_count == 2

    def test_exact_and_collapsed_agree(self, any_fixture):
        fs = any_fixture
        for n in (1, 2, 5, 9, 14):
            pe = partition_sum(fs, n, THETA_32, mode="exact")
            pc = partition_sum(fs, n, THETA_32, mode="collapsed")
            assert pe.word_count == pc.word_count
            assert pe.value.log == pytest.approx(
                pc.value.log, abs=pe.value.err_bound + pc.value.err_bound
            )

    def test_collapsed_matches_explicit_sum_over_buckets(self, fibonacci):
        for n in (2, 4, 6):
            buckets = image_word_counts(fibonacci, n)
            expected = math.log(
                sum(c**THETA_32 for c in buckets.values())
            )
            ps = partition_sum(fibonacci, n, THETA_32)
            assert ps.value.log == pytest.approx(expected, abs=1e-10)
            assert ps.word_count == len(buckets)

    def test_mode_validation(self, parity):
        with pytest.raises(PreconditionError):
            partition_sum(parity, 3, THETA_32, mode="wrong")
        with pytest.raises(PreconditionError):
            partition_sum(parity, 0, THETA_32)

    def test_series_matches_single_calls(self, bipartite):
        series = partition_series(bipartite, 8, THETA_32)
        assert [p.n for p in series] == list(range(1, 9))
        for p in series:
            single = partition_sum(bipartite, p.n, THETA_32)
            assert p.value.log == pytest.approx(single.value.log, abs=1e-12)
            assert p.word_count == single.word_count

    def test_collapsed_visits_far_fewer_nodes(self, fibonacci):
        pc = partition_sum(fibonacci, 16, THETA_32, mode="collapsed")
        assert pc.visited_nodes < 2_000
        assert pc.word_count == 2**16


class TestNodeBudget:
    def test_exact_budget_trips(self, fibonacci):
        with pytest.raises(ResourceError, match="node budget"):
            partition_sum(fibonacci, 20, THETA_32, mode="exact", node_budget=1000)

    def test_collapsed_budget_trips(self, fibonacci):
        with pytest.raises(ResourceError, match="node budget"):
            partition_sum(fibonacci, 20, THETA_32, mode="collapsed", node_budget=5)

    def test_collapsed_budget_names_the_level_reached(self, fibonacci):
        with pytest.raises(ResourceError, match="node budget") as info:
            partition_sum(fibonacci, 20, THETA_32, mode="collapsed", node_budget=50)
        # levels 1..5 take 2 + 4 + 6 + 10 + 14 = 36 visits, level 6 another 18
        assert "at level 6 of 20 with" in str(info.value)
        assert "states held" in str(info.value)

    def test_budget_message_counts_every_held_level(self, fibonacci):
        """levels(18) holds levels 1..17 (290 states) while it builds the
        35 states of level 18; a fresh sweep visits 582 nodes."""
        eng = CollapsedEngine(fibonacci, THETA_32, node_budget=581)
        with pytest.raises(ResourceError, match="at level 18 of 18 with 325 states held"):
            eng.levels(18)
        held = CollapsedEngine(fibonacci, THETA_32).levels(18)
        assert sum(len(level) for level in held[:17]) == 290
        assert len(held[17]) == 35

    def test_budget_message_of_a_jump_counts_every_held_level(self):
        """The 7x5 carpet of criterion 01 holds 5 states per level; levels
        1..3 take 5 + 25 + 25 visits, and the jump on from them overruns."""
        fs, _ = carpet_to_factor(
            CarpetSpec(7, 5, ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 0), (6, 1), (2, 3)))
        )
        eng = CollapsedEngine(fs, 0.8, node_budget=56)
        eng.levels(3)
        with pytest.raises(ResourceError, match="at level 4 of 2000 with 15 states held"):
            eng.partition(2000)

    def test_resolve_order(self, monkeypatch):
        monkeypatch.delenv("CARPETDIM_NODE_BUDGET", raising=False)
        assert resolve_node_budget(None) == DEFAULT_NODE_BUDGET
        assert resolve_node_budget(123) == 123
        monkeypatch.setenv("CARPETDIM_NODE_BUDGET", "777")
        assert resolve_node_budget(None) == 777
        assert resolve_node_budget(123) == 123

    def test_env_rejects_garbage(self, monkeypatch):
        # malformed text is a spec problem; a well-formed but
        # out-of-range explicit argument is a precondition problem
        monkeypatch.setenv("CARPETDIM_NODE_BUDGET", "not-a-number")
        with pytest.raises(SpecError, match="must be an integer"):
            resolve_node_budget(None)
        monkeypatch.setenv("CARPETDIM_NODE_BUDGET", "0")
        with pytest.raises(SpecError, match="must be >= 1"):
            resolve_node_budget(None)
        with pytest.raises(PreconditionError):
            resolve_node_budget(0)


class TestImagePoints:
    def test_all_twos_is_in_every_fixture_image(self, any_fixture):
        point = EventuallyPeriodicPoint((), ("2",))
        assert is_image_point(any_fixture, point)

    def test_all_ones_is_not_in_parity_image(self, parity):
        # the only lift symbol of "1" has no transition to itself
        assert not is_image_point(parity, EventuallyPeriodicPoint((), ("1",)))

    def test_unknown_letter_is_not_in_image(self, parity):
        assert not is_image_point(parity, EventuallyPeriodicPoint((), ("z",)))

    def test_viable_sets_are_nonincreasing_under_refinement(self, parity):
        point = EventuallyPeriodicPoint(("1",), ("2",))
        sets = viable_sets(parity, point, 6)
        idx = parity.image_index
        for i, s in enumerate(sets):
            fiber = set(parity.fibers[idx[point.letter(i)]])
            assert s <= fiber
            assert s  # the point is in the image, so every position is viable

    def test_dn_counts_linear_fixture(self, linear_lift):
        point = EventuallyPeriodicPoint(("1",), ("2",))
        for n in range(2, 11):
            assert dn_count(linear_lift, point, n) == n - 1

    def test_dn_zero_for_non_image_point(self, parity):
        assert dn_count(parity, EventuallyPeriodicPoint((), ("1",)), 4) == 0

    def test_dn_rejects_zero_depth(self, parity):
        with pytest.raises(PreconditionError):
            dn_count(parity, EventuallyPeriodicPoint((), ("2",)), 0)


class TestCollapsedEngine:
    def test_shared_engine_reuses_memo(self, fibonacci):
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.partition(10)
        first = eng.collapsed_nodes
        eng.partition(10)
        assert eng.collapsed_nodes == first  # fully memoized second time

    def test_stationary_levels_jump_to_the_stepped_sums(self, torus_32):
        """Full shifts keep one key set, so deep levels come from powers
        of one step; they must match stepping level by level."""
        fs, _ = carpet_to_factor(torus_32)
        stepped = partition_series(fs, 40, THETA_32)
        eng = CollapsedEngine(fs, THETA_32)
        for n in (40, 25, 3):  # jump, then levels jumped over
            jumped = eng.partition(n)
            assert jumped.word_count == stepped[n - 1].word_count == 2**n
            assert jumped.value.log == pytest.approx(stepped[n - 1].value.log, abs=1e-11)
            # the torus is a full shift: S_n = (2 * 3^theta)^n
            assert jumped.value.log == pytest.approx(n * math.log(4.0), abs=1e-11)
        assert eng.visited < stepped[-1].visited_nodes

    def test_shallower_level_after_deeper_one(self, fibonacci):
        eng = CollapsedEngine(fibonacci, THETA_32)
        deep = eng.partition(12)
        shallow = eng.partition(7)
        fresh = partition_sum(fibonacci, 7, THETA_32)
        assert deep.word_count == 2**12
        assert shallow.word_count == fresh.word_count
        assert shallow.value.log == pytest.approx(fresh.value.log, abs=1e-12)

    def test_jump_is_charged_against_the_budget(self):
        """The 7x5 carpet of criterion 01 has 5 letters, so levels 1 and 2
        take 5 + 25 visits; the jump's 25 edges must then overrun 30."""
        fs, _ = carpet_to_factor(
            CarpetSpec(7, 5, ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 0), (6, 1), (2, 3)))
        )
        eng = CollapsedEngine(fs, 0.8, node_budget=30)
        with pytest.raises(ResourceError, match="at level 3 of 2000 with 5 states held"):
            eng.partition(2000)
        assert eng.visited == 30 + 5  # stopped at the first state of the map

    def test_held_levels_are_read_and_extended(self, fibonacci):
        eng = CollapsedEngine(fibonacci, THETA_32)
        shallow = eng.levels(6)
        visited = eng.visited
        held, fresh = eng.partition(4), partition_sum(fibonacci, 4, THETA_32)
        assert eng.visited == visited  # a held level is read, not swept
        assert (held.value.log, held.value.err) == (fresh.value.log, fresh.value.err)
        assert held.word_count == fresh.word_count == 2**4
        deep = eng.levels(9)
        assert deep[:6] == shallow
        assert eng.visited == CollapsedEngine(fibonacci, THETA_32).partition(9).visited_nodes


def test_trivial_identity_counts():
    fs = make_factor(
        ["a", "b"],
        [("a", "a"), ("a", "b"), ("b", "a")],
        {"a": "a", "b": "b"},
    )
    # every image word lifts uniquely through a bijective letter map
    for n in range(1, 6):
        for word in image_word_counts(fs, n):
            assert preimage_count(fs, word) == 1


ORACLE_THETAS = (0.25, THETA_32, 0.8, 1.0)
ORACLE_DEPTHS = {  # fibonacci has 2.4M lifts at depth 14, so it stops at 11
    parity_oscillation: 14,
    bipartite_fiber: 14,
    fibonacci_fiber: 11,
    linear_lift_growth: 14,
}


def oracle_log_sum(counts, theta):
    """ln of the sum of c^theta over the lift counts, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        t = Decimal(theta)
        return sum(m * (t * Decimal(c).ln()).exp() for c, m in Counter(counts).items()).ln()


def assert_within_tracked_error(log, err, oracle):
    with localcontext() as ctx:
        ctx.prec = 60
        assert abs(Decimal(log) - oracle) <= Decimal(err), (log, err, oracle)


def assert_bounds_hold(fs, thetas, max_depth):
    """log S_n from both modes for n <= max_depth, and the level-1 suffix
    sums of a sweep to max_depth, each within its tracked error of a
    60-digit sum over the enumerated lift counts."""
    counts = {n: image_word_counts(fs, n) for n in range(1, max_depth + 1)}
    by_letter: dict = {}
    for word, c in counts[max_depth].items():
        by_letter.setdefault(fs.image_index[word[0]], []).append(c)
    for theta in thetas:
        eng = CollapsedEngine(fs, theta)
        for n in range(1, max_depth + 1):
            oracle = oracle_log_sum(counts[n].values(), theta)
            for ps in (eng.partition(n), partition_sum(fs, n, theta, mode="exact")):
                assert_within_tracked_error(ps.value.log, ps.value.err, oracle)
        back, errs = eng.backward(eng.levels(max_depth))
        for (b, ones), sub in back[0].items():
            assert ones == (1,) * len(fs.fibers[b])
            assert_within_tracked_error(sub, errs[0], oracle_log_sum(by_letter[b], theta))


class TestTrackedErrorAgainstOracle:
    @pytest.mark.parametrize("build", list(ORACLE_DEPTHS), ids=lambda f: f.__name__)
    def test_fixtures(self, build):
        assert_bounds_hold(build(), ORACLE_THETAS, ORACLE_DEPTHS[build])

    @pytest.mark.parametrize("seed", range(16))
    def test_random_systems(self, seed):
        assert_bounds_hold(random_mixing_system(random.Random(seed)), ORACLE_THETAS, 8)

    def test_random_systems_meet_gcd_factors(self):
        # the seeds above must exercise the rounding of theta * log g
        engines = [CollapsedEngine(random_mixing_system(random.Random(seed)), 0.5) for seed in range(16)]
        for eng in engines:
            eng.levels(8)
        assert sum(any(g > 1 for g in eng._dlogs) for eng in engines) >= 4
