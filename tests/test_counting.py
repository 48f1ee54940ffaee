"""Counting layer: log-domain numbers, lift counts, partition sums."""

import math

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
from carpetdim.sft import EventuallyPeriodicPoint, carpet_to_factor

from conftest import THETA_32, make_factor
from oracles import product_count_oracle


class TestLogReal:
    def test_zero_is_additive_identity(self):
        x = LogReal.from_int(7)
        z = LogReal.zero()
        assert z.is_zero()
        for combined in (x.add(z), z.add(x)):
            assert combined.log == x.log
            assert combined.err == x.err

    def test_from_int_matches_math_log(self):
        for n in (1, 2, 3, 10, 12345, 10**40):
            assert LogReal.from_int(n).log == math.log(n)

    def test_from_int_rejects_negative(self):
        with pytest.raises(PreconditionError):
            LogReal.from_int(-1)

    def test_add_is_exact_within_bound(self):
        total = LogReal.zero()
        exact = 0
        for n in range(1, 400):
            total = total.add(LogReal.from_int(n))
            exact += n
        assert abs(total.log - math.log(exact)) <= total.err_bound

    def test_add_bound_grows_with_depth_not_count(self):
        """Chained adds accumulate error linearly, and max-combining keeps
        the bound from doubling when balanced trees share subterms."""
        x = LogReal.from_int(3)
        chain = x
        for _ in range(100):
            chain = chain.add(x)
        assert chain.err_bound < 1e-12
        # combining two copies of the same subtree must not double the bound
        doubled = chain.add(chain)
        assert doubled.err_bound < chain.err_bound + 1e-14

    def test_times_adds_logs_and_bounds(self):
        a = LogReal.from_int(6)
        b = LogReal.from_int(7)
        prod = a.times(b)
        assert prod.log == pytest.approx(math.log(42), abs=1e-14)
        assert prod.err >= a.err + b.err
        assert a.times(LogReal.zero()).is_zero()

    def test_scaled_by_log(self):
        x = LogReal.from_int(5)
        y = x.scaled_by_log(math.log(3))
        assert y.log == pytest.approx(math.log(15), abs=1e-13)
        assert abs(y.log - math.log(15)) <= y.err_bound
        assert LogReal.zero().scaled_by_log(1.0).is_zero()

    def test_powered(self):
        x = LogReal.from_int(8)
        y = x.powered(THETA_32)
        assert y.log == pytest.approx(THETA_32 * math.log(8), abs=1e-14)
        assert LogReal.zero().powered(0.5).is_zero()

    def test_value_round_trips(self):
        assert LogReal.from_int(20).value == pytest.approx(20.0, rel=1e-15)


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

    def test_suffix_sums_scale_exactly_under_gcd(self, fibonacci):
        """Doubling the entry vector must scale the sum by exactly 2^theta."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        b = 0
        width = len(fibonacci.fibers[b])
        ones = (1,) * width
        twos = (2,) * width
        for depth in (1, 3, 5):
            s1, w1 = eng.suffix_sum(b, ones, depth)
            s2, w2 = eng.suffix_sum(b, twos, depth)
            assert w1 == w2
            assert s2.log == pytest.approx(
                s1.log + THETA_32 * math.log(2), abs=1e-12
            )


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
