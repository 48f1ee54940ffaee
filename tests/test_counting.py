"""Counting layer: log-domain numbers, lift counts, partition sums."""

import math
import random
import struct
import tracemalloc
import weakref
from collections import Counter
from decimal import Decimal, localcontext
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from carpetdim import counting
from carpetdim.counting import (
    CollapsedEngine,
    ExactEngine,
    dn_count,
    is_image_point,
    partition_series,
    partition_sum,
    preimage_count,
    resolve_node_budget,
    viable_sets,
    DEFAULT_NODE_BUDGET,
)
from carpetdim.errors import PreconditionError, ResourceError
from carpetdim.fixtures import bipartite_fiber, fibonacci_fiber, linear_lift_growth, parity_oscillation
from carpetdim.sft import CarpetSpec, EventuallyPeriodicPoint, carpet_to_factor

from conftest import THETA_32, make_factor, random_mixing_system, random_restricted_carpet
from oracles import (
    backward_oracle,
    brute_force_count,
    extendable_prefix_oracle,
    extension_log_sum,
    fsum_log_sum_exp,
    image_word_counts,
    product_count_oracle,
    split_held,
    split_oracle,
)


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
                pc.value.log, abs=pe.value.err + pc.value.err
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
        series = partition_series(CollapsedEngine(bipartite, THETA_32), 8)
        assert [p.n for p in series] == list(range(1, 9))
        for p in series:
            single = partition_sum(bipartite, p.n, THETA_32)
            assert p.value.log == pytest.approx(single.value.log, abs=1e-12)
            assert p.word_count == single.word_count

    def test_collapsed_visits_far_fewer_nodes(self, fibonacci):
        pc = partition_sum(fibonacci, 16, THETA_32, mode="collapsed")
        assert pc.visited_nodes < 2_000
        assert pc.word_count == 2**16


class TestExactEngine:
    def test_one_walk_gives_every_shorter_sum(self, any_fixture, monkeypatch):
        walks = []
        walk = counting._prefix_words
        monkeypatch.setattr(counting, "_prefix_words", lambda fs, n: walks.append(n) or walk(fs, n))
        eng = ExactEngine(any_fixture, THETA_32)
        deep = eng.partition(12)
        read = [eng.partition(k) for k in range(1, 12)]
        assert walks == [12]
        assert all(ps.visited_nodes == deep.visited_nodes for ps in read)
        for k, ps in enumerate(read, 1):
            fresh = partition_sum(any_fixture, k, THETA_32, mode="exact")
            assert (ps.n, ps.value, ps.word_count) == (k, fresh.value, fresh.word_count)

    def test_visits_are_cumulative(self, fibonacci):
        eng = ExactEngine(fibonacci, THETA_32)
        first = eng.partition(6).visited_nodes
        assert eng.partition(4).visited_nodes == first
        deeper = eng.partition(8).visited_nodes
        assert deeper == first + partition_sum(fibonacci, 8, THETA_32, mode="exact").visited_nodes

    def test_budget_counts_every_walk(self, fibonacci):
        # the walks to depths 6 and 8 take 126 and 510 nodes
        eng = ExactEngine(fibonacci, THETA_32, node_budget=600)
        eng.partition(6)
        with pytest.raises(ResourceError, match="use collapsed mode"):
            eng.partition(8)
        assert eng.partition(5).word_count == partition_sum(fibonacci, 5, THETA_32).word_count

    @pytest.mark.parametrize("budget, reached", [(3, 4), (20, 6), (40, 7)])
    def test_budget_names_the_word_length_reached(self, fibonacci, budget, reached):
        # the walk is depth first, so its first nodes have lengths 1, 2, ...
        with pytest.raises(ResourceError, match=f"at word length {reached} of 8; use collapsed mode"):
            ExactEngine(fibonacci, THETA_32, node_budget=budget).partition(8)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda fs: ExactEngine(fs, THETA_32).partition(0), "depth must be >= 1"),
            (lambda fs: partition_series(ExactEngine(fs, THETA_32), 0), "depth must be >= 1"),
            (lambda fs: partition_series(CollapsedEngine(fs, THETA_32), 0), "depth must be >= 1"),
            (lambda fs: ExactEngine(fs, THETA_32).series(0), "depth must be >= 1"),
            (lambda fs: ExactEngine(fs, THETA_32).series(-1), "depth must be >= 1"),
            (lambda fs: CollapsedEngine(fs, THETA_32).series(0), "depth must be >= 1"),
            (lambda fs: CollapsedEngine(fs, THETA_32).series(-1), "depth must be >= 1"),
            (lambda fs: viable_sets(fs, EventuallyPeriodicPoint((), ("2",)), 0), "at least one position"),
            (lambda fs: EventuallyPeriodicPoint(("1",), ("2",)).shift(-1), "shift amount must be >= 0"),
        ],
        ids=[
            "exact-partition",
            "exact-series",
            "collapsed-series",
            "exact-engine-series-0",
            "exact-engine-series-neg",
            "collapsed-engine-series-0",
            "collapsed-engine-series-neg",
            "viable-sets",
            "shift",
        ],
    )
    def test_rejects_arguments_below_range(self, parity, call, message):
        with pytest.raises(PreconditionError, match=message):
            call(parity)

    def test_series_walks_once(self, parity, monkeypatch):
        walks = []
        walk = counting._prefix_words
        monkeypatch.setattr(counting, "_prefix_words", lambda fs, n: walks.append(n) or walk(fs, n))
        series = partition_series(ExactEngine(parity, THETA_32), 9)
        assert walks == [9]
        assert [ps.n for ps in series] == list(range(1, 10))


class TestNodeBudget:
    def test_exact_budget_trips(self, fibonacci):
        with pytest.raises(ResourceError, match="node budget"):
            partition_sum(fibonacci, 20, THETA_32, mode="exact", node_budget=1000)

    def test_collapsed_budget_trips(self, fibonacci):
        with pytest.raises(ResourceError, match="node budget"):
            partition_sum(fibonacci, 20, THETA_32, mode="collapsed", node_budget=5)

    def test_collapsed_budget_names_the_level_reached(self, fibonacci):
        """An engine without the join sweeps forward: levels 1..5 take 2
        + 4 + 6 + 10 + 14 = 36 visits, level 6 another 18.  The joined
        walk of ``partition_sum`` to S_20 builds forward levels 1..4 (2 +
        4 + 6 + 10 visits) and backward levels 1..4 (2 + 4 + 8 + 12), 48
        in all; forward level 5's 14 edges then overrun 50.  Forward
        level 4 (7 states), the first children of level 5 and backward
        level 4 (8 states) are held."""
        with pytest.raises(ResourceError, match="node budget") as info:
            CollapsedEngine(fibonacci, THETA_32, node_budget=50).partition(20)
        assert "at level 6 of 20 with" in str(info.value)
        assert "states held" in str(info.value)
        with pytest.raises(ResourceError, match="node budget") as info:
            partition_sum(fibonacci, 20, THETA_32, mode="collapsed", node_budget=50)
        assert "at level 5 and backward level 4 of 20 with 18 states held" in str(info.value)
        # a backward step names its level second: after forward levels
        # 1..3 (12 visits) and backward levels 1..2 (6), backward level
        # 3's 8 edges overrun 20
        with pytest.raises(ResourceError, match="at level 3 and backward level 3 of 20 with 13 states held"):
            partition_sum(fibonacci, 20, THETA_32, mode="collapsed", node_budget=20)
        # the walk ends at (9, 12): the sweeps take 132 + 210 visits, so
        # the first state's 2 pairs overrun 342, forward level 9 (17
        # states) and backward level 12 (16) held; at 345 the next
        # state's 14 pairs overrun it, and the message counts all 16
        with pytest.raises(ResourceError, match="at level 9 and backward level 12 of 20 with 33 states held"):
            partition_sum(fibonacci, 20, THETA_32, mode="collapsed", node_budget=342)
        with pytest.raises(ResourceError, match="with 33 states held and 16 pairs read; raise the budget"):
            partition_sum(fibonacci, 20, THETA_32, mode="collapsed", node_budget=345)
        # a read off level 5 names the level it stands in for and its pairs
        with pytest.raises(ResourceError, match="at level 6 of 6 with 9 states held and 6 pairs read; raise"):
            CollapsedEngine(fibonacci, THETA_32, node_budget=40).partition(6)

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
        # the explicit value or the default; the environment plays no part
        monkeypatch.setenv("CARPETDIM_NODE_BUDGET", "777")
        assert resolve_node_budget(None) == DEFAULT_NODE_BUDGET
        assert resolve_node_budget(123) == 123

    def test_rejects_budget_below_one(self):
        for bad in (0, -1):
            with pytest.raises(PreconditionError, match="must be >= 1"):
                resolve_node_budget(bad)


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


class TestDnCountAgainstOracle:
    """``dn_count`` reads the head's lift count vector and keeps the
    viable symbols of its last fiber; the oracle enumerates the
    extendable prefixes path by path."""

    @pytest.mark.parametrize("build", [parity_oscillation, bipartite_fiber, fibonacci_fiber, linear_lift_growth])
    @pytest.mark.parametrize(
        "preperiod, cycle",
        [((), ("2",)), (("1",), ("2",)), ((), ("1", "2")), ((), ("2", "2", "1")), (("z",), ("2",))],
        ids=["2", "1-2", "12", "221", "z-2"],
    )
    def test_fixtures(self, build, preperiod, cycle):
        fs = build()
        point = EventuallyPeriodicPoint(preperiod, cycle)
        for n in range(1, 9):
            assert dn_count(fs, point, n) == extendable_prefix_oracle(fs, point, n), n

    def test_random_mixing_systems(self):
        rng = random.Random(17)
        for _ in range(12):
            fs = random_mixing_system(rng)
            for _ in range(3):
                preperiod = tuple(rng.choice("xyz" if rng.random() < 0.2 else "xy") for _ in range(rng.randint(0, 2)))
                cycle = tuple(rng.choice("xy") for _ in range(rng.randint(1, 3)))
                point = EventuallyPeriodicPoint(preperiod, cycle)
                for n in range(1, 9):
                    assert dn_count(fs, point, n) == extendable_prefix_oracle(fs, point, n), (point, n)


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
        stepped = partition_series(CollapsedEngine(fs, THETA_32), 40)
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
        """A held level n - 1 is read through the row sums.  A fresh S_4
        of ``partition_sum`` splits at (3, 2), the same read; a fresh
        joined S_6 joins forward level 4 with backward level 3, the same
        sum over other terms, so it agrees within both errors.  Going on
        to level 9 visits what a fresh sweep to level 8 does: 2 roots
        and 4 + 6 + 10 + 14 + 18 + 22 + 26 + 30 edges out of levels
        1..8."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        shallow = eng.levels(6)
        visited = eng.visited
        held, fresh = eng.partition(4), partition_sum(fibonacci, 4, THETA_32)
        assert eng.visited == visited  # a held level is read, not swept
        assert (held.value.log, held.value.err) == (fresh.value.log, fresh.value.err)
        assert held.word_count == fresh.word_count == 2**4
        joined = CollapsedEngine(fibonacci, THETA_32, join=True)
        held, fresh, exact = eng.partition(6), joined.partition(6), partition_sum(fibonacci, 6, THETA_32, "exact")
        assert eng.visited == visited
        assert split_held(joined, 6) == (4, 3)
        assert held.word_count == fresh.word_count == exact.word_count == 2**6
        for a, b in ((held, fresh), (held, exact), (fresh, exact)):
            assert abs(a.value.log - b.value.log) <= a.value.err + b.value.err
        deep = eng.levels(9)
        assert deep[:6] == shallow
        assert eng.visited == CollapsedEngine(fibonacci, THETA_32).partition(9).visited_nodes == 132


def fibonacci_sweep():
    return fibonacci_fiber(), THETA_32


def restricted_carpet_1():
    """A seeded 4x2 restricted carpet whose levels 1..9 hold 442 states,
    284 of them distinct."""
    spec = random_restricted_carpet(random.Random(1))
    return carpet_to_factor(spec)[0], spec.theta()


KEPT_SWEEPS = [
    pytest.param(fibonacci_sweep, 18, id="fibonacci-18"),
    pytest.param(restricted_carpet_1, 10, id="restricted-carpet-10"),
]


def count_children(monkeypatch):
    """Patch the child kernel to count its calls per state."""
    calls: Counter = Counter()
    kernel = CollapsedEngine._children

    def counted(engine, state):
        calls[state] += 1
        return kernel(engine, state)

    monkeypatch.setattr(CollapsedEngine, "_children", counted)
    return calls


def joined_counts(fs, theta, k, j):
    """(visits, states built) of a fresh read of S_(k + j - 1) that
    joins forward level k with backward level j, counted from sweeps
    that hold every level: each side's roots and the edges out of its
    levels below the split, plus the pairs (u, w) of one letter whose
    count prim_u . prim_w is nonzero.  At j = 2 the pairs are level k's
    edges through the row sums, and only the forward side builds."""
    fwd = CollapsedEngine(fs, theta)
    if j == 2:
        held = fwd.levels(k + 1)
        return fwd.visited, sum(map(len, held[:k]))
    bwd = CollapsedEngine(fs.transposed, theta)
    ends, starts = fwd.levels(k)[-1], bwd.levels(j)[-1]
    pairs = sum(1 for a, u in ends for b, w in starts if a == b and sum(map(mul, u, w)))
    return fwd.visited + bwd.visited + pairs, fwd.collapsed_nodes + bwd.collapsed_nodes


class TestKeptEdges:
    """``levels`` keeps each state's child list for as long as it holds
    the levels, and ``backward`` reads the kept lists."""

    @pytest.mark.parametrize("build, depth", KEPT_SWEEPS)
    def test_children_built_once_per_distinct_state(self, monkeypatch, build, depth):
        fs, theta = build()
        calls = count_children(monkeypatch)
        eng = CollapsedEngine(fs, theta)
        held = eng.levels(depth)
        above = [state for level in held[:-1] for state in level]
        assert len(set(above)) < len(above)  # some states come back
        assert calls == Counter(set(above))
        calls.clear()
        back, errs = eng.backward(depth)
        assert not calls
        assert (back, errs) == backward_oracle(eng, depth)
        assert len(back) == len(errs) == depth - 1
        assert eng.backward(depth) == (back, errs)

    @pytest.mark.parametrize("build, depth", KEPT_SWEEPS)
    def test_going_on_builds_only_new_states(self, monkeypatch, build, depth):
        fs, theta = build()
        calls = count_children(monkeypatch)
        eng = CollapsedEngine(fs, theta)
        eng.levels(depth - 3)
        held = eng.levels(depth)
        assert calls == Counter({state for level in held[:-1] for state in level})
        calls.clear()
        shallow, errs = eng.backward(depth - 2)
        assert not calls
        assert (shallow, errs) == backward_oracle(eng, depth - 2)
        assert len(shallow) == len(errs) == depth - 3

    @pytest.mark.parametrize(
        "build, depth, visited, states, built, split, joined",
        [
            pytest.param(fibonacci_sweep, 18, 582, 325, 290, (8, 11), (400, 169), id="fibonacci-18"),
            pytest.param(restricted_carpet_1, 10, 886, 728, 442, (6, 5), (644, 144), id="restricted-carpet-10"),
        ],
    )
    def test_counters_unchanged(self, build, depth, visited, states, built, split, joined):
        """A kept child list still counts its edges each time it is read,
        and the read of S_depth off level depth - 1 counts the edges out
        of it as a step would, so a kept sweep visits what a sweep that
        drops its levels does.  ``collapsed_nodes`` counts the states
        built: every level of the kept sweep, levels 1..depth - 1 of the
        dropped one, which never builds level ``depth``.  A joined read
        of S_depth builds neither: fibonacci's walk ends at forward level
        8 and backward level 11 (102 + 180 visits, 65 + 104 states) and
        reads 118 pairs; the restricted carpet's at (6, 5) (106 + 58
        visits, 92 + 52 states) and reads 480 pairs."""
        fs, theta = build()
        kept, dropped = CollapsedEngine(fs, theta), CollapsedEngine(fs, theta)
        kept.levels(depth)
        dropped.partition(depth)
        assert (kept.visited, kept.collapsed_nodes) == (visited, states)
        assert (dropped.visited, dropped.collapsed_nodes) == (visited, built)
        eng = CollapsedEngine(fs, theta, join=True)
        eng.partition(depth)
        assert split_held(eng, depth) == split
        assert (eng.visited, eng.collapsed_nodes) == joined_counts(fs, theta, *split) == joined

    @pytest.mark.parametrize(
        "build, depth, budget, message",
        [
            pytest.param(fibonacci_sweep, 18, 581,
                         "at level 18 of 18 with 325 states held", id="fibonacci-581"),
            pytest.param(fibonacci_sweep, 18, 300,
                         "at level 14 of 18 with 177 states held", id="fibonacci-300"),
            pytest.param(restricted_carpet_1, 10, 885,
                         "at level 10 of 10 with 728 states held", id="restricted-885"),
            pytest.param(restricted_carpet_1, 10, 500,
                         "at level 9 of 10 with 416 states held", id="restricted-500"),
        ],
    )
    def test_budget_messages_unchanged(self, build, depth, budget, message):
        fs, theta = build()
        with pytest.raises(ResourceError, match=message):
            CollapsedEngine(fs, theta, node_budget=budget).levels(depth)

    def test_backward_holds_what_it_reads(self, fibonacci):
        """``backward(12, upto)`` holds levels 1..upto itself, so it returns
        a fresh engine's floats, exactly ``upto`` lists of them, whatever
        the engine held before: nothing, levels 1..4, the last level of a
        read of S_12, or level 12 alone after ``levels(6)`` and a joined
        S_30, which dropped levels 1..6 and their child lists.  A range
        error reads nothing."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.levels(4)
        visited = eng.visited
        for depth, upto, last in ((0, None, -1), (1, None, 0), (6, -1, 5), (6, 0, 5), (6, 6, 5), (12, 12, 11)):
            with pytest.raises(PreconditionError, match=f"upto in 1..{last}$"):
                eng.backward(depth, upto)
        assert eng.visited == visited and eng._back is None and not eng._sums  # nothing was read
        setups = [
            lambda eng: None,
            lambda eng: eng.levels(4),
            lambda eng: eng.partition(12),
            lambda eng: (eng.levels(6), eng.partition(30)),
        ]
        for upto in [*range(1, 12), None]:
            expected = CollapsedEngine(fibonacci, THETA_32).backward(12, upto)
            assert len(expected[0]) == len(expected[1]) == (upto or 11)
            for join in (False, True):
                for setup in setups:
                    eng = CollapsedEngine(fibonacci, THETA_32, join=join)
                    setup(eng)
                    assert eng.backward(12, upto) == expected
        eng = CollapsedEngine(fibonacci, THETA_32, join=True)
        eng.levels(6)
        eng.partition(30)
        assert (eng._first, len(eng._held), eng._edges) == (12, 1, None)  # the levels read go

    def test_a_join_keeps_the_held_levels(self, fibonacci):
        """A joined S_6 pairs held level 4 with backward level 3, so levels
        1..4 stay held and ``backward(4)`` reads them without a visit;
        S_12 goes on forward and drops them, and ``backward(4)`` then
        sweeps them again to the same floats."""
        eng = CollapsedEngine(fibonacci, THETA_32, join=True)
        eng.levels(4)
        eng.partition(6)
        assert split_held(eng, 6) == (4, 3)
        visited = eng.visited
        back = eng.backward(4)
        assert eng.visited == visited
        assert back == backward_oracle(eng, 4) and len(back[0]) == len(back[1]) == 3
        eng.partition(12)
        assert eng._edges is None
        assert eng.backward(4) == back
        assert eng._first == 1 and eng._edges

    def test_levels_below_one_leave_the_held_store(self, fibonacci):
        """``levels`` refuses a depth below 1, as ``partition`` does, and
        each refusal leaves the held levels, their child lists and the
        visits as they were."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.levels(6)
        held, edges, visited = list(eng._held), dict(eng.edges), eng.visited
        for depth in (0, -2):
            with pytest.raises(PreconditionError, match="depth must be >= 1"):
                eng.levels(depth)
            assert eng._held == held and eng.edges == edges and eng.visited == visited

    def test_a_dropped_engine_is_freed_at_once(self, fibonacci):
        """The kept child lists form no reference cycle with the engine,
        so its levels go when its last reference does, not at a later
        garbage collection."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.levels(8)
        eng.backward(8)
        ref = weakref.ref(eng)
        del eng
        assert ref() is None

    def test_a_budget_stop_leaves_the_held_levels_readable(self, fibonacci):
        """A sweep stopped by the budget leaves the held levels and their
        child lists as they were."""
        fresh = CollapsedEngine(fibonacci, THETA_32)
        fresh.levels(6)
        expected = fresh.backward(6)
        eng = CollapsedEngine(fibonacci, THETA_32, node_budget=fresh.visited + 5)
        eng.levels(6)
        for stop in (lambda: eng.partition(12), lambda: eng.levels(12)):
            with pytest.raises(ResourceError):
                stop()
            assert eng.backward(6) == expected


READ_SYSTEMS = [
    pytest.param(random_mixing_system(random.Random(seed)), id=f"mixing-{seed}") for seed in range(4)
] + [
    pytest.param(build(), id=build.__name__)
    for build in (parity_oscillation, bipartite_fiber, fibonacci_fiber, linear_lift_growth)
] + [
    pytest.param(carpet_to_factor(random_restricted_carpet(random.Random(seed)))[0], id=f"restricted-{seed}")
    for seed in (1, 2)
]


class TestRowSumRead:
    """S_n is read off level n - 1 through the row sums of the fiber
    blocks, or, with ``join``, as the join of a forward and a backward
    level where level n - 1 is not held; level n is never built."""

    @pytest.mark.parametrize("build", [parity_oscillation, bipartite_fiber, fibonacci_fiber, linear_lift_growth])
    def test_series_is_one_forward_sweep(self, build):
        """A series to depth 120 reads each S_n off level n - 1 and takes
        no join, even on a joined engine: it visits the roots and the
        edges out of levels 1..119, as a sweep holding every level to
        120 does, and its last sum is that sweep's read of S_120."""
        fs = build()
        eng, kept = CollapsedEngine(fs, THETA_32, join=True), CollapsedEngine(fs, THETA_32)
        last = eng.series(120)[-1]
        kept.levels(120)
        assert eng._back is None
        assert last.visited_nodes == kept.visited
        assert last[:3] == kept.partition(120)[:3]

    @pytest.mark.parametrize("build, depth", KEPT_SWEEPS)
    def test_partition_builds_no_state_of_its_level(self, monkeypatch, build, depth):
        fs, theta = build()
        held = CollapsedEngine(fs, theta).levels(depth)
        calls = count_children(monkeypatch)
        eng = CollapsedEngine(fs, theta)
        eng.partition(depth)
        # a sweep that drops its levels builds each level's children afresh
        assert calls == Counter(state for level in held[: depth - 2] for state in level)
        assert eng.collapsed_nodes == sum(len(level) for level in held[: depth - 1])

    @pytest.mark.parametrize("build, depth", KEPT_SWEEPS)
    def test_joined_read_builds_no_state_of_its_level(self, monkeypatch, build, depth):
        """Both sides of the split (k, j) build their levels up to it and
        no further, each level's children afresh, as sweeps that drop
        their levels do."""
        fs, theta = build()
        probe = CollapsedEngine(fs, theta, join=True)
        probe.partition(depth)
        k, j = split_held(probe, depth)
        assert k + j == depth + 1 and j > 2
        ends = CollapsedEngine(fs, theta).levels(k)
        starts = CollapsedEngine(fs.transposed, theta).levels(j)
        calls = count_children(monkeypatch)
        eng = CollapsedEngine(fs, theta, join=True)
        eng.partition(depth)
        assert calls == Counter(state for level in ends[: k - 1] for state in level) + Counter(
            state for level in starts[: j - 1] for state in level
        )
        assert eng.collapsed_nodes == sum(map(len, ends)) + sum(map(len, starts))

    @pytest.mark.parametrize("build, depth", KEPT_SWEEPS)
    def test_backward_builds_no_state_of_its_level(self, monkeypatch, build, depth):
        fs, theta = build()
        full = CollapsedEngine(fs, theta)
        full.levels(depth)
        back, errs = full.backward(depth)
        calls = count_children(monkeypatch)
        eng = CollapsedEngine(fs, theta)
        held = eng.levels(depth - 1)
        assert calls == Counter({state for level in held[:-1] for state in level})
        calls.clear()
        short, short_errs = eng.backward(depth)
        assert not calls
        # the same sums and bounds, each level's charge taking the largest
        # theta log g of the lists it reads, whether or not level depth
        # is held
        assert (short, short_errs) == (back, errs) == backward_oracle(eng, depth)
        assert len(short) == len(short_errs) == depth - 1
        assert eng.collapsed_nodes == sum(map(len, held))

    @pytest.mark.parametrize("build, depth", KEPT_SWEEPS)
    def test_backward_reads_the_sum_as_partition_does(self, build, depth):
        """``backward(depth)`` seeds itself from the read of S_depth, which
        charges its pairs on whichever call reads it first: after it the
        engine holds S_depth, ``visited`` and ``collapsed_nodes`` as after
        ``partition(depth)``, the later call changes none of them, and
        both orders give the same sums."""
        fs, theta = build()
        back_first, sum_first = CollapsedEngine(fs, theta), CollapsedEngine(fs, theta)
        for eng in (back_first, sum_first):
            eng.levels(depth - 1)
        back = back_first.backward(depth)
        ps = sum_first.partition(depth)
        assert (back_first.visited, back_first.collapsed_nodes) == (ps.visited_nodes, ps.collapsed_nodes)
        assert back_first.partition(depth) == ps
        assert sum_first.backward(depth) == back
        assert (back_first.visited, back_first.collapsed_nodes) == (sum_first.visited, sum_first.collapsed_nodes)

    @pytest.mark.parametrize("build, depth", KEPT_SWEEPS)
    def test_backward_is_held_to_the_budget_of_the_read(self, build, depth):
        """A first read through ``backward`` stops at the budget with the
        message ``partition`` gives."""
        fs, theta = build()
        eng = CollapsedEngine(fs, theta)
        eng.partition(depth)
        messages = []
        for read in (CollapsedEngine.partition, CollapsedEngine.backward):
            short = CollapsedEngine(fs, theta, node_budget=eng.visited - 1)
            short.levels(depth - 1)
            with pytest.raises(ResourceError) as raised:
                read(short, depth)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert f"at level {depth} of {depth}" in messages[0]

    def test_first_sum_keeps_the_held_level(self, fibonacci):
        """S_1 comes from the fiber sizes, so reading it leaves the level a
        sweep holds in place for the next sum.  On a joined engine S_13
        walks afresh from (1, 2) to the split (7, 7), as on an engine that
        never read S_1, and keeps nothing of S_12's walk: it adds what a
        fresh read of S_13 visits."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.partition(12)
        assert eng.partition(1).word_count == 2
        assert eng.partition(13).visited_nodes == CollapsedEngine(fibonacci, THETA_32).partition(13).visited_nodes
        eng, twin = CollapsedEngine(fibonacci, THETA_32, join=True), CollapsedEngine(fibonacci, THETA_32, join=True)
        eng.partition(12)
        twin.partition(12)
        visited = eng.visited
        assert eng.partition(1).word_count == 2
        assert eng.partition(13) == twin.partition(13)
        assert split_held(eng, 13) == split_held(twin, 13) == (7, 7)
        fresh = CollapsedEngine(fibonacci, THETA_32, join=True).partition(13)
        assert eng.visited - visited == fresh.visited_nodes

    @pytest.mark.parametrize("fs", READ_SYSTEMS)
    def test_read_agrees_with_exact_and_stepped_sums(self, fs):
        """For n = 1..10: the word count and S_n within both tracked
        errors of the exact walk's and of the sum over a built level n,
        and the visits of a sweep that builds level n.  A series, and an
        engine holding level n, read the same value."""
        theta = THETA_32
        exact, series, kept = ExactEngine(fs, theta), CollapsedEngine(fs, theta), CollapsedEngine(fs, theta)
        held = kept.levels(10)
        for n in range(1, 11):
            ps = CollapsedEngine(fs, theta).partition(n)
            stepped = CollapsedEngine(fs, theta)
            stepped.levels(n)
            assert ps.visited_nodes == stepped.visited
            assert series.partition(n) == ps
            visited = kept.visited
            assert kept.partition(n).value == ps.value
            assert kept.visited == visited
            ex = exact.partition(n)
            assert ps.word_count == ex.word_count == sum(m for _, m in held[n - 1].values())
            assert abs(ps.value.log - ex.value.log) <= ps.value.err + ex.value.err
            level_err = kept._held[n - 1][1]
            built = counting._summed(
                [lw + theta * math.log(sum(prim)) for (_, prim), (lw, _) in held[n - 1].items()], level_err
            )
            assert abs(ps.value.log - built.log) <= ps.value.err + built.err

    @pytest.mark.parametrize("fs", READ_SYSTEMS)
    def test_joined_read_agrees_with_exact_and_held_sums(self, fs):
        """For n = 1..10 on joined engines: the word count and S_n within
        both tracked errors of the exact walk's and of the sum over a
        built level n, and the visits and states of the walk's two
        sweeps and its pairs (``joined_counts``).  One engine reading n
        = 1..10 in turn reads the same value.  An engine holding level
        n - 1 reads the same value when the split is at j = 2, and past
        it the same sum over other terms, within both errors."""
        theta = THETA_32
        exact, kept = ExactEngine(fs, theta), CollapsedEngine(fs, theta)
        walked = CollapsedEngine(fs, theta, join=True)
        held = kept.levels(10)
        for n in range(1, 11):
            eng = CollapsedEngine(fs, theta, join=True)
            ps = eng.partition(n)
            k, j = split_held(eng, n)
            if n > 1:
                assert k + j == n + 1
                assert (ps.visited_nodes, ps.collapsed_nodes) == joined_counts(fs, theta, k, j)
            assert walked.partition(n)[:3] == ps[:3]
            read = kept.partition(n)
            assert read.word_count == ps.word_count
            if j == 2:
                assert read.value == ps.value
            else:
                assert abs(read.value.log - ps.value.log) <= read.value.err + ps.value.err
            ex = exact.partition(n)
            assert ps.word_count == ex.word_count == sum(m for _, m in held[n - 1].values())
            assert abs(ps.value.log - ex.value.log) <= ps.value.err + ex.value.err
            level_err = kept._held[n - 1][1]
            built = counting._summed(
                [lw + theta * math.log(sum(prim)) for (_, prim), (lw, _) in held[n - 1].items()], level_err
            )
            assert abs(ps.value.log - built.log) <= ps.value.err + built.err


class JumpCounter(CollapsedEngine):
    """A ``CollapsedEngine`` that counts its squaring jumps."""

    jumps = 0

    def _jump(self, *args):
        self.jumps += 1
        return super()._jump(*args)


def seeded_carpet(rng, *shape):
    spec = random_restricted_carpet(rng, *shape)
    return carpet_to_factor(spec)[0], spec.theta()


JOIN_SYSTEMS = {
    "mixing": lambda rng: (random_mixing_system(rng), THETA_32),
    "4x2": lambda rng: seeded_carpet(rng),
    "7x3": lambda rng: seeded_carpet(rng, 7, 3, 6, 0.5),
}
# the depth to which the exact walk is the reference: a 7x3 carpet has
# up to 3^n image words, so past 9 the reference is a held read instead
EXACT_DEPTHS = {"mixing": 14, "4x2": 14, "7x3": 9}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(JOIN_SYSTEMS)),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 14),
    deeper=st.integers(1, 4),
)
@example(kind="4x2", seed=0, n=6, deeper=1)  # a deeper read that leaves level n - 1 held
def test_joined_read_matches_exact_and_series(kind, seed, n, deeper):
    """A fresh S_n, joined wherever its walk passes B_2, has the exact
    word count and a log within both tracked errors of the reference.
    A series reads S_n off level n - 1 exactly as an engine holding
    levels 1..n - 1 does, and visits what a fresh read off that level
    does; it agrees with the fresh S_n within both errors, exactly when
    that read neither joins nor jumps.  Every joined read walks from
    (1, 2), whatever the engine holds, so reading S_1 .. S_n in turn, or
    S_(n + deeper) first, reads S_n at the fresh read's split and exactly
    as it does, even where the deeper read leaves level n - 1 held."""
    fs, theta = JOIN_SYSTEMS[kind](random.Random(seed))
    fresh, stepped = JumpCounter(fs, theta, join=True), JumpCounter(fs, theta, join=True)
    ps = fresh.partition(n)
    series = stepped.series(n)[-1]
    held = CollapsedEngine(fs, theta)
    held.levels(n - 1 or 1)
    assert stepped.jumps == 0
    assert series[:3] == held.partition(n)[:3]
    assert series.visited_nodes == (joined_counts(fs, theta, n - 1, 2)[0] if n > 1 else len(fs.fibers))
    assert series.word_count == ps.word_count
    if fresh.jumps or split_held(fresh, n)[1] > 2:
        assert abs(series.value.log - ps.value.log) <= series.value.err + ps.value.err
    else:
        assert series[:3] == ps[:3]
    walked = JumpCounter(fs, theta, join=True)
    for i in range(1, n + 1):
        last = walked.partition(i)
    assert last[:3] == ps[:3]
    after = JumpCounter(fs, theta, join=True)
    after.partition(n + deeper)
    assert after.partition(n)[:3] == ps[:3]
    if n > 1:  # S_1 is read off the fiber sizes, at no split
        for eng in (walked, after):
            split_held(eng, n)  # asserts that it holds the oracle's split
    if n <= EXACT_DEPTHS[kind]:
        ref = ExactEngine(fs, theta).partition(n)
    else:
        held = CollapsedEngine(fs, theta)
        held.levels(n - 1)
        ref = held.partition(n)
    assert ps.word_count == ref.word_count
    assert abs(ps.value.log - ref.value.log) <= ps.value.err + ref.value.err


def test_joined_read_memory_follows_its_states():
    """A read past B_2 folds each forward state's pairs into its seed and
    keeps one term per state, so its peak stays within a constant times
    the states held on both sides.  On this system S_16 pairs 413 states
    50 times over; a term per pair, about 65 B each, would need over
    3 kB per state."""
    fs, theta = JOIN_SYSTEMS["7x3"](random.Random(5))
    eng = CollapsedEngine(fs, theta, join=True)
    k, j = eng._walk(16, (1, 2), False)
    assert (k, j) == split_oracle(fs, theta, 16, 1) and j > 2
    states = sum(len(level) for e in (eng, eng._back) for level, _ in e._held)
    visited = eng.visited
    tracemalloc.start()
    try:
        eng._read_sum(16, k, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eng.visited - visited > 40 * states  # the pairs read
    assert peak < 200 * states
    assert eng.partition(16)[:3] == CollapsedEngine(fs, theta, join=True).partition(16)[:3]


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
        eng.levels(max_depth)
        back, errs = eng.backward(max_depth)
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

    def test_bounds_depend_only_on_the_levels_read(self, fibonacci):
        """A level's rounding charge takes the largest d of the edges it
        reads, so sweeping deeper first leaves backward(10)'s bounds as
        they were."""
        fresh = CollapsedEngine(fibonacci, THETA_32)
        fresh.levels(10)
        deep = CollapsedEngine(fibonacci, THETA_32)
        deep.levels(18)
        assert fresh.backward(10)[1] == deep.backward(10)[1]


# log weights near 1e300, spreads of e^-745 and past it (where the
# smaller exponential underflows to 0.0), equal terms and -inf; never
# -0.0, which no weight is, as sums of logs >= 0, and where hi and
# hi + log(1.0) differ in sign only
LOG_TERMS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300).map(lambda x: x + 0.0),
    st.sampled_from([0.0, 745.0, 746.0, 1e300, -1e300, 1e300 - 1e284, -math.inf]),
)


def same_float(x, y):
    return struct.pack("<d", x) == struct.pack("<d", y)


class TestLogSumExp:
    @settings(max_examples=500, deadline=None)
    @given(a=LOG_TERMS, b=LOG_TERMS, spread=st.one_of(st.none(), st.floats(min_value=0.0, max_value=800.0)))
    def test_two_terms_match_the_fsum_form(self, a, b, spread):
        """The closed form of two terms is the fsum form's float, bit for
        bit, in either order, for equal terms and at a drawn spread."""
        if spread is not None and math.isfinite(a):
            b = a - spread
        for terms in ([a, b], [b, a], [a, a]):
            assert same_float(counting._log_sum_exp(terms), fsum_log_sum_exp(terms)), terms

    @pytest.mark.parametrize(
        "terms",
        [[], [-math.inf], [-math.inf, -math.inf], [2.5], [0.0, -math.inf], [1.0, 2.0, 3.0], [7.0, -math.inf, 7.0]],
    )
    def test_other_counts_unchanged(self, terms):
        assert same_float(counting._log_sum_exp(terms), fsum_log_sum_exp(terms))


class TestBackwardAgainstOracle:
    def test_same_sums_and_bounds(self, any_fixture):
        """``backward(d)`` returns the state-by-state form's floats
        exactly, d - 1 lists of each, on a fresh engine, after
        ``levels(d - 1)`` (seeded through the row sums alone), and after
        ``levels(d)`` and ``levels(d + 4)``, whose held level d adds no
        list."""
        fs, theta = any_fixture, THETA_32
        for depth in range(2, 13):
            expected = backward_oracle(CollapsedEngine(fs, theta), depth)
            assert len(expected[0]) == len(expected[1]) == depth - 1
            for held in (0, depth - 1, depth, depth + 4):
                eng = CollapsedEngine(fs, theta)
                if held:
                    eng.levels(held)
                assert eng.backward(depth) == expected

    @pytest.mark.parametrize("fs", READ_SYSTEMS)
    def test_seeded_sums_and_bounds(self, fs):
        """``backward(12, upto)`` for every upto in 1..10 returns the floats
        of the state-by-state form, whose seed pairs forward level k of
        the split with backward level j of a fresh transposed sweep and
        adds that level's bound E_B: levels 1..upto and nothing more,
        whether the walk from (upto, 2) ends at j = 2 or past it."""
        depth = 12
        for upto in range(1, depth - 1):
            eng = CollapsedEngine(fs, THETA_32)
            eng.levels(upto)
            back, errs = eng.backward(depth, upto)
            assert (back, errs) == backward_oracle(eng, depth, upto)
            assert len(back) == len(errs) == upto

    def test_seeded_splits(self, fibonacci):
        """The walk from (upto, 2) takes the side with fewer states, so
        fibonacci's seeds at depth 12 pair level 6 with backward level 7
        for upto <= 6, and each larger upto moves the split forward.  The
        walk keeps both sides' levels, so a second seeded read visits
        nothing."""
        splits = [split_oracle(fibonacci, THETA_32, 12, upto) for upto in range(1, 11)]
        assert splits == [(6, 7)] * 6 + [(7, 6), (8, 5), (9, 4), (10, 3)]
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.levels(1)
        first = eng.backward(12, 1)
        assert len(eng._held) == 6 and (eng._back._first, len(eng._back._held)) == (1, 7)
        visited = eng.visited
        assert eng.backward(12, 1) == first and eng.visited == visited

    @pytest.mark.parametrize("fs", READ_SYSTEMS)
    def test_seeded_sums_are_the_extension_sums(self, fs):
        """Each seeded suffix sum at depth 7 is within its bound of the
        log of the sum of count^theta over every extension of its state to
        level 7, enumerated word by word in 40-digit ``Decimal``."""
        depth = 7
        exact: dict = {}
        for upto in range(1, depth - 1):
            eng = CollapsedEngine(fs, THETA_32)
            held = eng.levels(upto)
            back, errs = eng.backward(depth, upto)
            for i, (sums, err) in enumerate(zip(back, errs), 1):
                assert sums.keys() == held[i - 1].keys()
                for state, got in sums.items():
                    key = (state, depth - i)
                    if key not in exact:
                        exact[key] = extension_log_sum(fs, THETA_32, state, depth - i)
                    assert abs(Decimal(got) - exact[key]) <= Decimal(err)

    @pytest.mark.parametrize("fs", READ_SYSTEMS)
    def test_mirrored_sums_are_the_extension_sums(self, fs):
        """``backward(7, upto, mirror=7)`` returns the forward lists of
        levels 1..k of its split (k, j), the first upto being the floats of
        ``backward(7, upto)``, and, past B_2, the lists of levels 1..j of
        the transposed sweep: each within its bound of the log of the sum
        of count^theta over every extension of its state in the transposed
        source to level 7, enumerated in 40-digit ``Decimal``.  The second
        pass reads pairs the first charged, so the engine visits and
        builds what ``backward(7, upto)`` does.  A mirror level that the
        forward side reaches gives empty back lists, as j = 2 does, and
        drops the transposed sweep's child lists, as a plain read does."""
        depth = 7
        exact: dict = {}
        for upto in range(1, depth - 1):
            k, j = split_oracle(fs, THETA_32, depth, upto)
            plain, eng = CollapsedEngine(fs, THETA_32), CollapsedEngine(fs, THETA_32)
            sums, errs = plain.backward(depth, upto)
            front, front_errs, back, back_errs = eng.backward(depth, upto, mirror=depth)
            assert (eng.visited, eng.collapsed_nodes) == (plain.visited, plain.collapsed_nodes)
            assert len(front) == len(front_errs) == k
            assert (front[:upto], front_errs[:upto]) == (sums, errs)
            # the transposed child lists stay for the backward side's paths, and only then
            assert not (plain.transposed and plain.transposed.edges)
            assert bool(eng.transposed and eng.transposed.edges) == (j > 2)
            assert eng.backward(depth, upto, mirror=k)[2:] == ([], [])
            assert not (eng.transposed and eng.transposed.edges)
            if j == 2:
                assert back == back_errs == []
                continue
            held = eng.transposed.levels(j)
            assert len(back) == len(back_errs) == j
            for i, (level, err) in enumerate(zip(back, back_errs), 1):
                assert level.keys() == held[i - 1].keys()
                for state, got in level.items():
                    key = (state, depth - i)
                    if key not in exact:
                        exact[key] = extension_log_sum(fs.transposed, THETA_32, state, depth - i)
                    assert abs(Decimal(got) - exact[key]) <= Decimal(err)
