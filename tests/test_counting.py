"""Counting layer: log-domain numbers, lift counts, partition sums."""

import math
import random
import struct
import weakref
from collections import Counter
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

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
    fsum_log_sum_exp,
    image_word_counts,
    product_count_oracle,
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
        assert len(back) == len(errs) == depth
        assert eng.backward() == (back, errs)

    @pytest.mark.parametrize("build, depth", KEPT_SWEEPS)
    def test_going_on_builds_only_new_states(self, monkeypatch, build, depth):
        fs, theta = build()
        calls = count_children(monkeypatch)
        eng = CollapsedEngine(fs, theta)
        eng.levels(depth - 3)
        held = eng.levels(depth)
        assert calls == Counter({state for level in held[:-1] for state in level})
        calls.clear()
        shallow, _ = eng.backward(depth - 2)
        assert not calls
        assert len(shallow) == depth - 2

    @pytest.mark.parametrize(
        "build, depth, visited, states, built",
        [
            pytest.param(fibonacci_sweep, 18, 582, 325, 290, id="fibonacci-18"),
            pytest.param(restricted_carpet_1, 10, 886, 728, 442, id="restricted-carpet-10"),
        ],
    )
    def test_counters_unchanged(self, build, depth, visited, states, built):
        """A kept child list still counts its edges each time it is read,
        and the read of S_depth off level depth - 1 counts the edges out
        of it as a step would, so a kept sweep visits what a sweep that
        drops its levels does.  ``collapsed_nodes`` counts the states
        built: every level of the kept sweep, levels 1..depth - 1 of the
        dropped one, which never builds level ``depth``."""
        fs, theta = build()
        kept, dropped = CollapsedEngine(fs, theta), CollapsedEngine(fs, theta)
        kept.levels(depth)
        dropped.partition(depth)
        assert (kept.visited, kept.collapsed_nodes) == (visited, states)
        assert (dropped.visited, dropped.collapsed_nodes) == (visited, built)

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

    def test_backward_of_levels_not_held_is_rejected(self, fibonacci):
        eng = CollapsedEngine(fibonacci, THETA_32)
        with pytest.raises(PreconditionError, match="not held"):
            eng.backward()
        eng.levels(4)
        for depth in (0, 6):  # backward(5) reads levels 1..4, which are held
            with pytest.raises(PreconditionError, match="not held"):
                eng.backward(depth)
        eng.partition(6)  # goes on from level 4 to level 5 and drops levels 1..4
        for depth in (None, 4, 6):
            with pytest.raises(PreconditionError, match="not held"):
                eng.backward(depth)
        assert eng._edges is None

    def test_a_dropped_engine_is_freed_at_once(self, fibonacci):
        """The kept child lists form no reference cycle with the engine,
        so its levels go when its last reference does, not at a later
        garbage collection."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.levels(8)
        eng.backward()
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
            assert eng.backward() == expected


class TestRowSumRead:
    """S_n is read off level n - 1 through the row sums of the fiber
    blocks, and level n is never built."""

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
        # the same sums; the bounds charge the largest theta log g the
        # engine has met, and the full sweep has met level depth's too
        assert short == back[:-1]
        assert all(e <= f for e, f in zip(short_errs, errs[:-1])) and len(short_errs) == depth - 1
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
        sweep holds in place for the next sum."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.partition(12)
        assert eng.partition(1).word_count == 2
        assert eng.partition(13).visited_nodes == CollapsedEngine(fibonacci, THETA_32).partition(13).visited_nodes

    @pytest.mark.parametrize(
        "fs",
        [pytest.param(random_mixing_system(random.Random(seed)), id=f"mixing-{seed}") for seed in range(4)]
        + [pytest.param(build(), id=build.__name__) for build in
           (parity_oscillation, bipartite_fiber, fibonacci_fiber, linear_lift_growth)]
        + [pytest.param(carpet_to_factor(random_restricted_carpet(random.Random(seed)))[0],
                        id=f"restricted-{seed}") for seed in (1, 2)],
    )
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
        exactly, after ``levels(d)`` (level d's own sums last) and after
        ``levels(d - 1)`` (seeded through the row sums alone)."""
        fs, theta = any_fixture, THETA_32
        for depth in range(1, 13):
            for held in range(max(depth - 1, 1), depth + 1):
                eng = CollapsedEngine(fs, theta)
                eng.levels(held)
                assert eng.backward(depth) == backward_oracle(eng, depth)
