"""Structure layer: vertex shifts, factor maps, carpets, periodic points."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from carpetdim.errors import SpecError
from carpetdim.sft import (
    CarpetSpec,
    EventuallyPeriodicPoint,
    FactorSystem,
    Sft,
    carpet_to_factor,
    singleton_clumps,
    strongly_connected_components,
    validate_sft,
)

from conftest import make_factor
from oracles import fiber_blocks, structure_oracle


class TestSft:
    def test_from_edges_round_trip(self):
        sft = Sft.from_edges(["a", "b"], [("a", "a"), ("a", "b"), ("b", "a")])
        assert sft.symbols == ("a", "b")
        assert sft.matrix == ((1, 1), (1, 0))
        assert sft.successor_sets == ((0, 1), (0,))
        assert sft.index == {"a": 0, "b": 1}

    def test_from_edges_unknown_symbol(self):
        with pytest.raises(SpecError, match="unknown symbol"):
            Sft.from_edges(["a"], [("a", "z")])

    def test_rejects_empty_alphabet(self):
        with pytest.raises(SpecError, match="nonempty"):
            Sft((), ())

    def test_rejects_duplicate_symbols(self):
        with pytest.raises(SpecError, match="distinct"):
            Sft(("a", "a"), ((1, 1), (1, 1)))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(SpecError, match="square"):
            Sft(("a", "b"), ((1, 1),))

    def test_rejects_non_boolean_entries(self):
        with pytest.raises(SpecError, match="0 or 1"):
            Sft(("a",), ((2,),))

    def test_rejects_stranded_symbols(self):
        with pytest.raises(SpecError, match="no outgoing"):
            Sft(("a", "b"), ((1, 1), (0, 0)))
        with pytest.raises(SpecError, match="no incoming"):
            Sft(("a", "b"), ((1, 0), (1, 0)))

    def test_word_count_golden_mean(self):
        golden = Sft(("a", "b"), ((1, 1), (1, 0)))
        # no "bb": counts follow the shifted Fibonacci pattern
        assert [golden.word_count(n) for n in range(1, 7)] == [2, 3, 5, 8, 13, 21]

    def test_word_count_matches_path_enumeration(self):
        sft = Sft.from_edges(
            ["1", "2", "3"],
            [("1", "2"), ("2", "1"), ("2", "3"), ("3", "1"), ("3", "3")],
        )

        def paths(n):
            if n == 1:
                return sft.alphabet_size
            total = 0
            stack = [(x, 1) for x in range(sft.alphabet_size)]
            while stack:
                x, d = stack.pop()
                if d == n:
                    total += 1
                    continue
                stack.extend((y, d + 1) for y in sft.successor_sets[x])
            return total

        for n in range(1, 8):
            assert sft.word_count(n) == paths(n)

    def test_word_count_rejects_zero_length(self):
        golden = Sft(("a", "b"), ((1, 1), (1, 0)))
        with pytest.raises(Exception):
            golden.word_count(0)


@st.composite
def transition_matrices(draw):
    """0/1 matrices of 1-6 symbols with every row nonempty.  Symbol i
    steps only to symbols j with j = i + 1 modulo a drawn p, so periodic
    graphs are common, and a cap on the successors per symbol makes
    reducible ones common."""
    k = draw(st.integers(1, 6))
    p = draw(st.integers(1, k))
    width = draw(st.integers(1, k))
    matrix = []
    for i in range(k):
        targets = [j for j in range(k) if j % p == (i + 1) % p]
        row = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=width, unique=True))
        matrix.append([int(j in row) for j in range(k)])
    return matrix


class TestStructure:
    def test_full_shift_is_mixing_with_index_one(self):
        full = Sft(("a", "b"), ((1, 1), (1, 1)))
        report = validate_sft(full)
        assert report.irreducible and report.mixing
        assert report.mixing_index == 1
        assert report.period == 1

    def test_pure_cycle_is_irreducible_not_mixing(self):
        cycle = Sft.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        report = validate_sft(cycle)
        assert report.irreducible
        assert not report.mixing
        assert report.mixing_index is None
        assert report.period == 3

    def test_reducible_graph(self):
        sft = Sft.from_edges(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")])
        report = validate_sft(sft)
        assert not report.irreducible
        assert not report.mixing

    def test_fixture_mixing_indices(self, parity, bipartite, fibonacci, linear_lift):
        # Frozen expected values, hand-checked on the transition graphs.
        assert validate_sft(parity.source).mixing_index == 5
        assert validate_sft(bipartite.source).mixing_index == 4
        assert validate_sft(fibonacci.source).mixing_index == 2
        assert validate_sft(linear_lift.source).mixing_index == 2

    def test_mixing_index_definition(self, any_fixture):
        """A^M is entrywise positive and A^(M-1) is not."""
        sft = any_fixture.source
        M = validate_sft(sft).mixing_index
        k = sft.alphabet_size

        def power_positive(p):
            rows = [[int(i == j) for j in range(k)] for i in range(k)]
            for _ in range(p):
                rows = [
                    [
                        sum(rows[i][t] * sft.matrix[t][j] for t in range(k))
                        for j in range(k)
                    ]
                    for i in range(k)
                ]
            return all(all(e > 0 for e in row) for row in rows)

        assert power_positive(M)
        assert not power_positive(M - 1)

    @settings(max_examples=150, deadline=None)
    @given(transition_matrices())
    def test_matches_walk_oracle(self, matrix):
        """Period, irreducibility and mixing index agree with explicit
        closed walks and integer matrix powers, and mixing is exactly
        irreducible with period one."""
        k = len(matrix)
        assume(all(any(row[j] for row in matrix) for j in range(k)))
        report = validate_sft(Sft(tuple(map(str, range(k))), tuple(map(tuple, matrix))))
        got = (report.irreducible, report.mixing, report.mixing_index, report.period)
        assert got == structure_oracle(matrix)
        assert report.mixing == (report.irreducible and report.period == 1)

    def test_scc_partition(self):
        succ = [(0, 1), (0,), (3,), (2,)]
        comp = strongly_connected_components(succ)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]


class TestFactorSystem:
    def test_image_alphabet_sorted_and_fibers(self, parity):
        assert parity.image_alphabet == ("1", "2")
        assert parity.fiber_symbols("1") == ("1",)
        assert parity.fiber_symbols("2") == ("2", "3", "4", "5")

    def test_fiber_symbols_unknown_letter(self, parity):
        with pytest.raises(SpecError, match="unknown image letter"):
            parity.fiber_symbols("9")

    def test_fiber_blocks_are_submatrices(self, fibonacci):
        A = fibonacci.source.matrix
        for (a, b), block in fiber_blocks(fibonacci).items():
            rows = fibonacci.fibers[a]
            cols = fibonacci.fibers[b]
            assert block == tuple(tuple(A[i][j] for j in cols) for i in rows)

    def test_letter_map_must_cover_alphabet(self):
        sft = Sft(("a", "b"), ((1, 1), (1, 0)))
        with pytest.raises(SpecError, match="undefined on"):
            FactorSystem(sft, {"a": "x"})
        with pytest.raises(SpecError, match="unknown symbols"):
            FactorSystem(sft, {"a": "x", "b": "x", "c": "x"})

    def test_equality_and_hash(self):
        fs1 = make_factor(["a", "b"], [("a", "b"), ("b", "a")], {"a": "x", "b": "x"})
        fs2 = make_factor(["a", "b"], [("a", "b"), ("b", "a")], {"a": "x", "b": "x"})
        fs3 = make_factor(["a", "b"], [("a", "b"), ("b", "a")], {"a": "x", "b": "y"})
        assert fs1 == fs2 and hash(fs1) == hash(fs2)
        assert fs1 != fs3

    def test_singleton_clumps_on_fixtures(
        self, parity, bipartite, fibonacci, linear_lift
    ):
        assert singleton_clumps(parity) == ["1"]
        assert singleton_clumps(bipartite) == ["1"]
        assert singleton_clumps(fibonacci) == []
        assert singleton_clumps(linear_lift) == ["1"]

    def test_identity_map_fibers_are_singletons(self, identity_system):
        assert all(len(f) == 1 for f in identity_system.fibers)


class TestCarpetSpec:
    def test_validation(self):
        with pytest.raises(SpecError, match="l > m >= 2"):
            CarpetSpec(2, 2, ((0, 0),))
        with pytest.raises(SpecError, match="l > m >= 2"):
            CarpetSpec(3, 1, ((0, 0),))
        with pytest.raises(SpecError, match="at least one digit"):
            CarpetSpec(3, 2, ())
        with pytest.raises(SpecError, match="outside"):
            CarpetSpec(3, 2, ((3, 0),))
        with pytest.raises(SpecError, match="duplicate"):
            CarpetSpec(3, 2, ((0, 0), (0, 0)))
        with pytest.raises(SpecError, match="transition"):
            CarpetSpec(3, 2, ((0, 0), (1, 1)), transitions=((0, 5),))

    def test_geometry_constants(self, carpet_21):
        assert carpet_21.l == 3 and carpet_21.m == 2
        assert carpet_21.alpha() == pytest.approx(math.log(3) / math.log(2) - 1)
        assert carpet_21.theta() == pytest.approx(math.log(2) / math.log(3))
        assert math.isclose((carpet_21.alpha() + 1) * carpet_21.theta(), 1.0)

    def test_row_occupancy(self, carpet_21):
        # (0,0) and (1,0) at vertical level 0, (0,1) at level 1
        assert carpet_21.row_occupancy() == (2, 1)

    def test_full_shift_flag(self, carpet_21):
        assert carpet_21.is_full_shift()
        restricted = CarpetSpec(3, 2, ((0, 0), (1, 1)), transitions=((0, 1), (1, 0)))
        assert not restricted.is_full_shift()

    def test_digit_symbol(self, carpet_21):
        assert carpet_21.digit_symbol((2, 1)) == "2.1"


class TestCarpetToFactor:
    def test_full_carpet_wiring(self, carpet_21):
        fs, alpha = carpet_to_factor(carpet_21)
        assert alpha == pytest.approx(carpet_21.alpha())
        assert fs.source.alphabet_size == 3
        # full digit shift: every transition allowed
        assert all(all(e == 1 for e in row) for row in fs.source.matrix)
        # image letters are the vertical levels with at least one digit
        assert fs.image_alphabet == ("0", "1")
        assert fs.fiber_symbols("0") == ("0.0", "1.0")
        assert fs.fiber_symbols("1") == ("0.1",)

    def test_restricted_transitions_respected(self):
        spec = CarpetSpec(3, 2, ((0, 0), (1, 1)), transitions=((0, 1), (1, 0)))
        fs, _ = carpet_to_factor(spec)
        assert fs.source.matrix == ((0, 1), (1, 0))


class TestEventuallyPeriodicPoint:
    def test_letter_indexing(self):
        p = EventuallyPeriodicPoint(("1",), ("2", "3"))
        assert [p.letter(i) for i in range(6)] == ["1", "2", "3", "2", "3", "2"]

    def test_head(self):
        p = EventuallyPeriodicPoint((), ("a", "b"))
        assert p.head(5) == ("a", "b", "a", "b", "a")

    def test_shift_consumes_preperiod_then_rotates(self):
        p = EventuallyPeriodicPoint(("1",), ("2", "3"))
        s1 = p.shift()
        assert s1.preperiod == ()
        assert s1.head(4) == ("2", "3", "2", "3")
        s2 = s1.shift()
        assert s2.head(4) == ("3", "2", "3", "2")

    def test_shift_matches_letter_offset(self):
        p = EventuallyPeriodicPoint(("1", "2"), ("2", "1", "2"))
        for k in range(6):
            shifted = p.shift(k) if k else p
            assert [shifted.letter(i) for i in range(8)] == [
                p.letter(i + k) for i in range(8)
            ]

    def test_rejects_empty_cycle(self):
        with pytest.raises(Exception):
            EventuallyPeriodicPoint(("1",), ())
