"""Measure diagnostics: marginals, envelope scans, additivity, uniqueness."""

import math
import random

import pytest

from carpetdim.counting import CollapsedEngine, preimage_count
from carpetdim.errors import NonMixingError, PreconditionError, ResourceError
from carpetdim.fixtures import full_torus
from carpetdim.measures import (
    DEFAULT_REFUTATION_THRESHOLD,
    additivity_scan,
    cesaro_average,
    cesaro_defect,
    gibbs_scan,
    nu_marginal,
    uniqueness_report,
)
from carpetdim.sft import CarpetSpec, carpet_to_factor

from conftest import THETA_32, make_factor, random_restricted_carpet
from oracles import image_word_counts


def marginal_oracle(fs, theta, level, depth):
    """Depth marginal of the level partition measure by full enumeration."""
    buckets = image_word_counts(fs, level)
    total = sum(c**theta for c in buckets.values())
    masses = {}
    for word, count in buckets.items():
        key = word[:depth]
        masses[key] = masses.get(key, 0.0) + count**theta / total
    return masses


class TestNuMarginal:
    def test_masses_sum_to_one(self, any_fixture):
        for depth in (1, 2, 3):
            dist = nu_marginal(any_fixture, THETA_32, level=9, depth=depth)
            assert dist.total() == pytest.approx(1.0, abs=1e-10)
            assert all(m > 0 for m in dist.masses.values())

    def test_matches_enumeration_oracle(self, parity, fibonacci):
        for fs in (parity, fibonacci):
            for depth in (1, 2, 3):
                dist = nu_marginal(fs, THETA_32, level=7, depth=depth)
                oracle = marginal_oracle(fs, THETA_32, 7, depth)
                assert set(dist.masses) == set(oracle)
                for word, mass in oracle.items():
                    assert dist.mass(word) == pytest.approx(mass, abs=1e-10)

    def test_level_one_marginal_is_the_letters(self, any_fixture):
        dist = nu_marginal(any_fixture, THETA_32, level=1, depth=1)
        oracle = marginal_oracle(any_fixture, THETA_32, 1, 1)
        assert set(dist.masses) == set(oracle)
        for word, mass in oracle.items():
            assert dist.mass(word) == pytest.approx(mass, abs=1e-12)

    def test_marginals_are_tree_consistent(self, bipartite):
        """Summing depth-(d+1) masses over the last letter gives depth d."""
        shallow = nu_marginal(bipartite, THETA_32, level=8, depth=2)
        deep = nu_marginal(bipartite, THETA_32, level=8, depth=3)
        for word, mass in shallow.masses.items():
            children = sum(
                m for w, m in deep.masses.items() if w[:2] == word
            )
            assert children == pytest.approx(mass, abs=1e-10)

    def test_mass_of_absent_word_is_zero(self, parity):
        dist = nu_marginal(parity, THETA_32, level=6, depth=2)
        assert dist.mass(("1", "1")) == 0.0

    def test_preconditions(self, parity):
        with pytest.raises(PreconditionError):
            nu_marginal(parity, THETA_32, level=3, depth=0)
        with pytest.raises(PreconditionError):
            nu_marginal(parity, THETA_32, level=2, depth=3)


class TestGibbsScan:
    def test_envelope_contains_fixture_ratios(self, parity, bipartite):
        for fs in (parity, bipartite):
            env = gibbs_scan(fs, THETA_32, level=14, n_max=6)
            assert env.contained
            assert env.C1_lower <= env.min_ratio <= env.max_ratio <= env.C2_upper
            assert env.level == 14 and env.n_max == 6

    def test_full_shift_ratios_are_flat(self):
        fs, _ = carpet_to_factor(full_torus(3, 2))
        env = gibbs_scan(fs, THETA_32, level=14, n_max=6)
        assert env.min_ratio == pytest.approx(1.0, abs=1e-10)
        assert env.max_ratio == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "spec, level, n_max",
        [
            pytest.param(full_torus(3, 2), 18, 10, id="3-2"),
            pytest.param(full_torus(4, 3), 18, 10, id="4-3"),
        ]
        + [
            # rows of 3 and 1 digits: at these levels the ratios' own
            # rounding outgrows the constants' padding, so only the
            # ratios' slack keeps them inside
            pytest.param(CarpetSpec(3, 2, ((0, 0), (1, 0), (2, 0), (0, 1))), level, 1, id=f"3x2-rows-3-1-L{level}")
            for level in (30, 60, 120)
        ],
    )
    def test_full_shift_envelope_contains_ratios(self, spec, level, n_max):
        """K_tilde = 1 puts both ends at 1, so only the rounding padding
        keeps the flat ratios inside."""
        fs, _ = carpet_to_factor(spec)
        env = gibbs_scan(fs, spec.theta(), level=level, n_max=n_max)
        assert env.contained, (env.C1_lower, env.min_ratio, env.max_ratio, env.C2_upper)

    def test_envelope_constants_use_pressure_interval(self, fibonacci):
        env = gibbs_scan(fibonacci, THETA_32, level=13, n_max=5)
        pe = env.pressure_interval_used
        constants = pe.constants
        c1 = math.exp(-(constants.M - 1) * pe.upper) / constants.K_tilde
        c2 = constants.K_tilde * math.exp(env.n_max * (pe.upper - pe.lower))
        # the ends are the derived ones, padded outward for rounding only
        assert env.C1_lower == pytest.approx(c1, rel=1e-12)
        assert env.C2_upper == pytest.approx(c2, rel=1e-12)
        assert env.C1_lower < c1 and c2 < env.C2_upper

    def test_level_must_clear_scan_depth(self, fibonacci):
        with pytest.raises(PreconditionError, match="level"):
            gibbs_scan(fibonacci, THETA_32, level=6, n_max=6)

    def test_non_mixing_rejected(self):
        fs = make_factor(["a", "b"], [("a", "b"), ("b", "a")], {"a": "x", "b": "x"})
        with pytest.raises(NonMixingError):  # before any sweep, so no budget error
            gibbs_scan(fs, THETA_32, level=10, n_max=2, node_budget=1)

    def test_levels_are_swept_once(self, fibonacci):
        """S_{M-1} and S_L are read off the held levels, so the scan
        fits the budget of one sweep to its level."""
        eng = CollapsedEngine(fibonacci, THETA_32)
        eng.levels(18)
        assert eng.visited == 582
        env = gibbs_scan(fibonacci, THETA_32, 18, 10, node_budget=eng.visited)
        assert env.contained
        with pytest.raises(ResourceError, match="at level 18 of 18"):
            gibbs_scan(fibonacci, THETA_32, 18, 10, node_budget=eng.visited - 1)


class TestAdditivityScan:
    def test_parity_ratio_shrinks_geometrically(self, parity):
        report = additivity_scan(parity, max_len=8)
        # frozen expected value: the minimum over caps <= 8 is 1/81
        assert report.min_ratio == pytest.approx(1.0 / 81.0, rel=1e-12)
        assert report.max_ratio <= 1.0 + 1e-12
        assert report.verdict == "consistent-with-almost-additive"

    def test_parity_refuted_at_longer_lengths(self, parity):
        report = additivity_scan(parity, max_len=12)
        assert report.verdict == "refuted-up-to-12"
        assert report.min_ratio < DEFAULT_REFUTATION_THRESHOLD
        assert report.witness is not None
        u, v = report.witness
        ratio = preimage_count(parity, u + v) / (
            preimage_count(parity, u) * preimage_count(parity, v)
        )
        assert ratio == pytest.approx(report.min_ratio, rel=1e-12)
        assert ratio < DEFAULT_REFUTATION_THRESHOLD

    def test_threshold_is_part_of_the_verdict(self, parity):
        # with a looser threshold the same decreasing trend refutes at 8
        report = additivity_scan(parity, max_len=8, threshold=0.05)
        assert report.verdict == "refuted-up-to-8"
        assert report.threshold == 0.05

    def test_fibonacci_ratio_is_stable(self, fibonacci):
        report = additivity_scan(fibonacci, max_len=10)
        assert report.verdict == "consistent-with-almost-additive"
        assert report.min_ratio == pytest.approx(1.0 / 3.0, rel=1e-12)
        # the trend flattens: no strictly decreasing run of length 4
        tail = report.min_trend[-4:]
        assert not all(b < a for a, b in zip(tail, tail[1:]))

    def test_trend_is_cumulative_minimum(self, any_fixture):
        report = additivity_scan(any_fixture, max_len=9)
        trend = report.min_trend
        assert len(trend) == 9
        assert all(b <= a for a, b in zip(trend, trend[1:]))
        assert trend[-1] == report.min_ratio

    def test_ratios_never_exceed_one(self, any_fixture):
        """Concatenations only lose lifts: count(uv) <= count(u) count(v)."""
        report = additivity_scan(any_fixture, max_len=9)
        assert report.max_ratio <= 1.0 + 1e-12

    def test_budget_guard(self, parity):
        with pytest.raises(ResourceError):
            additivity_scan(parity, max_len=12, node_budget=50)

    def test_budget_names_the_lengths_scanned(self, parity):
        # both sweeps fit in 400 nodes; the pairs overrun it
        with pytest.raises(ResourceError, match="ends of length 3 against starts of length 8, max_len 12;"):
            additivity_scan(parity, max_len=12, node_budget=400)

    def test_rejects_bad_length(self, parity):
        with pytest.raises(PreconditionError):
            additivity_scan(parity, max_len=0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, parity, threshold):
        with pytest.raises(PreconditionError, match="threshold"):
            additivity_scan(parity, max_len=4, threshold=threshold)


class TestCesaro:
    def test_average_masses_sum_to_one(self, fibonacci):
        dist = cesaro_average(fibonacci, THETA_32, level=10, n_terms=4, probe_depth=2)
        assert dist.kind == "cesaro"
        assert dist.total() == pytest.approx(1.0, abs=1e-9)

    def test_defect_shrinks_with_more_terms(self, fibonacci):
        defects = [
            cesaro_defect(
                fibonacci, THETA_32, level=n_terms + 8, n_terms=n_terms, probe_depth=2
            )
            for n_terms in (4, 8, 16)
        ]
        assert defects[0] >= defects[1] >= defects[2]
        assert defects[2] < defects[0] / 2.0

    def test_defect_obeys_telescoping_bound(self, parity):
        """The N-term average moves by at most (two end masses)/N per shift."""
        n_terms = 6
        defect = cesaro_defect(parity, THETA_32, level=12, n_terms=n_terms, probe_depth=2)
        assert 0.0 <= defect <= 2.0 / n_terms

    def test_preconditions(self, parity):
        with pytest.raises(PreconditionError):
            cesaro_defect(parity, THETA_32, level=3, n_terms=4, probe_depth=2)
        with pytest.raises(PreconditionError):
            cesaro_defect(parity, THETA_32, level=9, n_terms=0, probe_depth=2)
        with pytest.raises(PreconditionError):
            cesaro_average(parity, THETA_32, level=9, n_terms=2, probe_depth=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestRestrictedCarpetsAgainstEnumeration:
    """The mass walks and the witness on seeded 4x2 restricted carpets,
    whose child states take out gcds greater than 1."""

    LEVEL = 7

    def system(self, seed):
        spec = random_restricted_carpet(random.Random(seed))
        fs, _ = carpet_to_factor(spec)
        eng = CollapsedEngine(fs, spec.theta())
        eng.levels(self.LEVEL)
        assert any(g > 1 for g in eng._dlogs)
        return fs, spec.theta()

    def test_nu_marginal(self, seed):
        fs, theta = self.system(seed)
        for depth in (1, 2, 3):
            dist = nu_marginal(fs, theta, level=self.LEVEL, depth=depth)
            oracle = marginal_oracle(fs, theta, self.LEVEL, depth)
            assert set(dist.masses) == set(oracle)
            for word, mass in oracle.items():
                assert dist.mass(word) == pytest.approx(mass, abs=1e-12)

    def test_cesaro_average(self, seed):
        fs, theta = self.system(seed)
        buckets = image_word_counts(fs, self.LEVEL)
        total = sum(c**theta for c in buckets.values())
        for n_terms, probe in ((3, 2), (2, 3), (4, 1)):
            dist = cesaro_average(fs, theta, level=self.LEVEL, n_terms=n_terms, probe_depth=probe)
            oracle = {}
            for word, count in buckets.items():
                for i in range(n_terms):
                    w = word[i : i + probe]
                    oracle[w] = oracle.get(w, 0.0) + count**theta / (total * n_terms)
            for w in set(oracle) | set(dist.masses):
                assert dist.mass(w) == pytest.approx(oracle.get(w, 0.0), abs=1e-12)

    def test_masses_at_the_edge_level(self, seed):
        """Words that end at the level itself take their last letter
        through the row sums: the marginal at depth == level and the
        Cesaro defect at level == n_terms + probe_depth, whose last shift
        ends there."""
        fs, theta = self.system(seed)
        dist = nu_marginal(fs, theta, level=self.LEVEL, depth=self.LEVEL)
        oracle = marginal_oracle(fs, theta, self.LEVEL, self.LEVEL)
        assert set(dist.masses) == set(oracle)
        for word, mass in oracle.items():
            assert dist.mass(word) == pytest.approx(mass, abs=1e-12)
        buckets = image_word_counts(fs, self.LEVEL)
        total = sum(c**theta for c in buckets.values())
        for n_terms, probe in ((4, 3), (6, 1), (1, 6)):
            ends = [{}, {}]
            for word, count in buckets.items():
                for end, i in zip(ends, (0, n_terms)):
                    w = word[i : i + probe]
                    end[w] = end.get(w, 0.0) + count**theta / total
            defect = max(abs(ends[1].get(w, 0.0) - ends[0].get(w, 0.0)) for w in set(ends[0]) | set(ends[1]))
            got = cesaro_defect(fs, theta, level=self.LEVEL, n_terms=n_terms, probe_depth=probe)
            assert got == pytest.approx(defect / n_terms, abs=1e-12)

    def test_additivity_witness_attains_min_ratio(self, seed):
        fs, _ = self.system(seed)
        report = additivity_scan(fs, max_len=5)
        u, v = report.witness
        assert 1 <= len(u) <= 5 and 1 <= len(v) <= 5
        ratio = preimage_count(fs, u + v) / (preimage_count(fs, u) * preimage_count(fs, v))
        assert ratio == pytest.approx(report.min_ratio, rel=1e-12)


class TestUniqueness:
    def test_clump_route(self, parity):
        scan = additivity_scan(parity, max_len=8)
        report = uniqueness_report(parity, scan)
        assert report.singleton_clump
        assert report.clump_letters == ("1",)
        assert report.conclusion == "unique-full-dimension-measure"

    def test_conditional_route(self, fibonacci):
        scan = additivity_scan(fibonacci, max_len=10)
        report = uniqueness_report(fibonacci, scan)
        assert not report.singleton_clump
        assert report.almost_additive_evidence
        assert report.conclusion == "unique-conditional-on-almost-additivity"

    def test_image_only_route(self):
        """No clump and additivity refuted: nothing beyond image uniqueness."""
        # parity-style lift collapse with a duplicated symbol over letter
        # "1", so no fiber is a singleton (mixing, index 5)
        fs = make_factor(
            ["1", "2", "3", "4", "5", "6"],
            [
                ("1", "2"), ("1", "3"),
                ("2", "1"), ("2", "2"),
                ("3", "4"), ("3", "5"),
                ("4", "3"),
                ("5", "1"), ("5", "3"),
                ("6", "2"), ("2", "6"),
            ],
            {"1": "1", "6": "1", "2": "2", "3": "2", "4": "2", "5": "2"},
        )
        scan = additivity_scan(fs, max_len=12)
        assert scan.verdict == "refuted-up-to-12"
        report = uniqueness_report(fs, scan)
        assert not report.singleton_clump
        assert report.conclusion == "image-uniqueness-only"

    def test_requires_mixing(self):
        fs = make_factor(["a", "b"], [("a", "b"), ("b", "a")], {"a": "x", "b": "x"})
        scan_stub = additivity_scan(fs, max_len=4)
        with pytest.raises(NonMixingError):
            uniqueness_report(fs, scan_stub)


class TestScansAgainstEnumeration:
    """The scans checked against their definitions, by full enumeration."""

    def test_gibbs_ratio_extremes(self, parity, bipartite, fibonacci):
        for fs, level, n_max in ((parity, 14, 6), (bipartite, 12, 6), (fibonacci, 10, 5)):
            env = gibbs_scan(fs, THETA_32, level=level, n_max=n_max)
            buckets = image_word_counts(fs, level)
            total = sum(c**THETA_32 for c in buckets.values())
            masses = {}
            for word, count in buckets.items():
                for n in range(1, n_max + 1):
                    masses[word[:n]] = masses.get(word[:n], 0.0) + count**THETA_32 / total
            p_hat = env.pressure_interval_used.upper
            ratios = [
                mass * math.exp(len(w) * p_hat) / preimage_count(fs, w) ** THETA_32
                for w, mass in masses.items()
            ]
            assert env.min_ratio == pytest.approx(min(ratios), rel=1e-9)
            assert env.max_ratio == pytest.approx(max(ratios), rel=1e-9)

    def test_cesaro_masses(self, parity, fibonacci):
        for fs, level, n_terms, probe in ((parity, 9, 4, 2), (fibonacci, 10, 3, 3)):
            dist = cesaro_average(fs, THETA_32, level=level, n_terms=n_terms, probe_depth=probe)
            buckets = image_word_counts(fs, level)
            total = sum(c**THETA_32 for c in buckets.values())
            oracle = {}
            for word, count in buckets.items():
                for i in range(n_terms):
                    w = word[i : i + probe]
                    oracle[w] = oracle.get(w, 0.0) + count**THETA_32 / (total * n_terms)
            assert set(oracle) <= set(dist.masses)
            for w in set(oracle) | set(dist.masses):
                assert dist.mass(w) == pytest.approx(oracle.get(w, 0.0), abs=1e-12)

    def test_additivity_ratio_extremes(self, any_fixture):
        max_len = 5
        report = additivity_scan(any_fixture, max_len=max_len)
        words = [w for j in range(1, max_len + 1) for w in image_word_counts(any_fixture, j)]
        cap_min = {}
        ratios = []
        for u in words:
            for v in words:
                joint = preimage_count(any_fixture, u + v)
                if joint:
                    ratio = joint / (preimage_count(any_fixture, u) * preimage_count(any_fixture, v))
                    ratios.append(ratio)
                    cap = max(len(u), len(v))
                    cap_min[cap] = min(cap_min.get(cap, math.inf), ratio)
        assert report.min_ratio == pytest.approx(min(ratios), rel=1e-12)
        assert report.max_ratio == pytest.approx(max(ratios), rel=1e-12)
        trend = [min(cap_min.get(c, math.inf) for c in range(1, k + 1)) for k in range(1, max_len + 1)]
        assert list(report.min_trend) == pytest.approx(trend, rel=1e-12)
