"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py``: each criterion appears
as exactly one PASSED/FAILED line.  Failure output carries the measured
numbers so a regression is diagnosable from the log alone.
"""

import math
import random
import time

import pytest

from carpetdim.counting import (
    CollapsedEngine,
    dn_count,
    is_image_point,
    partition_series,
    partition_sum,
    preimage_count,
)
from carpetdim.errors import ResourceError
from carpetdim.fixtures import (
    FIXTURE_BUILDERS,
    bipartite_fiber,
    column_carpet_21,
    fibonacci_fiber,
    full_torus,
    linear_lift_growth,
    parity_oscillation,
)
from carpetdim.measures import (
    additivity_scan,
    cesaro_defect,
    gibbs_scan,
    uniqueness_report,
)
from carpetdim.pressure import (
    compensation_at_periodic,
    hausdorff_dimension,
    mcmullen_closed_form,
    superadditive_constants,
)
from carpetdim.sft import (
    CarpetSpec,
    EventuallyPeriodicPoint,
    FactorSystem,
    Sft,
    carpet_to_factor,
)

from conftest import THETA_32, make_factor
from oracles import brute_force_count, extendable_prefix_oracle, image_word_counts

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def test_criterion_01_dimension_interval_contains_closed_form():
    """Full-shift carpets at depth 30: closed form inside the interval,
    interval width exactly (log K_tilde)/(30 log m) within 1e-9, < 10 s."""
    carpets = [
        column_carpet_21(),
        CarpetSpec(3, 2, ((0, 0), (1, 0), (2, 0), (0, 1))),
        CarpetSpec(4, 2, ((0, 0), (1, 1), (3, 0))),
        CarpetSpec(4, 3, ((0, 0), (1, 1), (2, 2), (3, 0), (0, 2))),
        CarpetSpec(5, 3, ((0, 0), (1, 0), (2, 1), (3, 2), (4, 1), (0, 2))),
        CarpetSpec(7, 5, ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 0), (6, 1), (2, 3))),
    ]
    assert len(carpets) >= 5
    for spec in carpets:
        start = time.monotonic()
        estimate = hausdorff_dimension(spec, 30)
        elapsed = time.monotonic() - start
        closed = mcmullen_closed_form(spec)
        assert elapsed < 10.0, f"carpet {spec.digits}: took {elapsed:.2f}s"
        assert estimate.lower <= closed <= estimate.upper, (
            f"carpet {spec.digits}: closed form {closed!r} outside "
            f"[{estimate.lower!r}, {estimate.upper!r}]"
        )
        width = estimate.upper - estimate.lower
        stated = estimate.pressure.constants.log_K_tilde / (30.0 * math.log(spec.m))
        assert abs(width - stated) < 1e-9, (
            f"carpet {spec.digits}: width {width!r} vs stated {stated!r}"
        )
    # the (3,2) column carpet's closed form sits near 1.3497
    assert mcmullen_closed_form(column_carpet_21()) == pytest.approx(1.3497, abs=1e-3)


def test_criterion_02_parity_fixture_counts_exact():
    """Lift counts of 1 2^n 1: exactly 1 for odd n <= 15, 2^(k-1)+1 for n = 2k <= 16."""
    fs = parity_oscillation()
    for n in range(1, 16, 2):
        word = ("1",) + ("2",) * n + ("1",)
        assert preimage_count(fs, word) == 1, f"odd n={n}"
    for k in range(1, 9):
        n = 2 * k
        word = ("1",) + ("2",) * n + ("1",)
        assert preimage_count(fs, word) == 2 ** (k - 1) + 1, f"even n={n}"


def _essential_random_system(rng):
    """Random essential system with at most 5 states, kept small enough
    that exhaustive length-8 enumeration stays cheap."""
    while True:
        k = rng.randint(2, 5)
        matrix = [[1 if rng.random() < 0.5 else 0 for _ in range(k)] for _ in range(k)]
        alive = list(range(k))
        changed = True
        while changed and alive:
            changed = False
            for i in list(alive):
                if not any(matrix[i][j] for j in alive) or not any(
                    matrix[j][i] for j in alive
                ):
                    alive.remove(i)
                    changed = True
        if not alive:
            continue
        symbols = tuple(f"s{i}" for i in alive)
        sub = tuple(tuple(matrix[i][j] for j in alive) for i in alive)
        sft = Sft(symbols, sub)
        if sft.word_count(8) > 6000:
            continue
        # mostly nontrivial images; keep a few single-letter edge cases
        if len(alive) == 1 or rng.random() < 0.15:
            n_letters = 1
        else:
            n_letters = rng.randint(2, len(alive))
        draws = [f"L{i}" for i in range(n_letters)]
        draws += [f"L{rng.randrange(n_letters)}" for _ in range(len(symbols) - n_letters)]
        rng.shuffle(draws)
        return FactorSystem(sft, dict(zip(symbols, draws)))


def _transfer_positive_words(fs, n):
    """All words the transfer recursion gives a nonzero count, by DFS."""
    blocks = fs.fiber_blocks
    letters = fs.image_alphabet
    out = set()

    def advance(vec, block):
        cols = len(block[0]) if block else 0
        return tuple(
            sum(vec[i] * block[i][j] for i in range(len(vec))) for j in range(cols)
        )

    def rec(b, vec, word):
        if len(word) == n:
            out.add(word)
            return
        for b2 in range(len(letters)):
            nxt = advance(vec, blocks[(b, b2)])
            if any(nxt):
                rec(b2, nxt, word + (letters[b2],))

    for b in range(len(letters)):
        rec(b, tuple(1 for _ in fs.fibers[b]), (letters[b],))
    return out


def _check_all_counts(fs, n_top):
    for n in range(1, n_top + 1):
        buckets = image_word_counts(fs, n)
        assert _transfer_positive_words(fs, n) == set(buckets), (
            f"occurring-word sets disagree at n={n}"
        )
        for word, count in buckets.items():
            assert preimage_count(fs, word) == count, (word, count)
            assert brute_force_count(fs, word) == count, (word, count)


def test_criterion_03_matrix_counts_equal_brute_force_everywhere():
    """Transfer-matrix counts equal brute-force enumeration for every word
    of length <= 8 on all four fixtures and 100 random small systems."""
    for build in FIXTURE_BUILDERS.values():
        _check_all_counts(build(), 8)
    rng = random.Random(20260818)
    for _ in range(100):
        _check_all_counts(_essential_random_system(rng), 8)


def test_criterion_04_splicing_inequalities_hold():
    """On the mixing fixtures, for indices up to 20: log-subadditivity,
    the two M-gap splicing bounds, and the K_tilde superadditivity, all
    within tracked rounding error."""
    N = 20
    for name, build in FIXTURE_BUILDERS.items():
        fs = build()
        engine = CollapsedEngine(fs, THETA_32)
        constants = superadditive_constants(engine)
        series = partition_series(engine, N)
        logs = [p.value.log for p in series]
        errs = [p.value.err for p in series]
        M = constants.M
        for n in range(1, N):
            for m in range(1, N - n + 1):
                slack = errs[n + m - 1] + errs[n - 1] + errs[m - 1]
                assert logs[n + m - 1] <= logs[n - 1] + logs[m - 1] + slack, (
                    f"{name}: subadditivity fails at n={n}, m={m}"
                )
        for l in range(M + 1, N):
            for n in range(1, N - l + 1):
                slack = errs[l + n - 1] + errs[n - 1] + errs[l - M - 1]
                assert logs[l + n - 1] >= logs[n - 1] + logs[l - M - 1] - slack, (
                    f"{name}: M-gap splice fails at l={l}, n={n}"
                )
        # K = S_M caps the other way, S_l <= K S_{l-M}, by
        # submultiplicativity alone
        for l in range(M + 1, N + 1):
            slack = errs[l - 1] + errs[l - M - 1] + errs[M - 1]
            assert logs[l - 1] <= logs[M - 1] + logs[l - M - 1] + slack, (
                f"{name}: K cap fails at l={l}"
            )
        for l in range(1, N):
            for n in range(1, N - l + 1):
                slack = (
                    errs[l + n - 1]
                    + errs[l - 1]
                    + errs[n - 1]
                    + constants.rounding_bound
                )
                assert (
                    logs[l + n - 1] + constants.log_K_tilde
                    >= logs[l - 1] + logs[n - 1] - slack
                ), f"{name}: K_tilde superadditivity fails at l={l}, n={n}"


def test_criterion_05_gibbs_envelope_containment():
    """Cylinder-mass ratios at level 18, lengths <= 10: inside the
    theoretical envelope on the two scan fixtures; equal to 1 within
    1e-10 on full-shift carpets."""
    for build in (parity_oscillation, bipartite_fiber):
        fs = build()
        env = gibbs_scan(fs, THETA_32, level=18, n_max=10)
        assert env.contained, (
            f"{build.__name__}: ratios [{env.min_ratio!r}, {env.max_ratio!r}] "
            f"escape [{env.C1_lower!r}, {env.C2_upper!r}]"
        )
    for l, m in ((3, 2), (4, 3)):
        fs, _ = carpet_to_factor(full_torus(l, m))
        theta = math.log(m) / math.log(l)
        env = gibbs_scan(fs, theta, level=18, n_max=10)
        assert abs(env.min_ratio - 1.0) < 1e-10, env.min_ratio
        assert abs(env.max_ratio - 1.0) < 1e-10, env.max_ratio


def test_criterion_06_additivity_verdicts():
    """Scan to length 12: the parity fixture is refuted with a stored
    witness whose ratio is below 0.01; the Fibonacci-fiber fixture stays
    consistent with a stable minimum ratio."""
    parity = parity_oscillation()
    refuted = additivity_scan(parity, max_len=12)
    assert refuted.verdict == "refuted-up-to-12"
    assert refuted.witness is not None
    u, v = refuted.witness
    ratio = preimage_count(parity, u + v) / (
        preimage_count(parity, u) * preimage_count(parity, v)
    )
    assert ratio < 0.01, f"witness ratio {ratio!r}"

    fibonacci = fibonacci_fiber()
    stable = additivity_scan(fibonacci, max_len=12)
    assert stable.verdict == "consistent-with-almost-additive"
    tail = stable.min_trend[-4:]
    assert not all(b < a for a, b in zip(tail, tail[1:])), (
        f"min ratio still strictly decreasing: {tail}"
    )


def test_criterion_07_compensation_values():
    """Spectral growth at the all-2s point of the Fibonacci fixture is
    log of the golden ratio within 1e-10; identity factor maps give 0;
    lift-prefix counts are submultiplicative for n + m <= 12."""
    fibonacci = fibonacci_fiber()
    point = EventuallyPeriodicPoint((), ("2",))
    spectral, _ = compensation_at_periodic(fibonacci, point, depth=12)
    assert abs(spectral.value - math.log(GOLDEN)) < 1e-10, spectral.value

    identity = make_factor(
        ["a", "b"],
        [("a", "a"), ("a", "b"), ("b", "a")],
        {"a": "a", "b": "b"},
    )
    ispec, iseries = compensation_at_periodic(
        identity, EventuallyPeriodicPoint((), ("a",)), depth=10
    )
    assert ispec.value == 0.0 and iseries.value == 0.0

    points = [
        EventuallyPeriodicPoint((), ("2",)),
        EventuallyPeriodicPoint(("1",), ("2",)),
        EventuallyPeriodicPoint((), ("1", "2")),
        EventuallyPeriodicPoint((), ("2", "2", "1")),
    ]
    for build in FIXTURE_BUILDERS.values():
        fs = build()
        for p in points:
            if not is_image_point(fs, p):
                continue
            for n in range(1, 12):
                for m in range(1, 12 - n + 1):
                    whole = dn_count(fs, p, n + m)
                    split = dn_count(fs, p, n) * dn_count(fs, p.shift(n), m)
                    assert whole <= split, (build.__name__, p, n, m, whole, split)


def test_criterion_08_linear_lift_prefix_counts():
    """On the linear-growth fixture, the point 1 2^inf has exactly n - 1
    extendable lift prefixes at depth n, matching the reachability oracle."""
    fs = linear_lift_growth()
    point = EventuallyPeriodicPoint(("1",), ("2",))
    for n in range(2, 11):
        count = dn_count(fs, point, n)
        assert count == n - 1, f"depth {n}: got {count}"
        assert count == extendable_prefix_oracle(fs, point, n), f"depth {n}"


def test_criterion_09_collapse_equivalence_and_speed():
    """Collapsed mode reproduces exact log sums within 1e-12 relative up
    to depth 14 on all fixtures; reaches depth 24 on a two-letter image
    inside 60 s where exact mode blows a 10^6-node budget."""
    for name, build in FIXTURE_BUILDERS.items():
        fs = build()
        for n in range(1, 15):
            exact = partition_sum(fs, n, THETA_32, mode="exact")
            collapsed = partition_sum(fs, n, THETA_32, mode="collapsed")
            rel = abs(exact.value.log - collapsed.value.log) / max(
                1.0, abs(exact.value.log)
            )
            assert rel < 1e-12, f"{name} n={n}: relative gap {rel!r}"

    fs = fibonacci_fiber()
    assert len(fs.image_alphabet) == 2
    start = time.monotonic()
    deep = partition_sum(fs, 24, THETA_32, mode="collapsed")
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"collapsed depth 24 took {elapsed:.1f}s"
    assert deep.word_count == 2**24
    with pytest.raises(ResourceError):
        partition_sum(fs, 24, THETA_32, mode="exact", node_budget=10**6)


def test_criterion_10_measure_level_diagnostics():
    """Desk-scale stand-ins for the measure-level claims: the Cesaro
    invariance defect is nonincreasing in the number of averaged terms
    on the Fibonacci fixture, and the uniqueness verdicts match the
    documented conclusions for each bundled system."""
    fibonacci = fibonacci_fiber()
    defects = [
        cesaro_defect(
            fibonacci, THETA_32, level=n_terms + 8, n_terms=n_terms, probe_depth=2
        )
        for n_terms in (4, 8, 16)
    ]
    assert defects[0] >= defects[1] >= defects[2], defects

    expected_verdicts = {
        "parity_oscillation": "unique-full-dimension-measure",
        "bipartite_fiber": "unique-full-dimension-measure",
        "fibonacci_fiber": "unique-conditional-on-almost-additivity",
        "linear_lift_growth": "unique-full-dimension-measure",
    }
    for name, build in FIXTURE_BUILDERS.items():
        fs = build()
        scan = additivity_scan(fs, max_len=12)
        report = uniqueness_report(fs, scan)
        assert report.conclusion == expected_verdicts[name], (
            f"{name}: {report.conclusion}"
        )

    env = gibbs_scan(fibonacci, THETA_32, level=16, n_max=8)
    assert env.contained
