"""Tests of the benchmark's own generator and output checks.

    python3 -m pytest perfbench

Each check is fed a real report from ``carpetdim.cli.main`` and must
accept it, then a copy with a deliberately wrong bracket, count or
witness and must reject it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import carpets  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from carpetdim import cli  # noqa: E402
from carpetdim.counting import CollapsedEngine  # noqa: E402
from carpetdim.specfile import parse_system  # noqa: E402
from carpetdim.sft import carpet_to_factor  # noqa: E402

FIXTURES = workloads._fixtures()


def _primitive(k, arcs):
    # independent of carpets.mixing_index: integer matrix powers
    a = [[0] * k for _ in range(k)]
    for i, j in arcs:
        a[i][j] = 1
    power = a
    for _ in range((k - 1) ** 2):
        power = [[min(1, sum(power[i][t] * a[t][j] for t in range(k))) for j in range(k)]
                 for i in range(k)]
    return all(all(row) for row in power)


@pytest.mark.parametrize("cls", workloads.CLASSES, ids=lambda c: c.label)
def test_generator_is_deterministic_per_seed(cls):
    small = cls._replace(count=2)

    def draw(seed):
        return carpets.pick_carpets(seed, small)

    assert draw(3) == draw(3)
    assert draw(3) != draw(4)
    for c in draw(3):
        assert carpets.seed_depth_to_width(c["doc"], cls.target) == cls.depth
        assert cls.max_m is None or c["M"] <= cls.max_m


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("cls", workloads.CLASSES, ids=lambda c: c.label)
def test_picked_visits_sum_to_the_class_mean(cls, seed):
    assert cls.q1 <= cls.mean <= cls.q3  # the picker's invariant starts there
    chosen = carpets.pick_carpets(seed, cls)
    budget = cls.count * cls.mean
    assert len(chosen) == cls.count
    assert all(c["visits"] == carpets.visits(c["doc"], cls.depth, 10**9) for c in chosen)
    assert abs(sum(c["visits"] for c in chosen) - budget) <= budget // 100


def test_plans_are_deterministic_per_seed():
    assert workloads.diagnostics(2) == workloads.diagnostics(2)
    assert workloads.diagnostics(2)["specs"] != workloads.diagnostics(3)["specs"]


@pytest.mark.parametrize("shape", sorted({c.shape for c in workloads.CLASSES}))
def test_generator_yields_only_mixing_carpets(shape):
    l, m, k, p = shape
    rng = random.Random(7)
    for _ in range(15):
        doc = carpets.draw_carpet(rng, l, m, k, p)
        assert _primitive(k, doc["transitions"])
        assert {b for _, b in doc["digits"]} == set(range(m))
        assert len({tuple(d) for d in doc["digits"]}) == k


def test_mixing_index_rejects_periodic_and_reducible():
    assert carpets.mixing_index(2, [[0, 1], [1, 0]]) is None
    assert carpets.mixing_index(2, [[0, 0], [0, 1], [1, 1]]) is None
    assert carpets.mixing_index(2, [[0, 0], [0, 1], [1, 0]]) == 2
    assert carpets.mixing_index(2, [[0, 0], [0, 1], [1, 0], [1, 1]]) == 1


def test_visits_are_the_engine_visits():
    rng = random.Random(11)
    for _ in range(4):
        doc = carpets.draw_carpet(rng, 4, 2, 6, 0.7)
        spec = parse_system(doc)
        fs, _ = carpet_to_factor(spec)
        ps = CollapsedEngine(fs, spec.theta()).partition(9)
        assert carpets.visits(doc, 9, 10**9) == ps.visited_nodes
        assert carpets.visits(doc, 9, ps.visited_nodes - 1) == ps.visited_nodes


def test_log_partition_sums_match_the_engine():
    doc = carpets.draw_carpet(random.Random(12), 7, 3, 14, 0.5)
    spec = parse_system(doc)
    fs, _ = carpet_to_factor(spec)
    engine = CollapsedEngine(fs, spec.theta())
    for n, log_s in enumerate(carpets.log_partition_sums(doc, 5), 1):
        assert log_s == pytest.approx(engine.partition(n).value.log, rel=1e-12)


def _report(tmp_path, doc, *argv):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([argv[0], "--spec", str(spec), *map(str, argv[1:]), "--no-timestamp"]) == 0
    return json.loads(out.getvalue())


def _carpet(tmp_path):
    doc = carpets.draw_carpet(random.Random(5), 4, 2, 6, 0.7)
    return doc, _report(tmp_path, doc, "dimension", "--depth", 8)


def test_closed_form_check(tmp_path):
    doc = {"schema": 1, "kind": "carpet", "l": 3, "m": 2,
           "digits": [[0, 0], [1, 0], [0, 1]], "transitions": "full"}
    good = _report(tmp_path, doc, "dimension", "--depth", 30)
    assert checks.check_closed_form(good, doc) is None
    bad = copy.deepcopy(good)
    bad["dimension"]["upper"] = checks.closed_form(doc) - 1e-9
    assert checks.check_closed_form(bad, doc)


def test_width_check(tmp_path):
    doc, good = _carpet(tmp_path)
    lower, upper = good["dimension"]["lower"], good["dimension"]["upper"]
    wide = upper - lower
    assert checks.check_width(good, doc, wide, (lower - 0.1, lower + 0.1)) is None
    assert checks.check_width(good, doc, wide * 0.99, (lower - 0.1, upper))
    assert checks.check_width(good, doc, wide, (upper + 0.01, upper + 0.5))
    bad = copy.deepcopy(good)
    bad["dimension"]["lower"] = upper + 0.01
    assert checks.check_width(bad, doc, 10.0, (0.0, 2.0))


def test_exact_agreement_check(tmp_path):
    doc, collapsed = _carpet(tmp_path)
    exact = _report(tmp_path, doc, "dimension", "--depth", 8, "--mode", "exact")
    assert checks.check_exact_agreement(exact, collapsed) is None
    bad = copy.deepcopy(exact)
    bad["log_Sn"] += 1e-9
    assert checks.check_exact_agreement(bad, collapsed)


def test_gibbs_check(tmp_path):
    doc = FIXTURES["parity_oscillation"]
    good = _report(tmp_path, doc, "gibbs", "--level", 18, "--n-max", 10,
                   "--theta", workloads.FIXTURE_THETA)
    assert checks.check_gibbs(good) is None
    bad = copy.deepcopy(good)
    bad["gibbs"]["contained"] = False
    assert checks.check_gibbs(bad)
    bad = copy.deepcopy(good)
    bad["gibbs"]["max_ratio"] = bad["gibbs"]["C2"] * 2
    assert checks.check_gibbs(bad)


def test_additivity_check(tmp_path):
    doc = FIXTURES["parity_oscillation"]
    good = _report(tmp_path, doc, "additivity", "--max-len", 12)
    assert checks.check_additivity(good, doc) is None
    bad = copy.deepcopy(good)
    bad["additivity"]["min_ratio"] *= 1.5
    assert checks.check_additivity(bad, doc)
    bad = copy.deepcopy(good)
    bad["additivity"]["witness"]["left"] = ["2"]
    assert checks.check_additivity(bad, doc)


def test_cesaro_check(tmp_path):
    doc = FIXTURES["fibonacci_fiber"]
    good = _report(tmp_path, doc, "cesaro", "--level", 24, "--n-terms", 16,
                   "--theta", workloads.FIXTURE_THETA)
    assert checks.check_cesaro(good) is None
    bad = copy.deepcopy(good)
    bad["cesaro"]["defect"] = 2.0 / 16 + 1e-6
    assert checks.check_cesaro(bad)


def test_pressure_csv_check(tmp_path):
    doc, _ = _carpet(tmp_path)
    path = tmp_path / "series.csv"
    good = _report(tmp_path, doc, "pressure", "--depth", 9, "--csv", path)
    assert checks.check_pressure_csv(good, str(path)) is None
    bad = copy.deepcopy(good)
    bad["pressure"]["lower"] -= 1e-6
    assert checks.check_pressure_csv(bad, str(path))
    assert checks.check_pressure_csv(dict(good, n=8), str(path))


def test_pressure_brackets_of_one_spec_must_meet(tmp_path):
    doc = FIXTURES["fibonacci_fiber"]
    shallow = _report(tmp_path, doc, "pressure", "--depth", 24, "--theta", workloads.FIXTURE_THETA)
    deep = _report(tmp_path, doc, "pressure", "--depth", 60, "--theta", workloads.FIXTURE_THETA)
    reason, seen = checks.check_pressure_meets(shallow, (-math.inf, math.inf))
    assert reason is None
    assert checks.check_pressure_meets(deep, seen)[0] is None
    bad = copy.deepcopy(deep)
    bad["pressure"]["lower"] = shallow["pressure"]["upper"] + 1e-3
    bad["pressure"]["upper"] = bad["pressure"]["lower"] + 0.01
    assert checks.check_pressure_meets(bad, seen)[0]


def test_counts_check(tmp_path):
    doc = FIXTURES["parity_oscillation"]
    good = _report(tmp_path, doc, "counts", "--word", "1221")
    assert good["count"] == 2
    assert checks.check_counts(good, doc) is None
    assert checks.check_counts(dict(good, count=3), doc)


def test_compensation_check(tmp_path):
    doc = FIXTURES["fibonacci_fiber"]
    good = _report(tmp_path, doc, "compensation", "--cycle", "2", "--depth", 12)
    golden = math.log(checks.GOLDEN)
    assert checks.check_compensation(good, golden) is None
    assert checks.check_compensation(dict(good, spectral=golden + 1e-8), golden)
    assert checks.check_compensation(dict(good, gap=good["gap"] + 1e-3), golden)
