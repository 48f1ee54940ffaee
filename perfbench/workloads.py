"""The three workloads as plans: spec documents plus a job list.

A job is one CLI invocation.  ``target`` marks a restricted-carpet job
whose depth the run searches before timing: the smallest depth at
which the bracket, in dimension units, is no wider than the target.
``guess`` is the depth the seed commit needs, where the search starts.
The bracket jobs, every ``dimension`` and ``pressure`` call, make up
time_to_width_s.
"""

from __future__ import annotations

import json
import math
import os

import carpets
import checks

HERE = os.path.dirname(os.path.abspath(__file__))

DIAG_LEVEL = 12  # gibbs, cesaro and pressure level: the class's depth to width
GIBBS_N_MAX = 7  # gibbs needs level > n_max + M, so M <= 4

# The generated classes.  Depth, mean and quartiles of the visits come
# from visit_distribution.py over 3000 draws each; see README.md.
RESTRICTED = [
    carpets.CarpetClass("4x2", (4, 2, 6, 0.7), 0.25, 14, 16, 14_039, 1_510, 28_936),
    carpets.CarpetClass("7x3", (7, 3, 14, 0.5), 0.6, 8, 16, 8_808, 8_457, 9_705),
]
DIAG = carpets.CarpetClass("diag", (4, 2, 6, 0.7), 0.3, DIAG_LEVEL, 24, 3_846, 780, 7_346,
                           max_m=DIAG_LEVEL - GIBBS_N_MAX - 1)
CLASSES = RESTRICTED + [DIAG]
FIXTURE_PRESSURE_DEPTHS = (24, 60, 120)
ADDITIVITY_LEN = 7
CESARO_TERMS = 8

# the six carpets of acceptance criterion 01
FULLSHIFT = [
    (3, 2, [[0, 0], [1, 0], [0, 1]]),
    (3, 2, [[0, 0], [1, 0], [2, 0], [0, 1]]),
    (4, 2, [[0, 0], [1, 1], [3, 0]]),
    (4, 3, [[0, 0], [1, 1], [2, 2], [3, 0], [0, 2]]),
    (5, 3, [[0, 0], [1, 0], [2, 1], [3, 2], [4, 1], [0, 2]]),
    (7, 5, [[0, 0], [1, 1], [2, 2], [3, 3], [4, 4], [5, 0], [6, 1], [2, 3]]),
]
FULLSHIFT_DEPTHS = (30, 200, 2000)

FIXTURE_THETA = repr(math.log(2) / math.log(3))  # the acceptance criteria's theta


def _fixtures() -> dict:
    with open(os.path.join(HERE, "fixtures.json"), encoding="utf-8") as fh:
        return json.load(fh)


def restricted(seed: int) -> dict:
    specs, jobs = {}, []
    for cls in RESTRICTED:
        for c in carpets.pick_carpets(seed, cls):
            name = c["doc"]["name"]
            specs[name] = c["doc"]
            jobs.append({"cmd": "dimension", "spec": name, "target": cls.target,
                         "guess": cls.depth, "shape": cls.label})
    return {"specs": specs, "jobs": jobs, "exact": list(specs)}


def fullshift(seed: int) -> dict:
    # nothing here is drawn: the seed only has to give the same inputs
    specs, jobs = {}, []
    for i, (l, m, digits) in enumerate(FULLSHIFT):
        name = f"full_{l}x{m}_{i}"
        specs[name] = {"schema": 1, "kind": "carpet", "name": name, "l": l, "m": m,
                       "digits": digits, "transitions": "full"}
        for depth in FULLSHIFT_DEPTHS:
            jobs.append({"cmd": "dimension", "spec": name, "depth": depth,
                         "check": "closed_form"})
    return {"specs": specs, "jobs": jobs, "exact": []}


def diagnostics(seed: int) -> dict:
    specs, jobs = {}, []
    for c in carpets.pick_carpets(seed, DIAG):
        name = c["doc"]["name"]
        specs[name] = c["doc"]
        jobs += [
            {"cmd": "gibbs", "spec": name, "depth": DIAG_LEVEL,
             "args": ["--level", DIAG_LEVEL, "--n-max", GIBBS_N_MAX]},
            {"cmd": "additivity", "spec": name, "args": ["--max-len", ADDITIVITY_LEN],
             "depth": ADDITIVITY_LEN},
            {"cmd": "cesaro", "spec": name, "depth": DIAG_LEVEL,
             "args": ["--level", DIAG_LEVEL, "--n-terms", CESARO_TERMS]},
            {"cmd": "pressure", "spec": name, "depth": DIAG_LEVEL, "csv": True},
        ]
    exact = list(specs)
    # the bundled fixtures at the parameters of the acceptance criteria
    for name, doc in _fixtures().items():
        specs[name] = doc
        jobs += [
            {"cmd": "gibbs", "spec": name, "depth": 18,
             "args": ["--level", 18, "--n-max", 10, "--theta", FIXTURE_THETA]},
            {"cmd": "additivity", "spec": name, "args": ["--max-len", 12], "depth": 12},
            {"cmd": "cesaro", "spec": name, "depth": 24,
             "args": ["--level", 24, "--n-terms", 16, "--probe-depth", 2, "--theta", FIXTURE_THETA]},
        ]
        jobs += [{"cmd": "pressure", "spec": name, "depth": depth,
                  "args": ["--theta", FIXTURE_THETA]} for depth in FIXTURE_PRESSURE_DEPTHS]
    jobs += [
        {"cmd": "counts", "spec": "parity_oscillation", "args": ["--word", "1221"], "depth": 4},
        {"cmd": "compensation", "spec": "fibonacci_fiber", "depth": 12,
         "args": ["--cycle", "2", "--depth", 12], "expect": math.log(checks.GOLDEN)},
    ]
    return {"specs": specs, "jobs": jobs, "exact": exact}


PLANS = {"restricted": restricted, "fullshift": fullshift, "diagnostics": diagnostics}
