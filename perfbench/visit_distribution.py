"""Measure the constants of the generated carpet classes.

    python3 perfbench/visit_distribution.py --draws 3000

For each class in ``workloads`` it makes ``--draws`` draws of the
generator (its own random stream, not a run's), prints how often each
seed-commit depth to the class's target comes up, and, over the draws
of the class's depth, the mean and quartiles of the engine visits at
that depth.  Those are the ``depth``, ``mean``, ``q1`` and ``q3`` of
the class.  It uses only the benchmark's own code.
"""

from __future__ import annotations

import argparse
import collections
import random
import statistics

import carpets
import workloads


def measure(cls: carpets.CarpetClass, draws: int) -> dict:
    l, m, k, p = cls.shape
    rng = random.Random(f"dist:{cls.label}")
    depths = collections.Counter()
    sizes = []
    for _ in range(draws):
        doc = carpets.draw_carpet(rng, l, m, k, p)
        M = carpets.mixing_index(k, doc["transitions"])
        if cls.max_m is not None and M > cls.max_m:
            continue
        depth = carpets.seed_depth_to_width(doc, cls.target)
        depths[depth] += 1
        if depth == cls.depth:
            sizes.append(carpets.visits(doc, depth, 10**9))
    q1, median, q3 = statistics.quantiles(sizes, n=4)
    # no two prefixes share a state: one visit per image word
    no_collapse = sum(m**n for n in range(1, cls.depth + 1))
    return {
        "class": cls.label,
        "draws": draws,
        "kept": sum(depths.values()),
        "depths": dict(sorted(depths.items())),
        "at_depth": len(sizes),
        "mean": round(statistics.mean(sizes)),
        "q1": round(q1),
        "median": round(median),
        "q3": round(q3),
        "min": min(sizes),
        "no_collapse": no_collapse,
        "share_no_collapse": sum(s == no_collapse for s in sizes) / len(sizes),
        "deciles": [round(q) for q in statistics.quantiles(sizes, n=10)],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=3000)
    args = parser.parse_args()
    for cls in workloads.CLASSES:
        print(measure(cls, args.draws))


if __name__ == "__main__":
    main()
