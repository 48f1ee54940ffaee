"""Seeded restricted-carpet generator and the benchmark's own carpet maths.

Nothing here imports carpetdim: the inputs a run feeds the program, and
the size rule that picks them, must be the same on every commit that is
compared, so they are computed from the carpet alone.

A carpet document is the program's ``carpet`` spec: an ``l x m`` grid,
a list of selected digits ``[a, b]`` and the list of allowed digit
transitions ``[i, j]``.  Its factor system has one source symbol per
digit and projects digit ``(a, b)`` to the row letter ``b``.
"""

from __future__ import annotations

import math
import random
from math import gcd
from typing import NamedTuple

SCHEMA = 1
MAX_DRAWS = 5000  # a bound on generation, far above what a pick needs


class CarpetClass(NamedTuple):
    """A class of generated carpets and how a run draws them.

    ``depth`` is the depth the seed commit needs to bring a draw to
    ``target``, the most common one.  ``mean``, ``q1`` and ``q3`` are the
    mean and quartiles of the engine visits at ``depth`` over draws of
    that depth, as ``visit_distribution.py`` measures them.  Draws whose
    mixing index exceeds ``max_m`` are left out.
    """

    label: str
    shape: tuple  # (l, m, digits k, transition probability p)
    target: float
    depth: int
    count: int
    mean: int
    q1: int
    q3: int
    max_m: int | None = None


def draw_carpet(rng: random.Random, l: int, m: int, k: int, p: float) -> dict:
    """One draw: ``k`` distinct digits covering every row, each of the
    ``k*k`` transitions kept with probability ``p``; redrawn until the
    digit shift is mixing."""
    cells = [(a, b) for b in range(m) for a in range(l)]
    while True:
        digits = sorted(rng.sample(cells, k), key=lambda c: (c[1], c[0]))
        if {b for _, b in digits} != set(range(m)):
            continue
        arcs = [[i, j] for i in range(k) for j in range(k) if rng.random() < p]
        if mixing_index(k, arcs) is not None:
            return {
                "schema": SCHEMA,
                "kind": "carpet",
                "l": l,
                "m": m,
                "digits": [list(d) for d in digits],
                "transitions": arcs,
            }


def mixing_index(k: int, arcs):
    """Least M with A^M > 0 for the k x k 0/1 matrix with these arcs, or
    None when there is none.  Wielandt: a primitive matrix reaches a
    positive power by (k-1)^2 + 1, and an imprimitive or reducible one
    never does."""
    succ = [0] * k
    for i, j in arcs:
        succ[i] |= 1 << j
    full = (1 << k) - 1
    reach = list(succ)  # reach[i]: targets of walks of length M from i
    for M in range(1, (k - 1) ** 2 + 2):
        if all(r == full for r in reach):
            return M
        reach = [_image(r, succ) for r in reach]
    return None


def _image(mask: int, succ) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= succ[i]
        mask >>= 1
        i += 1
    return out


def _blocks(doc: dict):
    """For each pair of row letters (a, b), and each digit j of row b,
    the positions i in row a's count vector with an arc to j."""
    rows = [[] for _ in range(doc["m"])]
    for i, (_, b) in enumerate(doc["digits"]):
        rows[b].append(i)
    allowed = {tuple(t) for t in doc["transitions"]}
    return [
        [[tuple(i for i, x in enumerate(rows[a]) if (x, y) in allowed) for y in rows[b]]
         for b in range(len(rows))]
        for a in range(len(rows))
    ]


def _advance(states, blocks, weighted, theta):
    """Next level of the collapsed tree; returns (states, edges)."""
    nxt: dict = {}
    edges = 0
    for (a, vec), weight in states.items():
        for b, cols in enumerate(blocks[a]):
            out = [sum([vec[i] for i in c]) for c in cols]
            if not any(out):
                continue
            edges += 1
            g = gcd(*out)
            key = (b, tuple([x // g for x in out]))
            if weighted:
                nxt[key] = nxt.get(key, 0.0) + weight * g ** theta
            else:
                nxt[key] = 0.0
    return nxt, edges


def _roots(doc: dict) -> dict:
    rows = [0] * doc["m"]
    for _, b in doc["digits"]:
        rows[b] += 1
    return {(b, (1,) * n): 1.0 for b, n in enumerate(rows) if n}


def log_partition_sums(doc: dict, depth: int) -> list[float]:
    """log S_1 .. log S_depth, S_n being the sum of count(w)^theta over
    image words w of length n.  A state of the collapsed prefix tree is
    (row letter, count vector over the row's digits divided by its gcd),
    weighted by the sum of gcd^theta over the words in the class."""
    theta = math.log(doc["m"]) / math.log(doc["l"])
    blocks = _blocks(doc)
    states = _roots(doc)
    out = []
    for n in range(1, depth + 1):
        out.append(math.log(sum(w * sum(v) ** theta for (_, v), w in states.items())))
        if n < depth:
            states, _ = _advance(states, blocks, True, theta)
    return out


def seed_depth_to_width(doc: dict, target: float) -> int:
    """Depth at which the seed-commit bracket first fits in ``target``.

    The bracket is [log S_n - log K~, log S_n] / (n log m) with
    K~ = max(S_M, max S_i S_j / S_(i+j) over i + j <= 2M), so its width
    is log K~ / (n log m).  This fixes the size of a generated job
    without running the program; the run itself still searches the
    depth with the program's own brackets.
    """
    k = len(doc["digits"])
    M = mixing_index(k, doc["transitions"])
    logs = log_partition_sums(doc, 2 * M)
    log_k = logs[M - 1]
    for i in range(1, 2 * M):
        for j in range(1, 2 * M - i + 1):
            log_k = max(log_k, logs[i - 1] + logs[j - 1] - logs[i + j - 1])
    return max(1, math.ceil(log_k / (target * math.log(doc["m"])) - 1e-9))


def visits(doc: dict, depth: int, cap: int) -> int:
    """Nodes the seed engine visits for one depth-``depth`` partition sum,
    or ``cap + 1`` once that passes ``cap``.

    Every memo miss at level k < depth visits each nonzero child, and
    the misses at level k are its states, so the visits are the level-1
    states plus the edges out of levels 1..depth-1.
    """
    blocks = _blocks(doc)
    states = _roots(doc)
    total = len(states)
    for _ in range(depth - 1):
        states, edges = _advance(states, blocks, False, 0.0)
        total += edges
        if total > cap:
            return cap + 1
    return total


def pick_carpets(seed: int, cls: CarpetClass) -> list[dict]:
    """``cls.count`` draws whose seed-commit depth to ``cls.target`` is
    ``cls.depth`` and whose visits at that depth sum to
    ``cls.count * cls.mean`` within 1%.

    One draw's cost varies about 70x across seeds.  Fixing the depth and
    the number of carpets fixes the levels a pass computes, and fixing
    the summed visits at their expected value fixes its work; what is
    left to vary with the seed is the program's cost per visit, averaged
    over ``count`` carpets.  A draw is taken as it comes unless it would
    put the mean visits of the carpets still to draw outside the class's
    quartiles [q1, q3]; the last one must close the sum.  So the first
    picks follow the generator's own distribution and the last ones are
    common draws.  Returns dicts with the document, M and the visits.
    """
    l, m, k, p = cls.shape
    rng = random.Random(f"{seed}:{cls.label}")
    budget = cls.count * cls.mean
    tol = budget // 100
    left = budget
    chosen = []
    for _ in range(MAX_DRAWS):
        slots = cls.count - len(chosen)
        if slots == 0:
            break
        if slots == 1:
            low, high = left - tol, left + tol
        else:
            # keeps left / (slots - 1) within [q1, q3] after this pick
            low, high = left - (slots - 1) * cls.q3, left - (slots - 1) * cls.q1
        doc = draw_carpet(rng, l, m, k, p)
        if seed_depth_to_width(doc, cls.target) != cls.depth:
            continue
        M = mixing_index(k, doc["transitions"])
        if cls.max_m is not None and M > cls.max_m:
            continue
        size = visits(doc, cls.depth, high)
        if low <= size <= high:
            doc["name"] = f"{cls.label}_{len(chosen)}"
            chosen.append({"doc": doc, "M": M, "visits": size})
            left -= size
    if len(chosen) < cls.count or abs(left) > tol:
        raise RuntimeError(f"{cls.label}: no {cls.count} carpets summing to {budget} visits "
                           f"in {MAX_DRAWS} draws")
    return chosen
