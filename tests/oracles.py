"""Test-side oracles, implemented independently of the library internals.

Everything here works from the raw transition matrix and letter map by
explicit enumeration, so a bug in the library's vector recursions or
viability fixed points cannot hide in the oracle as well.
"""

import itertools
import math

from carpetdim.sft import EventuallyPeriodicPoint, FactorSystem


def product_count_oracle(fs: FactorSystem, word) -> int:
    """Lift count by brute Cartesian product over the fibers.

    Exponential in the word length; keep words short (<= 6 or so).
    """
    idx = fs.image_index
    if any(letter not in idx for letter in word):
        return 0
    fibers = [fs.fibers[idx[letter]] for letter in word]
    matrix = fs.source.matrix
    total = 0
    for tup in itertools.product(*fibers):
        if all(matrix[tup[i]][tup[i + 1]] for i in range(len(tup) - 1)):
            total += 1
    return total


def extendable_prefix_oracle(
    fs: FactorSystem, point: EventuallyPeriodicPoint, n: int
) -> int:
    """Count length-n lift prefixes extendable to infinite lifts.

    Survival sets ("can lift the next t letters starting here") only
    shrink as t grows, and at a fixed position of the cycle they can
    shrink at most |X| times, so running the survival DP for
    q * |X| + q extra steps past position n makes the sets at positions
    0..n equal to their infinite-horizon limits.  Prefixes are then
    enumerated path by path.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    k = fs.source.alphabet_size
    succ = fs.source.successor_sets
    idx = fs.image_index
    q = len(point.cycle)
    total_len = n + q * k + q + 1

    fibers = []
    for i in range(total_len + 1):
        letter = point.letter(i)
        if letter in idx:
            fibers.append(set(fs.fibers[idx[letter]]))
        else:
            fibers.append(set())

    alive = [set() for _ in range(total_len + 1)]
    alive[total_len] = fibers[total_len]
    for i in range(total_len - 1, -1, -1):
        nxt = alive[i + 1]
        alive[i] = {x for x in fibers[i] if any(y in nxt for y in succ[x])}

    prefixes = set()

    def extend(i, path):
        if i == n:
            prefixes.add(tuple(path))
            return
        for y in succ[path[-1]]:
            if y in alive[i]:
                path.append(y)
                extend(i + 1, path)
                path.pop()

    for x in sorted(alive[0]):
        extend(1, [x])
    return len(prefixes)


def structure_oracle(matrix):
    """(irreducible, mixing, mixing index or None, period) of a 0/1
    matrix, from explicit walks and integer matrix powers.

    The period is the gcd of the closed-walk lengths <= k, found by a
    depth-first search over (vertex, walk length) states; every simple
    cycle is such a walk.  The mixing index is the least m <= (k-1)^2 + 1
    with every entry of the integer power A^m positive.
    """
    k = len(matrix)
    period = 0
    reach = []
    for start in range(k):
        seen = set()
        stack = [(start, 0)]
        while stack:
            v, length = stack.pop()
            if (v, length) in seen or length > k:
                continue
            seen.add((v, length))
            if v == start and length:
                period = math.gcd(period, length)
            stack.extend((w, length + 1) for w in range(k) if matrix[v][w])
        reach.append({v for v, length in seen if length})
    irreducible = all(len(r) == k for r in reach)
    power = [row[:] for row in matrix]
    mixing_index = None
    for m in range(1, (k - 1) ** 2 + 2):
        if all(e > 0 for row in power for e in row):
            mixing_index = m
            break
        power = [[sum(power[i][t] * matrix[t][j] for t in range(k)) for j in range(k)]
                 for i in range(k)]
    return irreducible, mixing_index is not None, mixing_index, period
