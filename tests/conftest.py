"""Shared fixtures: the bundled example systems and a few tiny helpers."""

import math

import pytest

from carpetdim.fixtures import (
    bipartite_fiber,
    column_carpet_21,
    fibonacci_fiber,
    full_torus,
    linear_lift_growth,
    parity_oscillation,
)
from carpetdim.sft import CarpetSpec, FactorSystem, Sft, carpet_to_factor, validate_sft

# Exponent used throughout for the (l=3, m=2) geometry.
THETA_32 = math.log(2) / math.log(3)


def make_factor(symbols, edges, letter_map) -> FactorSystem:
    """One-call construction of a factor system from plain literals."""
    return FactorSystem(Sft.from_edges(symbols, edges), dict(letter_map))


def random_mixing_system(rng):
    """A random factor system on 2 to 4 source symbols with a mixing
    source, onto two image letters."""
    while True:
        k = rng.randint(2, 4)
        symbols = [str(i) for i in range(k)]
        edges = [(a, b) for a in symbols for b in symbols if rng.random() < 0.6]
        letters = {s: rng.choice("xy") for s in symbols}
        if {a for a, _ in edges} != set(symbols) or {b for _, b in edges} != set(symbols):
            continue  # every symbol needs a successor and a predecessor
        fs = make_factor(symbols, edges, letters)
        if validate_sft(fs.source).mixing:
            return fs


def random_restricted_carpet(rng, l=4, m=2, k=6, p=0.7):
    """A random l x m carpet with k digits covering every row, each of
    the k * k transitions kept with probability p, redrawn until every
    digit has a successor and a predecessor and the digit shift is
    mixing."""
    cells = [(a, b) for b in range(m) for a in range(l)]
    while True:
        digits = tuple(rng.sample(cells, k))
        arcs = tuple((i, j) for i in range(k) for j in range(k) if rng.random() < p)
        if {b for _, b in digits} != set(range(m)):
            continue
        if {i for i, _ in arcs} != set(range(k)) or {j for _, j in arcs} != set(range(k)):
            continue  # every digit needs a successor and a predecessor
        spec = CarpetSpec(l, m, digits, arcs)
        if validate_sft(carpet_to_factor(spec)[0].source).mixing:
            return spec


@pytest.fixture
def parity() -> FactorSystem:
    return parity_oscillation()


@pytest.fixture
def bipartite() -> FactorSystem:
    return bipartite_fiber()


@pytest.fixture
def fibonacci() -> FactorSystem:
    return fibonacci_fiber()


@pytest.fixture
def linear_lift() -> FactorSystem:
    return linear_lift_growth()


@pytest.fixture(params=["parity", "bipartite", "fibonacci", "linear_lift"])
def any_fixture(request) -> FactorSystem:
    builders = {
        "parity": parity_oscillation,
        "bipartite": bipartite_fiber,
        "fibonacci": fibonacci_fiber,
        "linear_lift": linear_lift_growth,
    }
    return builders[request.param]()


@pytest.fixture
def carpet_21():
    return column_carpet_21()


@pytest.fixture
def torus_32():
    return full_torus(3, 2)


@pytest.fixture
def identity_system() -> FactorSystem:
    """A factor system whose letter map is a bijection (trivial fibers)."""
    return make_factor(
        ["a", "b"],
        [("a", "a"), ("a", "b"), ("b", "a")],
        {"a": "a", "b": "b"},
    )
