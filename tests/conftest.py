"""Shared fixtures: the bundled example systems and a few tiny helpers."""

import math

import pytest

from carpetdim.counting import LogReal
from carpetdim.fixtures import (
    bipartite_fiber,
    column_carpet_21,
    fibonacci_fiber,
    full_torus,
    linear_lift_growth,
    parity_oscillation,
)
from carpetdim.sft import FactorSystem, Sft, induced_factor, validate_sft

# Exponent used throughout for the (l=3, m=2) geometry.
THETA_32 = math.log(2) / math.log(3)


def make_factor(symbols, edges, letter_map) -> FactorSystem:
    """One-call construction of a factor system from plain literals."""
    return induced_factor(Sft.from_edges(symbols, edges), letter_map)


def log_int(n: int) -> LogReal:
    """log n with the one rounding of math.log charged to its bound."""
    lv = math.log(n)
    return LogReal(lv, 2.0**-52 * (abs(lv) + 1.0))


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
