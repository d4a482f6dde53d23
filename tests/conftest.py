from pathlib import Path

import pytest

from brforge.ideals import Ideal
from brforge.poly import PolyRing
from brforge.ring import Rng

import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture(scope="session")
def ring2():
    return PolyRing(32003, 2)


@pytest.fixture(scope="session")
def ring3():
    return PolyRing(32003, 3)


@pytest.fixture(scope="session")
def ring5():
    return PolyRing(32003, 5)


def random_ideal(ring: PolyRing, rng: Rng, count: int, max_degree: int) -> Ideal:
    """Small random homogeneous ideal for property suites; degrees 1..max."""
    gens = []
    for _ in range(count):
        d = 1 + rng.below(max_degree)
        f = ring.random_form(d, rng)
        while f.is_zero():
            f = ring.random_form(d, rng)
        gens.append(f)
    return Ideal(ring, gens)


def random_monomial_ideal(ring: PolyRing, rng: Rng, count: int, max_degree: int) -> Ideal:
    gens = []
    for _ in range(count):
        d = 1 + rng.below(max_degree)
        exps = oracles.exponents_of_degree(ring.nvars, d)
        gens.append(ring.from_dict({exps[rng.below(len(exps))]: 1}))
    return Ideal(ring, gens)
