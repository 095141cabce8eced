import math
import random
from itertools import compress

import pytest

from affdim import TransitionMatrix, validate_system

GOLDEN = ((1, 1), (1, 0))
FULL2 = ((1, 1), (1, 1))
FULL3 = ((1, 1, 1), (1, 1, 1), (1, 1, 1))
SWAP = ((0, 1), (1, 0))
#: irreducible with period 2 and every row sum 2
BIPARTITE4 = ((0, 0, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0))
#: irreducible matrices with period 2 or 3
PERIODIC = (SWAP, BIPARTITE4, ((0, 1, 1), (1, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 0, 1), (1, 0, 0)))

#: primitive; every transition row of the pair law has zero-mass letters
SPARSE5 = (
    (1, 1, 0, 0, 0),
    (0, 0, 1, 1, 0),
    (0, 0, 0, 1, 1),
    (1, 0, 0, 0, 1),
    (1, 1, 1, 0, 0),
)

#: primitive, with row sums 3, 1, 2, so no chain law is uniform
MIXED3 = ((1, 1, 1), (1, 0, 0), (0, 1, 1))

#: exercises every case tag: classical, general, non-divisible, degenerate
BATTERY = [(1, 2, 0, 0), (2, 3, 0, 0), (2, 4, 0, 1), (2, 4, 0, 0), (3, 5, 1, 2), (4, 6, 1, 3)]


def random_binary_matrix(m: int, rng: random.Random, density: float = 0.6):
    return [[1 if rng.random() < density else 0 for _ in range(m)] for _ in range(m)]


def random_irreducible(m: int, rng: random.Random, primitive: bool = False) -> TransitionMatrix:
    while True:
        mat = TransitionMatrix.from_rows(random_binary_matrix(m, rng))
        if not mat.is_irreducible():
            continue
        if primitive and not mat.is_primitive():
            continue
        return mat


def wide_irreducible(m: int) -> TransitionMatrix:
    """The first irreducible m x m matrix among those with density-0.5 rows
    drawn from ``random.Random(7)``: the wide-alphabet battery."""
    rng = random.Random(7)
    while True:
        mat = TransitionMatrix.from_rows(random_binary_matrix(m, rng, 0.5))
        if mat.is_irreducible():
            return mat


def mp_fixed_point(rows, q1: int, digits: int = 45) -> list:
    """The fixed point t^q1 = A t in ``digits``-digit mpmath, iterated from
    all ones until a step is below 10^-(digits - 5); the map is a
    (1/q1)-contraction, so t is then that close too."""
    import mpmath as mp

    with mp.workdps(digits):
        r, eps = mp.mpf(1) / q1, mp.mpf(10) ** (5 - digits)
        t = [mp.mpf(1)] * len(rows)
        for _ in range(10_000):
            nxt = [mp.fsum(compress(t, row)) ** r for row in rows]
            step = max(abs(a - b) for a, b in zip(nxt, t))
            t = nxt
            if step < eps:
                return t
    raise AssertionError("reference fixed point did not converge")


@pytest.fixture(scope="session")
def golden():
    return TransitionMatrix.from_rows(GOLDEN)


@pytest.fixture(scope="session")
def full2():
    return TransitionMatrix.from_rows(FULL2)


@pytest.fixture(scope="session")
def random3():
    return random_irreducible(3, random.Random(20240601), primitive=True)


def sys_golden(p, q, a, b):
    return validate_system(p, q, a, b, GOLDEN)


def sys_full(p, q, a, b):
    return validate_system(p, q, a, b, FULL2)


def reference_truncation(tail, start: int, tol: float):
    """The per-term scan the series loops used to run: the first i >= start
    with tail(i) <= tol, each comparison exact.  Returns (i, tail(i))."""
    i = start
    while True:
        t = tail(i)
        if t <= tol:
            return i, t
        i += 1


def edge_tolerances(tail, indices) -> list[float]:
    """float(tail(N)) and one float step either side of it for each N, plus
    two tolerances near the bottom of the float range."""
    tols = [1e-300, 5e-324]
    for N in indices:
        t = float(tail(N))
        tols += [math.nextafter(t, 0), t, math.nextafter(t, math.inf)]
    return tols
