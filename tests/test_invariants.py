"""Invariants every dimension must satisfy, over random accepted systems.

Each check compares the enclosures the reports state: the true value lies
in [value - rounding_bound, value + tail_bound + rounding_bound], so an
invariant "X <= Y" holds when the low end of X is at most the high end of
Y, plus SLACK.

- H <= M: the Hausdorff dimension is at most the Minkowski dimension.
- H < M when the row sums are not all equal: the low end of M exceeds the
  high end of H by more than SLACK (the "only if" of
  ``hausdorff.comparison_gap``).
- Relabelling the letters (A -> P A P^T) changes neither dimension.
- Adding a 1-entry to A enlarges the set, so neither dimension falls.
- The window counts tend to the Minkowski dimension: log_m of the number
  of admissible patterns of length 10^18, over 10^18, lies within the
  Minkowski report's bounds plus SLACK.
- The all-ones matrix gives both dimensions 1, in every case tag: 1 lies
  in each report's enclosure within ONES_SLACK, far below SLACK, on a
  fixed battery.
"""

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from affdim import CaseTag, TransitionMatrix, hausdorff, minkowski, validate_system
from conftest import GOLDEN, PERIODIC, SPARSE5, random_irreducible

#: allowance beyond the reports' own bounds, for float noise they do not
#: derive yet
SLACK = 1e-12
#: the all-ones allowance: a few ulp of 1, for the rounding no field bounds
ONES_SLACK = 2.0**-50


def zero_diagonal(m: int, rng: random.Random) -> TransitionMatrix:
    while True:
        rows = [[int(i != j and rng.random() < 0.6) for j in range(m)] for i in range(m)]
        matrix = TransitionMatrix.from_rows(rows)
        if matrix.is_irreducible():
            return matrix


@st.composite
def matrices(draw) -> TransitionMatrix:
    """An irreducible matrix with m <= 6: random, periodic, zero-diagonal,
    or the sparse 5x5."""
    kind = draw(st.sampled_from(["random", "periodic", "zero_diagonal", "sparse5"]))
    if kind == "periodic":
        return TransitionMatrix.from_rows(draw(st.sampled_from(PERIODIC)))
    if kind == "sparse5":
        return TransitionMatrix.from_rows(SPARSE5)
    m = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_irreducible(m, rng) if kind == "random" else zero_diagonal(m, rng)


#: (p, q, a, b) with an increasing first pair, by case tag; k_min is 1 for
#: these offsets, so the pair is (p + a, q + b)
BY_CASE = {tag: [] for tag in CaseTag}
for t in product(range(1, 5), range(2, 10), range(4), range(4)):
    if t[0] < t[1] and t[0] + t[2] < t[1] + t[3]:
        BY_CASE[validate_system(*t, GOLDEN).case_tag].append(t)
#: a case tag first, so each is drawn about as often
systems = st.sampled_from(list(CaseTag)).flatmap(lambda tag: st.sampled_from(BY_CASE[tag]))
tolerances = st.sampled_from([1e-8, 1e-12])


def enclosure(report) -> tuple[float, float]:
    return (
        report.value - report.rounding_bound,
        report.value + report.tail_bound + report.rounding_bound,
    )


def at_most(low, high) -> bool:
    """The value of report ``low`` can be at most that of report ``high``."""
    return enclosure(low)[0] <= enclosure(high)[1] + SLACK


def dimensions(pqab, matrix, tol):
    s = validate_system(*pqab, matrix)
    return minkowski.dimension(s, tol), hausdorff.dimension(s, tol)


def test_every_case_tag_has_systems():
    assert all(BY_CASE.values())


@given(systems, matrices(), tolerances)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_hausdorff_at_most_minkowski(pqab, matrix, tol):
    M, H = dimensions(pqab, matrix, tol)
    assert at_most(H, M)


@given(systems, matrices(), tolerances)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_hausdorff_below_minkowski_unless_row_sums_agree(pqab, matrix, tol):
    if len({sum(row) for row in matrix.rows}) == 1:
        return
    M, H = dimensions(pqab, matrix, tol)
    assert enclosure(M)[0] > enclosure(H)[1] + SLACK


@given(systems, matrices(), tolerances, st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_relabelling_changes_neither_dimension(pqab, matrix, tol, rng):
    order = list(range(matrix.m))
    rng.shuffle(order)
    relabelled = TransitionMatrix.from_rows(
        [[matrix.rows[order[i]][order[j]] for j in range(matrix.m)] for i in range(matrix.m)]
    )
    for before, after in zip(dimensions(pqab, matrix, tol), dimensions(pqab, relabelled, tol)):
        assert at_most(before, after) and at_most(after, before)


@given(systems, matrices(), tolerances, st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_a_new_entry_lowers_neither_dimension(pqab, matrix, tol, rng):
    zeros = [(i, j) for i, row in enumerate(matrix.rows) for j, x in enumerate(row) if not x]
    if not zeros:
        return
    i, j = rng.choice(zeros)
    rows = [list(row) for row in matrix.rows]
    rows[i][j] = 1
    larger = TransitionMatrix.from_rows(rows)
    for smaller, bigger in zip(dimensions(pqab, matrix, tol), dimensions(pqab, larger, tol)):
        assert at_most(smaller, bigger)


@given(systems, matrices(), tolerances)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_pattern_counts_tend_to_minkowski(pqab, matrix, tol):
    s = validate_system(*pqab, matrix)
    M = minkowski.dimension(s, tol)
    gap = abs(minkowski.empirical_dimension(10**18, s) - M.value)
    assert gap <= M.tail_bound + M.rounding_bound + SLACK


#: three systems of each case tag: classical, divisible-general,
#: degenerate, non-divisible
ONES_SYSTEMS = [(1, 2, 0, 0), (1, 3, 1, 0), (1, 5, 0, 2), (2, 3, 0, 0), (4, 6, 1, 3), (3, 5, 1, 2),
                (2, 4, 0, 0), (3, 6, 1, 4), (2, 6, 0, 0), (2, 4, 0, 1), (4, 6, 0, 1), (3, 6, 0, 1)]


def test_all_ones_has_dimension_one():
    checked = 0
    for m in range(2, 7):
        ones = TransitionMatrix.from_rows([[1] * m] * m)
        for pqab in ONES_SYSTEMS:
            for tol in (1e-8, 1e-12, 1e-15):
                for report in dimensions(pqab, ones, tol):
                    low, high = enclosure(report)
                    assert low - ONES_SLACK <= 1 <= high + ONES_SLACK, (m, pqab, tol, report)
                checked += 1
    assert {validate_system(*t, GOLDEN).case_tag for t in ONES_SYSTEMS} == set(CaseTag)
    assert checked == 180
