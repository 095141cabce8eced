import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affdim import (
    InvalidSystemError,
    chain_density,
    decompose,
    empirical_census,
    pair_density,
    predecessor,
    singleton_density,
    successor,
    validate_system,
    window_length_density,
)
from affdim.lattice import (
    _infinite_orbits,
    _progressions,
    chain_density_column_tail,
    chain_levels,
    chain_walk,
    density_table,
    orbit_density,
    orbit_lengths,
    weighted_census_tail,
    weighted_extra_census_tail,
    window_counts,
)
from affdim.measures import PrefixMeasure
from conftest import GOLDEN, sys_golden


small_systems = st.tuples(
    st.integers(1, 6), st.integers(2, 8), st.integers(0, 5), st.integers(0, 5)
).filter(lambda t: t[0] < t[1] and t[2] <= t[3])

#: also a > b, where some systems have a non-increasing first pair
offset_systems = st.tuples(
    st.integers(1, 6), st.integers(2, 8), st.integers(0, 5), st.integers(0, 5)
).filter(lambda t: t[0] < t[1])


class TestSuccessor:
    def test_examples(self):
        s23 = sys_golden(2, 3, 0, 0)
        assert successor(4, s23) == 6
        assert successor(3, s23) is None
        s241 = sys_golden(2, 4, 0, 1)
        assert successor(6, s241) == 13

    def test_below_k_min(self):
        # (1,2;5,-3): k_min = 2, so x = 6 (k = 1) carries no constraint
        s = sys_golden(1, 2, 5, -3)
        assert s.k_min == 2
        assert successor(6, s) is None

    @given(small_systems, st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    def test_predecessor_inverts(self, pqab, x):
        s = validate_system(*pqab, GOLDEN)
        y = successor(x, s)
        if y is not None:
            assert predecessor(y, s) == x


class TestDecompose:
    def test_window_nine(self):
        dec = decompose(9, sys_golden(2, 3, 0, 0))
        got = {c.positions: c.full_length for c in dec.chains}
        assert got == {
            (1,): 1,
            (2, 3): 2,
            (4, 6, 9): 3,
            (5,): 1,
            (7,): 1,
            (8,): 4,  # continues 12, 18, 27 past the window
        }

    def test_window_five_nondivisible(self):
        dec = decompose(5, sys_golden(2, 4, 0, 1))
        got = {c.positions for c in dec.chains}
        assert got == {(1,), (2, 5), (3,), (4,)}

    def test_window_one(self):
        dec = decompose(1, sys_golden(2, 3, 0, 0))
        assert [c.positions for c in dec.chains] == [(1,)]

    def test_doubling_window_four(self):
        dec = decompose(4, sys_golden(1, 2, 0, 0))
        got = {c.positions for c in dec.chains}
        assert got == {(3,), (1, 2, 4)}
        census = dec.census()
        assert census.D == {1: 1, 3: 1}

    def test_window_two_truncated_pair(self):
        census = decompose(2, sys_golden(2, 3, 0, 0)).census()
        assert census.D == {1: 2}

    def test_infinite_orbits_marked(self):
        dec = decompose(8, sys_golden(2, 4, 0, 0))
        by_start = {c.start: c for c in dec.chains}
        assert by_start[2].positions == (2, 4, 8)
        assert by_start[2].truncated
        assert not by_start[1].truncated and by_start[1].full_length == 1

    def test_infinite_orbits_marked_with_negative_offset(self):
        # p1 = 1 and c = (b - a)/p = -1: the successor 3k of x = k + 1 is
        # again of the form k' + 1 with k' = 3k - 1 > k, forever
        s = sys_golden(1, 3, 1, 0)
        assert s.c < 0
        chains = decompose(40, s).chains
        # every x >= 2 has a successor, so only the chain (1,) ends
        assert [c.positions for c in chains if not c.truncated] == [(1,)]
        assert all(c.full_length == c.window_count for c in chains)
        census = empirical_census(10**5, s)
        assert census.window_total() == 10**5
        assert sum(census.truncated.values()) == sum(census.D.values()) - 1

    def test_rejects_non_monotone_links(self):
        with pytest.raises(InvalidSystemError, match="non-increasing"):
            decompose(10, sys_golden(2, 3, 1, 0))
        with pytest.raises(InvalidSystemError, match="non-increasing"):
            decompose(10, sys_golden(1, 2, 5, -3))

    @given(small_systems, st.integers(1, 250))
    @settings(max_examples=120, deadline=None)
    def test_partition_property(self, pqab, n):
        s = validate_system(*pqab, GOLDEN)
        dec = decompose(n, s)
        seen = [p for c in dec.chains for p in c.positions]
        assert sorted(seen) == list(range(1, n + 1))
        for c in dec.chains:
            assert list(c.positions) == sorted(c.positions)
            assert predecessor(c.positions[0], s) is None or predecessor(c.positions[0], s) > n
            for x, y in zip(c.positions, c.positions[1:]):
                assert successor(x, s) == y
            assert c.window_count <= c.full_length

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (2, 4, 0, 1), (1, 2, 0, 0), (2, 6, 0, 2)])
    def test_one_successor_call_per_step(self, monkeypatch, pqab):
        # each window member steps once, and a finite orbit once more per
        # member past the window
        import affdim.lattice as lattice

        s = sys_golden(*pqab)
        calls = []
        monkeypatch.setattr(lattice, "successor", lambda x, sys: calls.append(x) or successor(x, sys))
        chains = decompose(60, s).chains
        assert len(calls) == sum(len(c.positions) if c.truncated else c.full_length for c in chains)


def assert_walks_match(n, s):
    """chain_walk, chain_levels and orbit_lengths agree with decompose chain
    by chain."""
    chains = decompose(n, s).chains
    walk = chain_walk(n, s)
    assert walk.starts.tolist() == [c.start for c in chains]
    assert walk.window.tolist() == [c.window_count for c in chains]
    assert walk.full_length.tolist() == [c.full_length for c in chains]
    assert walk.truncated.tolist() == [c.truncated for c in chains]
    # truncated means an infinite orbit: p1 = 1 in the divisible case,
    # where every start with a successor never stops
    infinite = s.p1 == 1 and s.divisible
    assert walk.truncated.tolist() == [infinite and successor(c.start, s) is not None for c in chains]
    # the level walk the sampler draws from, read back chain by chain,
    # and the family each chain's measure comes from
    levels = chain_levels(n, s)
    starts, more = next(levels)
    walked = [[x] for x in starts.tolist()]
    ids = np.nonzero(more)[0]
    for positions, more in levels:
        for chain, x in zip(ids.tolist(), positions.tolist()):
            walked[chain].append(x)
        ids = ids[more]
    assert [tuple(w) for w in walked] == [c.positions for c in chains]
    families = [length or "inf" for length in orbit_lengths(starts, s).tolist()]
    assert families == ["inf" if c.truncated else c.full_length for c in chains]


def first_pair_increases(s):
    return s.q * s.k_min + s.b > s.p * s.k_min + s.a


def increasing_systems(rows, offsets):
    """Every (p, q, a, b) with p < q <= 6 and a, b in ``offsets`` whose first
    constraint pair increases, on the matrix ``rows``."""
    systems = (
        validate_system(p, q, a, b, rows)
        for p in range(1, 4)
        for q in range(p + 1, 7)
        for a in offsets
        for b in offsets
    )
    return [s for s in systems if first_pair_increases(s)]


#: primitive three-letter matrix with row sums 2, 2, 3
THREE = ((1, 1, 0), (1, 0, 1), (1, 1, 1))


class TestChainWalk:
    @given(small_systems, st.integers(1, 300))
    @settings(max_examples=120, deadline=None)
    def test_matches_decompose_chain_by_chain(self, pqab, n):
        assert_walks_match(n, validate_system(*pqab, GOLDEN))

    def test_matches_decompose_around_the_first_link(self):
        # negative offsets give k_min > 1, and a > b with an increasing first
        # pair; each system is walked on the window n = 1 and on the windows
        # just below, at and just above its first link q*k_min + b
        systems = increasing_systems(GOLDEN, range(-6, 7))
        assert any(s.k_min > 1 for s in systems)
        assert any(s.a > s.b for s in systems)
        for s in systems:
            first_link = s.q * s.k_min + s.b
            for n in sorted({1, first_link - 1, first_link, first_link + 1} - {0}):
                assert_walks_match(n, s)

    @given(st.integers(1, 4), st.integers(2, 7), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(1, 400), st.sampled_from([GOLDEN, THREE]))
    @settings(max_examples=150, deadline=None)
    def test_matches_decompose_with_signed_offsets(self, p, q, a, b, n, rows):
        assume(p < q)
        s = validate_system(p, q, a, b, rows)
        assume(first_pair_increases(s))
        assert_walks_match(n, s)

    @pytest.mark.parametrize(
        "pqab",
        [
            (2, 999, 0, 0),  # orbits leave the int64 range past the window
            (3, 1000, 1, 2),
            (4, 10, 0, 2),  # d > 1: the valuation is taken at the first index
            (6, 9, 0, 3),
        ],
    )
    def test_matches_decompose_on_large_q_and_non_coprime(self, pqab):
        s = sys_golden(*pqab)
        n = 3000
        chains = decompose(n, s).chains
        walk = chain_walk(n, s)
        assert walk.starts.tolist() == [c.start for c in chains]
        assert walk.window.tolist() == [c.window_count for c in chains]
        assert walk.full_length.tolist() == [c.full_length for c in chains]
        assert walk.truncated.tolist() == [c.truncated for c in chains]

    @given(
        st.tuples(st.integers(1, 6), st.integers(2, 13), st.integers(0, 5), st.integers(0, 5))
        .filter(lambda t: t[0] < t[1]),
        st.integers(1, 5000),
    )
    @example((3, 5, 1, 0), 5000)  # p1 = 3 and c = -1
    @example((4, 10, 5, 1), 5000)  # p1 = 2 and c = -2
    @example((5, 13, 5, 2), 5000)  # p1 = 5 and c = -3
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_orbit_lengths_equal_decompose(self, pqab, n):
        # the strided count per position against the scalar walk past the
        # window; an infinite orbit has length 0
        s = sys_golden(*pqab)
        assume(first_pair_increases(s))
        starts, _ = next(chain_levels(n, s))
        chains = decompose(n, s).chains
        assert orbit_lengths(starts, s).tolist() == [
            0 if c.truncated else c.full_length for c in chains
        ]

    @pytest.mark.parametrize(("pqab", "n"), [((2, 10**18 + 1, 0, 0), 100), ((2, 3, 0, 10**19), 10)])
    def test_refuses_windows_past_int64(self, pqab, n):
        s = sys_golden(*pqab)
        for build in (chain_walk, empirical_census, lambda n, s: PrefixMeasure(s, n)):
            with pytest.raises(InvalidSystemError, match="int64.*decompose and window_counts"):
                build(n, s)
        # the exact routes still answer
        assert window_counts(n, s) == decompose(n, s).census().D


class TestEmpiricalCensus:
    @given(small_systems, st.integers(1, 300))
    @settings(max_examples=120, deadline=None)
    def test_matches_decompose(self, pqab, n):
        s = validate_system(*pqab, GOLDEN)
        fast = empirical_census(n, s)
        slow = decompose(n, s).census()
        assert fast.L == slow.L
        assert fast.D == slow.D
        assert fast.truncated == slow.truncated
        assert fast.window_total() == n

    def test_large_window_smoke(self):
        census = empirical_census(10**5, sys_golden(2, 3, 0, 0))
        assert census.window_total() == 10**5
        assert not census.truncated

    def test_degenerate_truncated_tally(self):
        census = empirical_census(1000, sys_golden(2, 4, 0, 0))
        # odd positions: finite singletons; even chains: infinite orbits
        assert census.L.get((1, 1), 0) == 500
        assert sum(census.truncated.values()) == 250  # evens 2 mod 4


def steps_from(x, s, step):
    """How often ``step`` (successor or predecessor) applies from x."""
    t = 0
    while (x := step(x, s)) is not None:
        t += 1
    return t


def assert_levels_are_the_walk(levels, bound, s, step):
    """Level t holds exactly the x <= bound from which ``step`` applies at
    least t times, and no x applies it more often than there are levels."""
    walked = {x: steps_from(x, s, step) for x in range(1, bound + 1)}
    for t, (first, stride) in enumerate(levels, 1):
        assert 1 <= first <= bound and 1 <= stride <= bound + 1
        assert set(range(first, bound + 1, stride)) == {x for x, steps in walked.items() if steps >= t}
    assert max(walked.values()) <= len(levels)


class TestProgressions:
    @given(st.integers(1, 6), st.integers(2, 12), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(1, 400))
    @example(2, 3, 0, 0, 1)  # bound 1, divisible general
    @example(4, 10, 5, 1, 400)  # divisible general, p1 = 2 and c = -2
    @example(1, 3, 1, 0, 400)  # classical, c < 0
    @example(2, 4, 0, 0, 400)  # divisible degenerate
    @example(2, 4, 0, 1, 400)  # non-divisible
    @example(3, 5, 1, 0, 400)  # a > b with an increasing first pair
    @example(2, 5, -3, 4, 400)  # a negative offset, k_min = 2
    @settings(max_examples=200, deadline=None, derandomize=True, report_multiple_bugs=False)
    def test_levels_are_the_scalar_walks(self, p, q, a, b, bound):
        # depths forward in every case tag; heights back where orbits end.
        # The first failure is reported at once: a solver with its sides
        # swapped fails the examples above (1, 3, 1, 0) and never returns
        # on that one
        assume(p < q)
        s = sys_golden(p, q, a, b)
        assume(first_pair_increases(s))
        forward, back = (s.p, s.a), (s.q, s.b)
        assert_levels_are_the_walk(_progressions(bound, s, forward, back), bound, s, predecessor)
        if not _infinite_orbits(s):
            assert_levels_are_the_walk(_progressions(bound, s, back, forward), bound, s, successor)


class TestWindowCounts:
    @given(st.one_of(small_systems, offset_systems), st.integers(-1, 300))
    @settings(max_examples=200, deadline=None)
    def test_matches_both_walks(self, pqab, n):
        s = validate_system(*pqab, GOLDEN)
        try:
            walked = empirical_census(n, s).D
        except (InvalidSystemError, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                window_counts(n, s)
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                decompose(n, s)
            return
        assert window_counts(n, s) == walked == decompose(n, s).census().D

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (2, 6, 0, 1)])
    def test_matches_census_at_three_million(self, pqab):
        s = sys_golden(*pqab)
        assert window_counts(3 * 10**6, s) == empirical_census(3 * 10**6, s).D

    @pytest.mark.parametrize("pqab", [(1, 2, 0, 0), (2, 3, 0, 0), (2, 4, 0, 1), (2, 4, 0, 0), (1, 3, 1, 0)])
    def test_partitions_a_window_of_a_quintillion(self, pqab):
        s = sys_golden(*pqab)
        n = 10**18
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            D = window_counts(n, s)
            best = min(best, time.perf_counter() - start)
        assert sum(j * c for j, c in D.items()) == n
        assert best < 0.01


class TestDensities:
    def test_chain_density_examples(self):
        s = sys_golden(2, 3, 0, 0)
        assert chain_density(1, 1, s) == Fraction(1, 3)
        assert chain_density(2, 1, s) == Fraction(1, 18)
        # full-length-2 chains are {2y, 3y}, y odd and 3 not dividing y
        # (starts of density (1/4)(2/3) = 1/6); both members lie in the
        # window when 3y <= n, a share 2/3 of those starts: 1/9
        assert chain_density(2, 2, s) == Fraction(1, 9)

    def test_chain_density_needs_general_case(self):
        with pytest.raises(InvalidSystemError):
            chain_density(2, 2, sys_golden(1, 2, 0, 0))
        with pytest.raises(InvalidSystemError):
            chain_density(2, 2, sys_golden(2, 4, 0, 1))

    def test_window_length_density_examples(self):
        assert window_length_density(2, sys_golden(2, 3, 0, 0)) == Fraction(4, 27)
        assert window_length_density(2, sys_golden(1, 2, 0, 0)) == Fraction(1, 8)
        assert singleton_density(sys_golden(2, 3, 0, 0)) == Fraction(4, 9)

    def test_non_divisible_split(self):
        s = sys_golden(2, 4, 0, 1)
        assert pair_density(s) == Fraction(1, 4)
        assert singleton_density(s) == Fraction(1, 2)
        with pytest.raises(InvalidSystemError):
            window_length_density(2, s)

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (4, 6, 1, 3)])
    def test_column_identity_exact(self, pqab):
        s = sys_golden(*pqab)
        for j in range(2, 7):
            J = j + 30
            partial = sum(chain_density(i, j, s) for i in range(j, J + 1))
            assert partial + chain_density_column_tail(j, J, s) == window_length_density(j, s)

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (4, 6, 1, 3), (3, 5, 1, 2)])
    def test_weighted_census_identity_exact(self, pqab):
        s = sys_golden(*pqab)
        for J in (1, 2, 7, 40):
            partial = sum(
                j * chain_density(i, j, s) for i in range(1, J + 1) for j in range(1, i + 1)
            )
            assert partial + weighted_census_tail(J, s) == 1
        assert weighted_census_tail(40, s) <= Fraction(1, 10**9)

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (4, 6, 1, 3), (3, 5, 1, 2), (6, 9, 2, 5), (2, 7, 0, 0)])
    def test_weighted_extra_tail_telescopes_exactly(self, pqab):
        s = sys_golden(*pqab)
        for N in (1, 2, 5, 17):
            for K in (1, 3, 12):
                rows = sum(
                    (j + 1) * chain_density(i, j, s)
                    for i in range(N + 1, N + K + 1)
                    for j in range(1, i + 1)
                )
                assert weighted_extra_census_tail(N, s) - weighted_extra_census_tail(N + K, s) == rows
        assert weighted_extra_census_tail(60, s) < Fraction(1, 10**9)
        with pytest.raises(ValueError):
            weighted_extra_census_tail(0, s)
        with pytest.raises(InvalidSystemError):
            weighted_extra_census_tail(2, sys_golden(2, 4, 0, 0))

    def test_densities_in_unit_interval(self):
        s = sys_golden(4, 6, 1, 3)
        for i in range(1, 8):
            for j in range(1, i + 1):
                assert 0 < chain_density(i, j, s) < 1

    def test_density_table(self):
        s = sys_golden(2, 3, 0, 0)
        table = density_table(s, 4)
        assert table.P[(2, 2)] == Fraction(1, 9)
        assert table.singleton_density == Fraction(4, 9)
        assert len(table.P) == 10
        # row 2 holds every start 2y with y odd and 3 not dividing y:
        # (1/4)(2/3) = 1/6 = 1/18 + 1/9
        assert table.row_weight(2) == Fraction(1, 6)

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (4, 6, 1, 3), (3, 5, 1, 2), (6, 9, 2, 5)])
    def test_orbit_density_is_the_row_weight(self, pqab):
        s = sys_golden(*pqab)
        table = density_table(s, 9)
        assert all(orbit_density(i, s) == table.row_weight(i) for i in range(2, 10))
        with pytest.raises(ValueError):
            orbit_density(1, s)
        with pytest.raises(InvalidSystemError):
            orbit_density(2, sys_golden(2, 4, 0, 0))


def census_limit_coprime(i: int, j: int, p: int, q: int) -> Fraction:
    """Exact limit of L[(i, j)]/n for coprime p, q, derived by counting
    starts: a chain has full length i when its start admits exactly i - 1
    successor steps (density ((q-1)/q)(1/p)(1-1/p)(1/p)^(i-2) for i >= 2),
    and its j-th member lies below n on a (p/q)^(j-1) fraction of starts.
    Cross-checked against direct enumeration in the tests below.
    """
    if i == 1:
        return Fraction(q - 1, q) * Fraction(p - 1, p)
    rho = Fraction(q - 1, q) * Fraction(1, p) * Fraction(p - 1, p) * Fraction(1, p) ** (i - 2)
    r = Fraction(p, q)
    return rho * r ** (i - 1) if i == j else rho * r ** (j - 1) * (1 - r)


class TestCensusConvergence:
    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (4, 6, 1, 3)])
    def test_single_member_column_convergence(self, pqab):
        # the closed-form density is censally correct for j = 1
        s = sys_golden(*pqab)
        n = 10**6
        census = empirical_census(n, s)
        for i in range(1, 5):
            assert abs(census.L.get((i, 1), 0) / n - chain_density(i, 1, s)) <= 1e-3

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (4, 6, 1, 3), (3, 5, 1, 2)])
    def test_chain_density_is_the_census_limit(self, pqab):
        s = sys_golden(*pqab)
        n = 10**6
        census = empirical_census(n, s)
        for i in range(1, 7):
            for j in range(1, i + 1):
                assert abs(census.L.get((i, j), 0) / n - chain_density(i, j, s)) <= 1e-5, (i, j)
        if s.d == 1:
            for i in range(1, 7):
                for j in range(1, i + 1):
                    assert chain_density(i, j, s) == census_limit_coprime(i, j, s.p, s.q)

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (3, 5, 1, 2)])
    def test_census_converges_to_derived_limit(self, pqab):
        s = sys_golden(*pqab)
        gaps = {}
        for n in (10**4, 10**5, 10**6):
            census = empirical_census(n, s)
            gaps[n] = max(
                abs(census.L.get((i, j), 0) / n - census_limit_coprime(i, j, s.p, s.q))
                for i in range(1, 5)
                for j in range(1, i + 1)
            )
        assert gaps[10**6] <= 1e-3
        assert gaps[10**6] <= gaps[10**4] + 1e-4  # monotone-ish improvement

    def test_density_table_is_not_the_census_limit(self):
        # An independence heuristic that redistributes each window-length
        # column across full lengths, window_length_density(j) *
        # (p1-1)/p1^(i-j+1), is not the census limit for j >= 2.  Smallest
        # witness: full-length-2 chains of (2,3;0,0) are {2y, 3y} with y odd
        # and not divisible by 3, fully in the window exactly when
        # y <= n/3, so L[(2, 2)]/n -> (1/3)(1/2)(2/3) = 1/9, while the
        # heuristic gives (4/27)(1/2) = 2/27.  Column totals agree (4/27);
        # chain_density is the census limit.
        s = sys_golden(2, 3, 0, 0)
        n = 10**6
        census = empirical_census(n, s)
        heuristic = Fraction(2, 27)  # (4/27) * (p1-1)/p1^(i-j+1), p1 = 2, i = j = 2
        assert chain_density(2, 2, s) == Fraction(1, 9)
        assert abs(census.L[(2, 2)] / n - Fraction(1, 9)) <= 1e-3
        assert abs(census.L[(2, 2)] / n - heuristic) > 3e-2
        col = sum(c for (i, j), c in census.L.items() if j == 2)
        assert window_length_density(2, s) == Fraction(4, 27)
        assert abs(col / n - window_length_density(2, s)) <= 1e-3

    def test_window_length_density_convergence(self):
        n = 10**6
        for pqab in [(2, 3, 0, 0), (4, 6, 1, 3), (1, 2, 0, 0)]:
            s = sys_golden(*pqab)
            census = empirical_census(n, s)
            for ell in range(2, 6):
                emp = census.D.get(ell, 0) / n
                assert abs(emp - float(window_length_density(ell, s))) <= 1e-2
            emp1 = census.D.get(1, 0) / n
            assert abs(emp1 - float(singleton_density(s))) <= 1e-2

    def test_non_divisible_pair_convergence(self):
        s = sys_golden(2, 4, 0, 1)
        n = 10**6
        census = empirical_census(n, s)
        assert abs(census.D.get(2, 0) / n - 0.25) <= 1e-2
        assert abs(census.D.get(1, 0) / n - 0.5) <= 1e-2
