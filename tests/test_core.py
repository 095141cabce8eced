import itertools
import json
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affdim import (
    CaseTag,
    InvalidSystemError,
    TransitionMatrix,
    is_irreducible,
    is_primitive,
    matrix_power_sum,
    system_from_json_dict,
    validate_system,
)
from affdim.core import _div_int, _first_index, _matmul, truncation_index
from conftest import FULL2, GOLDEN, PERIODIC, random_binary_matrix, random_irreducible
import random


@st.composite
def irreducible_matrices(draw):
    """Random irreducible binary matrices with m = 2..6, periodic ones included."""
    m = draw(st.integers(2, 6))
    random_rows = st.lists(
        st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=m, max_size=m
    )
    matrix = TransitionMatrix.from_rows(draw(st.one_of(st.sampled_from(PERIODIC), random_rows)))
    assume(matrix.is_irreducible())
    return matrix


class TestValidateSystem:
    def test_classical(self):
        s = validate_system(1, 2, 0, 0, GOLDEN)
        assert s.case_tag is CaseTag.CLASSICAL
        assert (s.d, s.q1) == (1, 2)

    def test_non_divisible(self):
        s = validate_system(2, 4, 0, 1, GOLDEN)
        assert s.case_tag is CaseTag.NON_DIVISIBLE
        assert s.d == 2 and s.c is None

    def test_divisible_degenerate(self):
        s = validate_system(2, 4, 0, 0, GOLDEN)
        assert s.case_tag is CaseTag.DIVISIBLE_DEGENERATE
        assert (s.d, s.p1, s.q1) == (2, 1, 2)

    def test_divisible_general(self):
        s = validate_system(2, 3, 0, 0, GOLDEN)
        assert s.case_tag is CaseTag.DIVISIBLE_GENERAL
        assert (s.d, s.p1, s.q1, s.c) == (1, 2, 3, 0)

    @pytest.mark.parametrize(
        "p,q", [(0, 2), (-1, 3), (2, 2), (3, 2)]
    )
    def test_rejects_bad_pq(self, p, q):
        with pytest.raises(InvalidSystemError):
            validate_system(p, q, 0, 0, GOLDEN)

    def test_rejects_small_alphabet(self):
        with pytest.raises(InvalidSystemError):
            validate_system(1, 2, 0, 0, [[1]])

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidSystemError):
            validate_system(1, 2, 0, 0, [[1, 2], [1, 0]])

    def test_rejects_reducible(self):
        with pytest.raises(InvalidSystemError):
            validate_system(1, 2, 0, 0, [[1, 0], [0, 1]])

    def test_negative_offsets_accepted(self):
        s = validate_system(1, 2, 5, -3, GOLDEN)
        assert s.case_tag is CaseTag.CLASSICAL
        assert s.k_min == 2  # q*k+b must reach 1

    def test_cached_k_min_leaves_identity_alone(self):
        s, twin = validate_system(2, 3, -4, 1, GOLDEN), validate_system(2, 3, -4, 1, GOLDEN)
        before = (repr(s), hash(s))
        assert s.k_min == 3 and "k_min" in vars(s)  # p*k+a must reach 1
        assert (repr(s), hash(s)) == before and s == twin and "k_min" not in vars(twin)

    @given(
        p=st.integers(1, 8),
        q=st.integers(2, 12),
        a=st.integers(-5, 5),
        b=st.integers(-5, 5),
    )
    def test_case_partition(self, p, q, a, b):
        if p >= q:
            return
        s = validate_system(p, q, a, b, GOLDEN)
        expect_classical = p == 1
        expect_nondiv = (b - a) % s.d != 0
        if expect_classical:
            assert s.case_tag is CaseTag.CLASSICAL
        elif expect_nondiv:
            assert s.case_tag is CaseTag.NON_DIVISIBLE
        elif s.p1 == 1:
            assert s.case_tag is CaseTag.DIVISIBLE_DEGENERATE
        else:
            assert s.case_tag is CaseTag.DIVISIBLE_GENERAL
        assert s.d * s.p1 == s.p and s.d * s.q1 == s.q
        assert s.q1 >= 2


def positive_power(rows, k: int) -> bool:
    """Whether the k-th power of ``rows`` is entrywise positive, by k
    products with ``_matmul``, each clipped back to 0/1."""
    m = len(rows)
    power = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(k):
        power = [[min(e, 1) for e in row] for row in _matmul(power, rows)]
    return all(map(all, power))


def reaches_both_ways(rows) -> bool:
    """Reference irreducibility: every letter reaches every letter within
    m - 1 steps, so (I + A)^(m-1) is entrywise positive."""
    steps = [[int(i == j or e) for j, e in enumerate(row)] for i, row in enumerate(rows)]
    return positive_power(steps, len(rows) - 1)


def wielandt_primitive(rows) -> bool:
    """Reference primitivity: A^((m-1)^2 + 1) is entrywise positive
    (Wielandt's bound)."""
    return positive_power(rows, (len(rows) - 1) ** 2 + 1)


class TestConnectivity:
    def test_irreducible_examples(self):
        assert is_irreducible(TransitionMatrix.from_rows(GOLDEN))
        assert not is_irreducible(TransitionMatrix.from_rows([[1, 0], [0, 1]]))
        assert is_irreducible(TransitionMatrix.from_rows([[0, 1], [1, 0]]))

    def test_primitive_examples(self):
        assert is_primitive(TransitionMatrix.from_rows(GOLDEN))
        assert not is_primitive(TransitionMatrix.from_rows([[0, 1], [1, 0]]))
        assert is_primitive(TransitionMatrix.from_rows(FULL2))

    def test_primitive_implies_irreducible(self):
        rng = random.Random(7)
        for _ in range(30):
            mat = TransitionMatrix.from_rows(
                [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)]
            )
            if mat.is_primitive():
                assert mat.is_irreducible()

    def test_every_small_matrix_matches_the_references(self):
        # all 16 + 512 binary matrices with m = 2, 3
        for m in (2, 3):
            for bits in itertools.product((0, 1), repeat=m * m):
                rows = [bits[i * m:(i + 1) * m] for i in range(m)]
                mat = TransitionMatrix.from_rows(rows)
                assert mat.is_irreducible() == reaches_both_ways(rows), rows
                assert mat.is_primitive() == wielandt_primitive(rows), rows

    def test_sampled_matrices_match_the_references(self):
        rng = random.Random(2406)
        sample = list(PERIODIC)
        for m in (4, 5, 6):
            sample += [random_binary_matrix(m, rng, rng.choice((0.2, 0.35, 0.5))) for _ in range(120)]
        kinds = set()
        for rows in sample:
            mat = TransitionMatrix.from_rows(rows)
            irreducible, primitive = reaches_both_ways(rows), wielandt_primitive(rows)
            assert mat.is_irreducible() == irreducible, rows
            assert mat.is_primitive() == primitive, rows
            kinds.add((irreducible, primitive))
        assert kinds == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize("self_loop, primitive", [(False, False), (True, True)])
    def test_wide_cycle_is_decided_quickly(self, self_loop, primitive):
        # the cycle 0 -> 1 -> ... -> 511 -> 0 has period 512, and period 1
        # once letter 0 also steps to itself
        rows = [[int(j == (i + 1) % 512) for j in range(512)] for i in range(512)]
        rows[0][0] = int(self_loop)
        mat = TransitionMatrix.from_rows(rows)
        start = time.perf_counter()
        assert mat.is_irreducible()
        assert mat.is_primitive() is primitive
        assert time.perf_counter() - start < 1.0


class TestPowerSums:
    def test_golden_values(self, golden):
        assert matrix_power_sum(golden, 0) == 2
        assert matrix_power_sum(golden, 1) == 3
        assert matrix_power_sum(golden, 4) == 13

    def test_golden_fibonacci_recursion(self, golden):
        for k in range(2, 30):
            assert golden.power_sum(k) == golden.power_sum(k - 1) + golden.power_sum(k - 2)

    def test_rejects_negative_power(self, golden):
        with pytest.raises(ValueError):
            golden.power_sum(-1)

    @given(st.integers(0, 42))
    @settings(max_examples=25, deadline=None)
    def test_monotone_and_bounded_for_irreducible(self, k):
        rng = random.Random(k)
        mat = random_irreducible(3, rng)
        assert mat.power_sum(k + 1) >= mat.power_sum(k) >= mat.m
        assert mat.power_sum(k) <= mat.m ** (k + 1)

    @given(irreducible_matrices(), st.integers(0, 80))
    @settings(max_examples=60, deadline=None)
    def test_equals_entry_sum_of_explicit_power(self, matrix, k):
        power = [[int(i == j) for j in range(matrix.m)] for i in range(matrix.m)]
        sums = [sum(map(sum, power))]
        for _ in range(k):
            power = _matmul(power, matrix.rows)
            sums.append(sum(map(sum, power)))
        # the largest power first, so the smaller ones come from the cache
        assert matrix.power_sum(k) == sums[k]
        assert [matrix.power_sum(j) for j in range(k + 1)] == sums

    def test_threaded_cache_consistency(self, golden):
        results = []

        def worker():
            results.append([golden.power_sum(k) for k in range(60)])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_threads_filling_one_cache_agree(self):
        # more threads than cores, released together and switching often,
        # each extending a fresh cache a few powers at a time, for 8 rounds
        rows = ((0, 1, 1, 0), (1, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 1))
        top = 400
        expected = [TransitionMatrix.from_rows(rows).power_sum(k) for k in range(top)]
        matrices = [TransitionMatrix.from_rows(rows) for _ in range(8)]
        orders = [range(0, top, step) for step in (1, 2, 3)] * 4
        barrier = threading.Barrier(len(orders))
        results = []

        def worker(order):
            for matrix in matrices:
                barrier.wait(timeout=30)
                results.append([(k, matrix.power_sum(k)) for k in order])

        threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == len(threads) * len(matrices)
        assert all(value == expected[k] for result in results for k, value in result)


class TestTruncationIndex:
    TAILS = {
        "halving": lambda i: (3, 2**i),
        # numerator and denominator past the float range, quotient inside it
        "huge_pair": lambda i: (3 * 10**400, 2**i * 10**400),
        # the quotient itself starts past the float range
        "huge_value": lambda i: (10**400, 3**i),
        # the quotient ends below the smallest subnormal
        "tiny_value": lambda i: (1, 10 ** (300 + i)),
    }

    @pytest.mark.parametrize(("name", "start"), [("halving", 1), ("halving", 2), ("huge_pair", 1),
                                                 ("huge_value", 1), ("tiny_value", 2)])
    @pytest.mark.parametrize("tol", [1.0, 0.75, 0.7, 3 / 2**30, 1e-300, 5e-324])
    def test_first_index_of_a_per_term_scan(self, name, start, tol):
        tail = self.TAILS[name]
        N, pair = truncation_index(tail, start, tol)
        expected = next(i for i in range(start, 4000) if Fraction(*tail(i)) <= tol)
        assert (N, pair) == (expected, tail(expected))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError, match="positive and finite"):
            truncation_index(self.TAILS["halving"], 1, 0.0)

    @given(st.integers(-50, 50), st.integers(0, 5000))
    def test_first_index_of_a_monotone_test(self, start, offset):
        # the search that truncation_index and GrowthMap.count_upto share
        first = start + offset
        asked = []

        def holds(i):
            asked.append(i)
            return i >= first

        assert _first_index(holds, start) == first
        assert min(asked) >= start


class TestDivInt:
    @given(st.floats(-1e300, 1e300), st.integers(-(2**53), 2**53).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_float_division_where_it_is_defined(self, x, n):
        assert _div_int(x, n) == x / n

    def test_divisor_past_the_float_range(self):
        with pytest.raises(OverflowError):
            1.5 / (3 * 2**1030)
        assert _div_int(1.5, 3 * 2**1030) == 2.0**-1031
        assert _div_int(-0.8, 10**400) == 0.0


class TestJson:
    def test_round_trip(self):
        s = validate_system(2, 3, 0, 0, GOLDEN)
        data = s.to_json_dict()
        again = system_from_json_dict(json.loads(json.dumps(data)))
        assert again.case_tag is s.case_tag
        assert again.matrix.rows == s.matrix.rows

    def test_unknown_keys_rejected(self):
        data = validate_system(2, 3, 0, 0, GOLDEN).to_json_dict()
        data["extra"] = 1
        with pytest.raises(InvalidSystemError, match="unknown"):
            system_from_json_dict(data)

    def test_missing_keys_rejected(self):
        data = validate_system(2, 3, 0, 0, GOLDEN).to_json_dict()
        del data["p"]
        with pytest.raises(InvalidSystemError, match="missing"):
            system_from_json_dict(data)

    def test_mismatched_m_rejected(self):
        data = validate_system(2, 3, 0, 0, GOLDEN).to_json_dict()
        data["m"] = 3
        with pytest.raises(InvalidSystemError, match="does not match"):
            system_from_json_dict(data)
