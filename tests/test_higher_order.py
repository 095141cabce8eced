import math

import pytest

from affdim import InvalidSystemError
from affdim.higher_order import (
    GrowthMap,
    HigherOrderSystem,
    affected_density,
    baseline_system,
    dim_gap_empirical,
    parse_growth,
    projected_pair_matrix,
    window_tuples,
)
from conftest import sys_golden


def square_system(pqab=(2, 3, 0, 0), forbidden=None):
    base = sys_golden(*pqab)
    words = forbidden if forbidden is not None else {(1, 1, 0), (1, 1, 1)}
    return HigherOrderSystem(
        base=base, forbidden=frozenset(words), growth_maps=(parse_growth("k^2"),)
    )


class TestGrowthMap:
    def test_parse_square(self):
        g = parse_growth("k^2")
        assert g.fn(3) == 9 and g.exponent == 2.0

    def test_parse_with_coefficient(self):
        g = parse_growth("3*k^2")
        assert g.fn(2) == 12

    def test_rejects_linear(self):
        with pytest.raises(InvalidSystemError):
            parse_growth("k^1")

    def test_rejects_garbage(self):
        with pytest.raises(InvalidSystemError):
            parse_growth("exp(k)")

    def test_rejects_non_monotone(self):
        with pytest.raises(InvalidSystemError, match="increasing"):
            GrowthMap(fn=lambda k: 10, exponent=2.0, label="const")

    @pytest.mark.parametrize("text", ["k^52", "k^320", "k^1000", "2*k^52.5"])
    def test_exponent_past_the_float_range(self, text):
        # k^s at k = 10^6 leaves the float range from s = 52 on
        g = parse_growth(text)
        for n in (10, 10**60, 10**100):
            assert g.count_upto(n) == sum(1 for k in range(1, 200) if g.fn(k) <= n)
        assert g.fn(10**6) >= 10**312

    def test_refuses_an_exponent_too_large_to_evaluate(self):
        # the order check evaluates f(10^6) = 10^(6 s) exactly, about 19.9 s bits
        with pytest.raises(InvalidSystemError, match="past the float range"):
            parse_growth("k^" + "9" * 400)
        with pytest.raises(InvalidSystemError, match="about 1.99e\\+10 bits, past the 1048576-bit limit"):
            parse_growth("k^1000000000")
        # the limit falls between s = 52,000 and 53,000; below it the map is
        # evaluated (and this cheap one then fails the order check)
        with pytest.raises(InvalidSystemError, match="bit limit"):
            GrowthMap(fn=lambda k: k**2, exponent=53_000.0, label="k^53000")
        with pytest.raises(InvalidSystemError, match="does not look like order"):
            GrowthMap(fn=lambda k: k**2, exponent=52_000.0, label="k^52000")

    def test_rejects_wrong_order_past_the_float_range(self):
        with pytest.raises(InvalidSystemError, match="does not look like order k\\^60"):
            GrowthMap(fn=lambda k: k**61, exponent=60.0, label="k^61")
        with pytest.raises(InvalidSystemError, match="does not look like order k\\^2.0"):
            GrowthMap(fn=lambda k: k**4, exponent=2.0, label="k^4")

    def test_count_upto(self):
        g = parse_growth("k^2")
        assert g.count_upto(16) == 4
        assert g.count_upto(15) == 3
        assert g.count_upto(0) == 0


class TestHigherOrderSystem:
    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidSystemError, match="length 3"):
            square_system(forbidden={(1, 1)})

    def test_rejects_bad_letters(self):
        with pytest.raises(InvalidSystemError, match="out of range"):
            square_system(forbidden={(1, 2, 0)})

    def test_projected_matrix_full_block(self):
        # (1,1) forbidden with every completion: the pair itself is excluded
        hos = square_system()
        assert projected_pair_matrix(hos).rows == ((1, 1), (1, 0))

    def test_projected_matrix_partial_block(self):
        # one surviving completion keeps the pair admissible
        hos = square_system(forbidden={(1, 1, 0)})
        assert projected_pair_matrix(hos).rows == ((1, 1), (1, 1))

    def test_pairwise_only_projection(self):
        hos = HigherOrderSystem(
            base=sys_golden(2, 3, 0, 0), forbidden=frozenset({(1, 1)}), growth_maps=()
        )
        assert projected_pair_matrix(hos).rows == ((1, 1), (1, 0))


class TestAffectedDensity:
    def test_square_at_million(self):
        hos = square_system()
        measured, bound = affected_density(10**6, hos)
        expect = 2 * 1000 * (math.log(10**6) / math.log(3)) / 10**6
        assert bound == pytest.approx(expect, rel=1e-12)
        assert measured == pytest.approx(expect, rel=1e-12)  # k^2 count is exact here
        assert bound <= 0.03

    def test_bound_decreases_along_grid(self):
        hos = square_system()
        values = [affected_density(n, hos)[1] for n in (10**3, 10**4, 10**5, 10**6, 10**7, 10**8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_no_growth_maps_vanish(self):
        hos = HigherOrderSystem(
            base=sys_golden(2, 3, 0, 0), forbidden=frozenset({(1, 1)}), growth_maps=()
        )
        assert affected_density(10**4, hos) == (0.0, 0.0)

    def test_measured_dominated_by_theta_constants(self):
        hos = HigherOrderSystem(
            base=sys_golden(2, 3, 0, 0),
            forbidden=frozenset({(1, 1, 0), (1, 1, 1)}),
            growth_maps=(parse_growth("3*k^2"),),
        )
        measured, bound = affected_density(10**5, hos)
        assert measured <= 1.0 * bound + 1e-12  # count {k: 3k^2<=n} <= n^(1/2)


class TestWindowTuples:
    def test_doubling_square(self):
        hos = HigherOrderSystem(
            base=sys_golden(1, 2, 0, 0),
            forbidden=frozenset({(1, 1, 0), (1, 1, 1)}),
            growth_maps=(parse_growth("k^2"),),
        )
        assert window_tuples(16, hos) == [(1, 2, 1), (2, 4, 4), (3, 6, 9), (4, 8, 16)]


class TestDimGap:
    def test_pairwise_only_gap_is_zero(self):
        hos = HigherOrderSystem(
            base=sys_golden(1, 2, 0, 0), forbidden=frozenset({(1, 1)}), growth_maps=()
        )
        assert dim_gap_empirical(12, hos) == 0.0

    def test_fully_blocked_pair_adds_nothing(self):
        # forbidding (1,1,*) reproduces the pairwise system exactly
        hos = HigherOrderSystem(
            base=sys_golden(1, 2, 0, 0),
            forbidden=frozenset({(1, 1, 0), (1, 1, 1)}),
            growth_maps=(parse_growth("k^2",),),
        )
        gap = dim_gap_empirical(16, hos)
        assert gap == 0.0

    def test_partial_block_gap_small_and_bounded(self):
        hos = HigherOrderSystem(
            base=sys_golden(1, 2, 0, 0),
            forbidden=frozenset({(1, 1, 0)}),
            growth_maps=(parse_growth("k^2"),),
        )
        gap = dim_gap_empirical(16, hos)
        measured, _ = affected_density(16, hos)
        assert 0 < gap <= measured
        assert baseline_system(hos).matrix.rows == ((1, 1), (1, 1))

    def test_empty_forbidden_set(self):
        hos = HigherOrderSystem(
            base=sys_golden(1, 2, 0, 0), forbidden=frozenset(), growth_maps=(parse_growth("k^2"),)
        )
        assert dim_gap_empirical(14, hos) == 0.0
