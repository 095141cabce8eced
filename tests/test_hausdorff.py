import json
import math
import random
import time
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affdim import CaseTag, InvalidSystemError, NumericalError, TransitionMatrix, chain_density, validate_system
from affdim import hausdorff, measures, minkowski
from affdim.cli import main
from affdim.hausdorff import (
    chain_potential,
    comparison_gap,
    dimension,
    dimension_classical,
    dimension_degenerate,
    dimension_divisible,
    dimension_nondivisible,
    limit_tail_bound,
    power_fixed_point,
)
from affdim.hausdorff import _drift_range, _singleton_density
from conftest import (
    BATTERY,
    BIPARTITE4,
    FULL2,
    FULL3,
    GOLDEN,
    MIXED3,
    PERIODIC,
    SPARSE5,
    SWAP,
    edge_tolerances,
    mp_fixed_point,
    random_irreducible,
    reference_truncation,
    sys_full,
    sys_golden,
    wide_irreducible,
)

# root of x^3 = x + 1; the golden-matrix ratio-2 fixed point is (r^2, r)
PLASTIC = 1.3247179572447460


@st.composite
def divisible_general_systems(draw):
    """Divisible-general systems on random irreducible matrices, periodic
    ones included."""
    p = draw(st.integers(2, 6))
    q = draw(st.integers(p + 1, 12))
    d = math.gcd(p, q)
    a = draw(st.integers(0, 3))
    b = draw(st.sampled_from([x for x in range(8) if (x - a) % d == 0]))
    assume(p // d >= 2)
    m = draw(st.integers(2, 5))
    random_rows = st.lists(
        st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=m, max_size=m
    )
    matrix = TransitionMatrix.from_rows(draw(st.one_of(st.sampled_from(PERIODIC), random_rows)))
    assume(matrix.is_irreducible())
    return validate_system(p, q, a, b, matrix)


def explicit_pair_potential(matrix, w1: Fraction, w2: Fraction) -> float:
    """Closed form for length-2 chains: sum_x a_x^(w2/(w1+w2))."""
    e = float(w2 / (w1 + w2))
    return sum(r**e for r in matrix.row_sums)


def explicit_triple_potential(matrix, w1: Fraction, w2: Fraction, w3: Fraction) -> float:
    """Closed form for length-3 chains via the inner sum
    F(x) = sum_y a_{x,y} a_y^(w3/(w2+w3)), potential sum_{x,y} a_{x,y}
    a_y^(w3/(w2+w3)) F(x)^(-w1/(w1+w2+w3))."""
    m = matrix.m
    rows = matrix.rows
    sums = matrix.row_sums
    e_in = float(w3 / (w2 + w3))
    e_out = float(w1 / (w1 + w2 + w3))
    total = 0.0
    for x in range(m):
        F = sum(rows[x][y] * sums[y] ** e_in for y in range(m))
        for y in range(m):
            if rows[x][y]:
                total += sums[y] ** e_in * F ** (-e_out)
    return total


class TestFixedPoint:
    def test_golden_ratio_two(self, golden):
        fp = power_fixed_point(golden, 2, tol=1e-12)
        assert fp.values[1] == pytest.approx(PLASTIC, abs=1e-12)
        assert fp.values[0] == pytest.approx(PLASTIC**2, abs=1e-12)
        assert fp.residual <= 1e-12
        assert fp.iterations <= 200

    def test_full_matrix_symmetric(self, full2):
        fp = power_fixed_point(full2, 2, tol=1e-12)
        assert fp.values[0] == pytest.approx(2.0, abs=1e-12)
        assert fp.values[1] == pytest.approx(2.0, abs=1e-12)

    def test_swap_matrix_fixed_point(self):
        # periodic, so not primitive; (1, 1) is fixed after the first step
        fp = power_fixed_point(TransitionMatrix.from_rows(SWAP), 2)
        assert fp.values == (1.0, 1.0)
        assert fp.residual == 0.0

    def test_rejects_zero_row(self):
        # (A t)_x = 0 leaves the positive cone, so no positive fixed point
        with pytest.raises(InvalidSystemError, match="zero rows"):
            power_fixed_point(TransitionMatrix.from_rows([[1, 1], [0, 0]]), 2)

    def test_residual_budget_random(self):
        rng = random.Random(5)
        for _ in range(12):
            m = rng.choice((2, 3, 4, 6, 8))
            q = rng.choice((2, 3, 4, 6))
            mat = random_irreducible(m, rng, primitive=True)
            fp = power_fixed_point(mat, q, tol=1e-12)
            assert fp.residual <= 1e-12
            assert fp.iterations <= 200
            assert all(1.0 <= t <= m ** (1.0 / (q - 1)) + 1e-12 for t in fp.values)

    def test_divergence_budget_error(self, golden):
        with pytest.raises(NumericalError):
            power_fixed_point(golden, 2, tol=1e-12, max_iterations=3)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, golden, tol):
        # a nan tolerance never compares below a residual; inf accepts any
        with pytest.raises(ValueError, match="finite"):
            power_fixed_point(golden, 2, tol=tol)


class TestNonDivisible:
    def test_golden_value(self):
        report = dimension_nondivisible(sys_golden(2, 4, 0, 1))
        expect = 1 - 0.5 - 0.25 + 0.5 * math.log2(math.sqrt(2) + 1)
        assert report.value == pytest.approx(expect, abs=1e-14)

    def test_full_is_one(self):
        assert dimension_nondivisible(sys_full(2, 4, 0, 1)).value == pytest.approx(1.0, abs=1e-12)

    def test_sits_below_box_dimension(self):
        h = dimension_nondivisible(sys_golden(2, 4, 0, 1)).value
        mk = minkowski.dimension_nondivisible(sys_golden(2, 4, 0, 1)).value
        assert h < mk


class TestClassical:
    def test_golden_ratio_two(self):
        report = dimension_classical(sys_golden(1, 2, 0, 0), tol=1e-12)
        expect = 0.5 * math.log2(PLASTIC**2 + PLASTIC)
        assert report.value == pytest.approx(expect, abs=1e-12)

    def test_offset_invariance(self):
        base = dimension_classical(sys_golden(1, 2, 0, 0), tol=1e-12).value
        for a, b in ((1, 0), (5, -3), (-2, 7)):
            assert dimension_classical(sys_golden(1, 2, a, b), tol=1e-12).value == base

    def test_full_is_one(self):
        assert dimension_classical(sys_full(1, 2, 0, 0)).value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_classical(self):
        with pytest.raises(InvalidSystemError):
            dimension_classical(sys_golden(2, 3, 0, 0))


class TestChainPotential:
    def test_pair_closed_form_golden(self):
        s = sys_golden(2, 3, 0, 0)
        pot = chain_potential(2, s)
        # S1 = 1/18 + 1/9 = 1/6 and S2 = 1/9, so the exponent S2/S1 is 2/3
        # on the golden row sums (2, 1)
        assert pot.value == pytest.approx(2 ** (2 / 3) + 1, abs=1e-13)
        assert pot.weight() == Fraction(1, 6)

    def test_cumulative_weights_decrease(self):
        s = sys_golden(4, 6, 1, 3)
        for i in (2, 3, 5, 8):
            pot = chain_potential(i, s)
            assert all(a > b > 0 for a, b in zip(pot.S, pot.S[1:]))
            assert 1.0 <= pot.value <= s.m**i

    @pytest.mark.parametrize("pqab", [(2, 3, 0, 0), (4, 6, 1, 3), (3, 5, 1, 2)])
    def test_matches_explicit_forms_random_matrices(self, pqab):
        s_ref = sys_golden(*pqab)
        rng = random.Random(93)
        for _ in range(20):
            mat = random_irreducible(rng.choice((2, 3)), rng)
            s = validate_system(*pqab, mat)
            w = [chain_density(i, j, s) for i, j in ((2, 1), (2, 2))]
            pot2 = chain_potential(2, s)
            assert pot2.value == pytest.approx(
                explicit_pair_potential(mat, *w), abs=1e-12
            )
            w3 = [chain_density(3, j, s) for j in (1, 2, 3)]
            pot3 = chain_potential(3, s)
            assert pot3.value == pytest.approx(
                explicit_triple_potential(mat, *w3), abs=1e-12
            )
        assert s_ref.case_tag.value == "divisible_general"

    def test_equal_row_sums_reach_entropy_bound(self, full2):
        # with every row sum equal the weighted-power bound is an equality
        s = validate_system(2, 3, 0, 0, FULL2)
        for i in range(2, 7):
            pot = chain_potential(i, s)
            bound = sum(
                float(chain_density(i, k, s)) * math.log2(s.matrix.power_sum(k - 1))
                for k in range(1, i + 1)
            ) / float(pot.weight())
            assert pot.log_value() == pytest.approx(bound, abs=1e-10)

    def test_hoelder_level_bound_random(self):
        rng = random.Random(55)
        s_base = (2, 3, 0, 0)
        for _ in range(15):
            mat = random_irreducible(rng.choice((2, 3)), rng)
            s = validate_system(*s_base, mat)
            for i in (2, 3, 4):
                pot = chain_potential(i, s)
                bound = sum(
                    float(chain_density(i, k, s)) * math.log2(mat.power_sum(k - 1))
                    for k in range(1, i + 1)
                ) / (float(pot.weight()) * math.log2(mat.m))
                assert pot.log_value() <= bound + 1e-12

    def test_rejects_wrong_case_and_length(self):
        with pytest.raises(InvalidSystemError):
            chain_potential(2, sys_golden(1, 2, 0, 0))
        with pytest.raises(ValueError):
            chain_potential(1, sys_golden(2, 3, 0, 0))


class TestDivisibleGeneral:
    def test_golden_two_three(self):
        report = dimension_divisible(sys_golden(2, 3, 0, 0), tol=1e-10)
        # constant term 1/3 plus the first chain contribution
        assert float(chain_density(1, 1, sys_golden(2, 3, 0, 0))) == pytest.approx(1 / 3)
        # weight S1 = 1/6 times log2 of the pair potential 2^(2/3) + 1
        first = (1 / 6) * math.log2(2 ** (2 / 3) + 1)
        assert first == pytest.approx(0.228583948628, abs=1e-10)
        assert report.contributions[0]["contribution"] == pytest.approx(first, abs=1e-12)
        # supported independently by the Monte Carlo check in test_measures
        assert report.value == pytest.approx(0.869825, abs=1e-6)
        assert report.tail_bound <= 1e-10

    def test_singleton_density_is_the_rounded_fraction(self):
        # one integer quotient gives the float of the four-Fraction sum,
        # also where the ints are far past the float range
        systems = [
            (p, q, a, b)
            for p in range(2, 13)
            for q in range(p + 1, 40)
            for a, b in ((0, 0), (1, 1 + math.gcd(p, q)))
        ] + [(2 * 10**30 + 2, 3 * 10**30 + 3, 0, 0), (6 * 7**200, 6 * 11**200, 0, 6)]
        checked = 0
        for pqab in systems:
            s = sys_golden(*pqab)
            if s.case_tag is CaseTag.DIVISIBLE_GENERAL:
                assert _singleton_density(s) == float(chain_density(1, 1, s)), pqab
                checked += 1
        assert checked > 200

    def test_full_matrix_is_one(self):
        report = dimension_divisible(sys_full(2, 3, 0, 0), tol=1e-11)
        assert report.value == pytest.approx(1.0, abs=1e-9)

    def test_below_box_dimension(self):
        h = dimension_divisible(sys_golden(2, 3, 0, 0), tol=1e-10).value
        mk = minkowski.dimension(sys_golden(2, 3, 0, 0), tol=1e-10).value
        assert mk - h >= 1e-4

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidSystemError, match="degenerate"):
            dimension_divisible(sys_golden(2, 4, 0, 0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # with nan the loop's stop test `tail <= tol` is never true
        with pytest.raises(ValueError, match="finite"):
            dimension(sys_golden(2, 3, 0, 0), tol=tol)

    @pytest.mark.parametrize("pqab", BATTERY[:4])
    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_dispatcher_rejects_non_finite_tolerance_in_every_case(self, pqab, tol):
        # the closed form sums no series, so only the dispatcher sees its
        # tolerance
        with pytest.raises(ValueError, match="positive and finite"):
            dimension(sys_golden(*pqab), tol=tol)

    @given(divisible_general_systems(), st.sampled_from([1e-3, 1e-8, 1e-12]))
    @settings(max_examples=60, deadline=None)
    def test_stream_equals_chain_potentials(self, s, tol):
        # the streamed levels are the reference dynamic program, bit for bit
        report = dimension_divisible(s, tol=tol)
        r = Fraction(s.p1, s.q1)
        assert [c["i"] for c in report.contributions] == list(range(2, report.truncation_index + 1))
        for c in report.contributions:
            pot = chain_potential(c["i"], s)
            assert c["t_phi"] == pot.value
            assert c["weight"] == float(pot.weight())
            assert c["contribution"] == c["weight"] * pot.log_value()
            # the identity the stream relies on, in exact arithmetic
            assert all(hi / lo == r for lo, hi in zip(pot.S, pot.S[1:]))
            assert all(e == float(r) for e in pot.exponents[:-1])
            assert pot.exponents[-1] == 0.0

    def test_tiny_tolerance_is_cheap(self):
        s = sys_golden(2, 3, 0, 0)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            report = dimension(s, tol=1e-200)
            best = min(best, time.perf_counter() - start)
        assert report.tail_bound <= 1e-200
        assert report.value == pytest.approx(0.869825, abs=1e-6)
        assert best < 0.5

    def test_tail_bound_is_the_last_tail(self):
        s = sys_golden(4, 6, 1, 3)
        report = dimension_divisible(s, tol=1e-9)
        width = limit_tail_bound(report.truncation_index, s)
        assert report.tail_bound == float(width) <= 1e-9
        assert limit_tail_bound(report.truncation_index - 1, s) > 1e-9

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(("p1", "q1"), [(2, 3), (2, 5), (3, 5)])
    def test_truncation_index_matches_reference_scan(self, p1, q1, d):
        for rows in (GOLDEN, ((1, 1, 0), (0, 1, 1), (1, 1, 1))):
            s = validate_system(d * p1, d * q1, 0, 0, rows)

            def tail(i):
                return limit_tail_bound(i, s)

            for tol in edge_tolerances(tail, (2, 3, 9, 40)):
                N, t = reference_truncation(tail, 2, tol)
                report = dimension_divisible(s, tol=tol)
                assert (report.truncation_index, report.tail_bound) == (N, float(t)), tol
                assert [c["i"] for c in report.contributions] == list(range(2, N + 1))


#: the float error of a summed divisible-general series, which no field
#: bounds yet: up to about 10 ulp of a value below 1 (32 ulp allowed)
SERIES_ALLOWANCE = 2.0**-47


def series_reference(s, digits: int = 50):
    """The full divisible-general Hausdorff series in ``digits``-digit
    mpmath, with exact r = p1/q1, summed until the omitted terms are below
    10^-(digits - 5): each log_m Phi_i is below q1 / (q1 - p1), and the
    rho_i beyond the last one sum to rho_i * p1 / (p1 - 1)."""
    import mpmath as mp

    with mp.workdps(digits):
        p, p1, q1, m = s.p, s.p1, s.q1, s.m
        r = mp.mpf(p1) / q1
        singles = chain_density(1, 1, s)
        total = mp.mpf(singles.numerator) / singles.denominator
        v = [mp.mpf(x) for x in s.matrix.row_sums]
        rho_den = p * q1
        for _ in range(100_000):
            powered = [x**r for x in v]
            rho_den *= p1
            rho = mp.mpf((q1 - 1) * (p1 - 1)) / rho_den
            total += rho * mp.log(mp.fsum(powered), m)
            if rho * p1 * q1 < mp.mpf(10) ** (5 - digits):
                return total
            v = [mp.fsum(compress(powered, row)) for row in s.matrix.rows]
    raise AssertionError("reference series did not converge")


def fixed_point_reference(s, digits: int = 45):
    """The p1 = 1 series in ``digits``-digit mpmath: (1 - 1/p) +
    ((q1 - 1) / (p q1)) log_m sum_i t_i for the fixed point t^q1 = A t of
    ``mp_fixed_point``."""
    import mpmath as mp

    with mp.workdps(digits):
        t = mp_fixed_point(s.matrix.rows, s.q1, digits)
        weight = mp.mpf(s.q1 - 1) / (s.p * s.q1)
        return 1 - mp.mpf(1) / s.p + weight * mp.log(mp.fsum(t), s.m)


#: matrices of the enclosure battery: golden, swap, a 3-cycle, all-ones,
#: and random irreducible ones with m = 2..5, zero-diagonal ones included
def enclosure_matrices():
    rng = random.Random(20261019)
    mats = [GOLDEN, SWAP, ((0, 1, 0), (0, 0, 1), (1, 0, 0)), FULL3]
    mats += [random_irreducible(m, rng).rows for m in (2, 3, 4, 5)]
    while len(mats) < 10:
        mat = random_irreducible(rng.randint(3, 5), rng)
        if not any(mat.rows[x][x] for x in range(mat.m)):
            mats.append(mat.rows)
    return mats


class TestLimitTail:
    """The omitted terms are summed from the last level and enclosed by the
    first step's drift range (``dimension_divisible``)."""

    SYSTEMS = [(2, 3, 0, 0), (2, 5, 0, 1), (4, 6, 1, 3), (3, 7, 1, 0), (6, 10, 0, 2), (5, 12, 2, 1)]
    TOLS = (1e-8, 1e-12, 1e-15, 1e-300)

    def test_enclosure_holds_the_50_digit_series(self):
        checked = 0
        for rows in enclosure_matrices():
            for pqab in self.SYSTEMS:
                s = validate_system(*pqab, rows)
                assert s.case_tag.value == "divisible_general"
                exact = series_reference(s)
                for tol in self.TOLS:
                    report = dimension_divisible(s, tol=tol)
                    assert report.tail_bound <= tol
                    assert report.value - SERIES_ALLOWANCE <= exact, (pqab, rows, tol)
                    assert exact <= report.value + report.tail_bound + SERIES_ALLOWANCE, (pqab, rows, tol)
                    checked += 1
        assert checked == 240

    #: classical and degenerate systems, with q1 up to 24
    P1_ONE = [(1, 2, 0, 0), (1, 3, 1, 0), (1, 7, 0, 0), (1, 24, 0, 0), (2, 4, 0, 0), (3, 6, 1, 4), (2, 14, 0, 0)]

    def test_enclosure_holds_the_fixed_point_at_p1_one(self):
        # at p1 = 1 every rho_i is 0 and the remainder weight meets the
        # infinite orbits, so the series encloses the fixed-point form
        checked = 0
        for rows in (GOLDEN, SWAP, FULL3, ((1, 1, 0), (1, 0, 1), (1, 1, 1)), MIXED3, SPARSE5):
            for pqab in self.P1_ONE:
                s = validate_system(*pqab, rows)
                assert s.p1 == 1
                exact = fixed_point_reference(s)
                for tol in self.TOLS + (5e-324,):
                    report = dimension(s, tol=tol)
                    assert report.tail_bound <= tol and report.truncation_index >= 2
                    assert report.contributions == ()  # every chain weight is 0
                    assert report.value - SERIES_ALLOWANCE <= exact, (pqab, rows, tol)
                    assert exact <= report.value + report.tail_bound + SERIES_ALLOWANCE, (pqab, rows, tol)
                    checked += 1
        assert checked == 210

    def test_drift_range_holds_the_exact_drift(self):
        import mpmath as mp

        for rows in enclosure_matrices() + list(PERIODIC):
            for pqab in self.SYSTEMS:
                s = validate_system(*pqab, rows)
                lo, width = _drift_range(s)
                with mp.workdps(50):
                    r = mp.mpf(s.p1) / s.q1
                    sums = s.matrix.row_sums
                    powered = [mp.mpf(x) ** r for x in sums]
                    drift = [mp.log(mp.fsum(compress(powered, row)) / sx, 2)
                             for row, sx in zip(s.matrix.rows, sums)]
                    assert lo <= min(drift)
                    assert lo + width * mp.log(s.m, 2) >= max(drift)
                    # the float margin stays small: 2 * m * 2^-49 and change
                    spread = (max(drift) - min(drift)) / mp.log(s.m, 2)
                    assert width - spread <= 2.5 * s.m * 2.0**-49

    @pytest.mark.parametrize(("p1", "q1", "p"), [(2, 3, 2), (2, 5, 4), (3, 4, 3), (5, 7, 10)])
    def test_drift_weights_sum_to_the_closed_form(self, p1, q1, p):
        # sum_{i>N} rho_i (r^(N-1) - r^(i-1)) / (1 - r) = 1 / (p q1^(N-1)),
        # checked against 300 exact terms; each later term is below
        # rho_i r^(N-1) / (1 - r), and those rho_i sum to rho_M p1 / (p1 - 1)
        r = Fraction(p1, q1)
        for N in (2, 3, 7):
            rho = [Fraction((q1 - 1) * (p1 - 1), p * q1 * p1 ** (i - 1)) for i in range(N + 1, N + 301)]
            partial = sum(w * (r ** (N - 1) - r ** (i - 1)) / (1 - r)
                          for i, w in zip(range(N + 1, N + 301), rho))
            rest = rho[-1] * p1 / (p1 - 1) * r ** (N - 1) / (1 - r)
            assert partial < Fraction(1, p * q1 ** (N - 1)) <= partial + rest

    @pytest.mark.parametrize("rows", [FULL2, FULL3, SWAP, BIPARTITE4])
    def test_equal_row_sums_stop_at_the_first_term(self, rows):
        # F maps a constant vector to a constant vector, so the drift range
        # is a point and only its float margin is left
        for pqab in self.SYSTEMS:
            s = validate_system(*pqab, rows)
            report = dimension_divisible(s, tol=1e-12)
            assert report.truncation_index == 2
            assert report.tail_bound <= 2.5 * s.m * 2.0**-49
            if rows in (FULL2, FULL3):
                assert abs(report.value - 1) <= 1e-15

    def test_rejects_wrong_case_and_index(self):
        with pytest.raises(InvalidSystemError):
            limit_tail_bound(3, sys_golden(2, 4, 0, 0))
        with pytest.raises(ValueError):
            limit_tail_bound(1, sys_golden(2, 3, 0, 0))


class TestSeriesAtP1One:
    """Classical and degenerate systems take the divisible series, whose
    p1 = 1 reading needs no fixed-point iteration, and the sampler's
    infinite chains read the same level stream."""

    def test_no_dimension_calls_the_fixed_point(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("power_fixed_point called")

        monkeypatch.setattr(hausdorff, "power_fixed_point", refuse)
        monkeypatch.setattr(measures, "power_fixed_point", refuse, raising=False)
        for pqab in BATTERY:
            s = sys_golden(*pqab)
            for tol in (1e-8, 1e-15):
                assert 0.0 < dimension(s, tol=tol).value < 1.0
            measures.PrefixMeasure(s, 300)
            assert len(measures.sample_prefix(s, 300, seed=1)) == 300
            assert 0.0 < measures.empirical_local_dimension(s, 300, seed=1, samples=2)[0] < 1.0
        assert {sys_golden(*pqab).case_tag for pqab in BATTERY} == set(CaseTag)

    def test_inputs_the_fixed_point_refused(self, capsys, tmp_path):
        # a wide matrix, large q, and a degenerate large q1 at a loose
        # tolerance: the fixed point's residual stop could not be met on
        # any of these in 200 steps, for the dimension or for the sampler
        cases = [((1, 2, 0, 0), wide_irreducible(256), 1e-12)]
        cases += [((1, q, 0, 0), GOLDEN, 1e-8) for q in (20000, 620584, 2**41 + 1)]
        cases += [((2, 620584, 0, -2), GOLDEN, 0.5)]
        for pqab, matrix, tol in cases:
            s = validate_system(*pqab, matrix)
            h, mk = dimension(s, tol=tol), minkowski.dimension(s, tol=tol)
            assert 0.0 < h.value <= mk.value + mk.tail_bound, pqab
        for pqab in [(1, 20000, 0, 0), (1, 620584, 0, 0), (2, 620584, 0, -2)]:
            path = tmp_path / "system.json"
            path.write_text(json.dumps(validate_system(*pqab, GOLDEN).to_json_dict()))
            for argv in (["sample", "--n", "50"], ["billingsley", "--n", "200", "--samples", "4"]):
                assert main([*argv, "--seed", "1", str(path)]) == 0, (pqab, argv)
                assert capsys.readouterr().err == ""


class TestDegenerate:
    def test_golden_examples(self):
        classical = dimension_classical(sys_golden(1, 2, 0, 0), tol=1e-12).value
        r240 = dimension_degenerate(sys_golden(2, 4, 0, 0), tol=1e-12)
        assert r240.value == pytest.approx(0.5 + classical / 2, abs=1e-12)
        r363 = dimension_degenerate(sys_golden(3, 6, 0, 3), tol=1e-12)
        assert r363.value == pytest.approx(2 / 3 + classical / 3, abs=1e-12)

    def test_exceeds_literal_series_value(self):
        s = sys_golden(2, 4, 0, 0)
        report = dimension_degenerate(s, tol=1e-12)
        literal = float(1 - Fraction(1, 2) - Fraction(1, 4) + Fraction(1, 4))
        assert literal == 0.5
        assert report.value > literal
        assert any("degenerates" in note for note in report.notes)

    def test_full_is_one(self):
        assert dimension_degenerate(sys_full(2, 4, 0, 0)).value == pytest.approx(1.0, abs=1e-12)


class TestDispatchAndGap:
    def test_dispatch_routes_every_case(self):
        # dimension runs _series directly for two tags; every report must
        # equal that of the tag's own entry point, notes and bounds included
        entry = {
            CaseTag.CLASSICAL: dimension_classical,
            CaseTag.DIVISIBLE_GENERAL: dimension_divisible,
            CaseTag.DIVISIBLE_DEGENERATE: dimension_degenerate,
        }
        seen = set()
        for pqab in BATTERY:
            for rows in (GOLDEN, MIXED3):
                s = validate_system(*pqab, rows)
                seen.add(s.case_tag)
                for tol in (1e-9, 1e-12):
                    report = dimension(s, tol)
                    assert report.kind == "hausdorff"
                    assert 0.0 <= report.value <= 1.0
                    box = minkowski.dimension(s, tol)
                    if s.case_tag is CaseTag.NON_DIVISIBLE:
                        assert report == dimension_nondivisible(s)
                        assert box == minkowski.dimension_nondivisible(s)
                    else:
                        assert report == entry[s.case_tag](s, tol)
                        assert box == minkowski.dimension_divisible(s, tol)
        assert seen == set(CaseTag)

    def test_golden_gaps(self):
        _, _, gap241 = comparison_gap(sys_golden(2, 4, 0, 1))
        assert gap241 == pytest.approx(0.0104639736, abs=1e-9)
        _, _, gap12 = comparison_gap(sys_golden(1, 2, 0, 0))
        assert gap12 == pytest.approx(0.0129231429, abs=1e-6)

    def test_full_matrix_gap_vanishes(self):
        for pqab in BATTERY:
            _, _, gap = comparison_gap(sys_full(*pqab), tol=1e-10)
            assert abs(gap) <= 1e-9

    def test_random_battery_ordering(self):
        rng = random.Random(17)
        for _ in range(25):
            mat = random_irreducible(rng.choice((2, 3)), rng, primitive=True)
            pqab = BATTERY[rng.randrange(len(BATTERY))]
            _, _, gap = comparison_gap(validate_system(*pqab, mat), tol=1e-10)
            assert gap >= -1e-9

    @pytest.mark.parametrize("rows", [SWAP, BIPARTITE4])
    def test_periodic_equal_row_sums_meet_box_dimension(self, rows):
        # with equal row sums H = M in every case; the fixed-point cases used
        # to refuse these matrices for not being primitive
        for pqab in BATTERY:
            s = validate_system(*pqab, rows)
            h = dimension(s, tol=1e-10)
            mk = minkowski.dimension(s, tol=1e-10)
            assert abs(h.value - mk.value) <= mk.tail_bound + 1e-12
