import hashlib
import math
import random
from fractions import Fraction

import pytest

from affdim import InvalidSystemError, TransitionMatrix, validate_system
from affdim.lattice import decompose
from affdim.minkowski import (
    dimension,
    dimension_classical,
    dimension_divisible,
    dimension_nondivisible,
    empirical_dimension,
    pattern_count_exact,
    pattern_counts_upto,
    series_evaluation,
    series_tail_bound,
)
from conftest import (
    BATTERY,
    FULL2,
    GOLDEN,
    MIXED3,
    PERIODIC,
    SPARSE5,
    edge_tolerances,
    random_irreducible,
    reference_truncation,
    sys_full,
    sys_golden,
)

# frozen from a 40-digit evaluation of the power-sum series
DIM_M_CLASSICAL_GOLDEN_Q2 = 0.824293605712


class TestNonDivisible:
    def test_golden_value(self):
        report = dimension_nondivisible(sys_golden(2, 4, 0, 1))
        assert report.value == pytest.approx(1 - 0.5 + math.log2(3) / 4, abs=1e-14)
        assert report.tail_bound == 0.0

    def test_full_shift(self):
        assert dimension_nondivisible(sys_full(2, 4, 0, 1)).value == 1.0

    def test_rejects_divisible(self):
        # gcd(3,5) = 1 divides every offset difference
        with pytest.raises(InvalidSystemError):
            dimension_nondivisible(sys_golden(3, 5, 0, 1))


class TestDivisible:
    def test_classical_ratio_two(self):
        report = dimension_divisible(sys_golden(1, 2, 0, 0), tol=1e-10)
        assert report.value == pytest.approx(DIM_M_CLASSICAL_GOLDEN_Q2, abs=2e-10)
        assert report.tail_bound <= 1e-10

    def test_matches_classical_form(self):
        # same series written with the i = 1 term pulled into the constant
        for q in (2, 3, 5):
            div = dimension_divisible(sys_golden(1, q, 0, 0), tol=1e-10)
            cls = dimension_classical(q, sys_golden(1, q, 0, 0).matrix, tol=1e-10)
            assert abs(div.value - cls.value) <= 2e-10

    def test_degenerate_reduction_identity(self):
        for p, q, a, b in [(2, 4, 0, 0), (3, 6, 0, 3)]:
            s = sys_golden(p, q, a, b)
            whole = dimension_divisible(s, tol=1e-10)
            embedded = dimension_classical(s.q1, s.matrix, tol=1e-10)
            reduced = (1 - 1 / p) + embedded.value / p
            assert abs(whole.value - reduced) <= 2e-10

    def test_full_shift_telescopes_to_one(self):
        for pqab in BATTERY:
            s = sys_full(*pqab)
            if not s.divisible:
                continue
            assert dimension_divisible(s, tol=1e-12).value == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            dimension_divisible(sys_golden(1, 2, 0, 0), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, tol):
        # with nan the loop's stop test `tail <= tol` is never true
        with pytest.raises(ValueError, match="finite"):
            dimension(sys_golden(2, 3, 0, 0), tol=tol)

    @pytest.mark.parametrize("pqab", BATTERY[:4])
    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_dispatcher_rejects_non_finite_tolerance_in_every_case(self, pqab, tol):
        # the non-divisible closed form sums no series, so only the
        # dispatcher sees its tolerance
        with pytest.raises(ValueError, match="positive and finite"):
            dimension(sys_golden(*pqab), tol=tol)

    def test_rejects_non_divisible(self):
        with pytest.raises(InvalidSystemError):
            dimension_divisible(sys_golden(2, 4, 0, 1))
        with pytest.raises(InvalidSystemError, match="belongs to the divisible case"):
            series_evaluation(sys_golden(2, 4, 0, 1))


class TestSeries:
    def test_tail_bound_monotone(self):
        for q1, d in [(2, 1), (3, 1), (3, 2), (5, 1)]:
            for N in range(1, 40, 3):
                assert series_tail_bound(N + 5, q1, d) < series_tail_bound(N, q1, d)

    def test_tail_bound_is_the_three_fraction_expression(self):
        # the closed form the pair replaced, q1 and d far past the float range
        for q1 in (2, 3, 10**400):
            for d in (1, 7, 10**400):
                for N in range(1, 61):
                    old = Fraction(1, d) * Fraction(1, q1**N) * ((N + 2) - Fraction(N + 1, q1))
                    assert series_tail_bound(N, q1, d) == old, (q1, d, N)
        with pytest.raises(ValueError, match=">= 1"):
            series_tail_bound(0, 2, 1)

    def test_tail_bound_dominates_true_tail(self, golden):
        # extend the series far past the truncation and compare
        q1, d = 2, 1
        ev = series_evaluation(sys_golden(1, 2, 0, 0), tol=1e-6)
        far = dimension_divisible(sys_golden(1, 2, 0, 0), tol=1e-14)
        const = 1 - (2 * q1 - 1) / (d * q1**2)
        true_tail = far.value - (const + ev.partial_sum)
        assert 0 <= true_tail <= ev.tail_bound

    @pytest.mark.parametrize(
        ("p1", "q1", "d"),
        [(p1, q1, d) for q1 in (2, 3, 5) for p1 in (1, 2, 3) if p1 < q1 and math.gcd(p1, q1) == 1
         for d in (1, 2)],
    )
    def test_truncation_index_matches_reference_scan(self, p1, q1, d):
        s = sys_golden(d * p1, d * q1, 0, 0)

        def tail(i):
            return series_tail_bound(i, q1, d)

        for tol in edge_tolerances(tail, (2, 3, 9, 40)):
            N, t = reference_truncation(tail, 2, tol)
            report = dimension_divisible(s, tol=tol)
            assert (report.truncation_index, report.tail_bound) == (N, float(t)), tol
            ev = series_evaluation(s, tol=tol)
            assert (ev.terms_used, ev.tail_bound) == (N, float(t)), tol

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_classical_truncation_index_matches_reference_scan(self, golden, q):
        def tail(i):
            return series_tail_bound(i, q, 1)

        for tol in edge_tolerances(tail, (1, 2, 9, 40)):
            N, t = reference_truncation(tail, 1, tol)
            report = dimension_classical(q, golden, tol=tol)
            assert (report.truncation_index, report.tail_bound) == (N, float(t)), tol

    def test_evaluation_fields(self):
        ev = series_evaluation(sys_golden(2, 3, 0, 0), tol=1e-9)
        assert ev.log_base == 2
        assert ev.tail_bound <= 1e-9
        assert ev.terms_used >= 2


class TestRoundingBound:
    """The float series against the same truncated sum in 60-digit mpmath."""

    TOLS = (1e-3, 1e-8, 1e-15, 1e-300, 5e-324)

    def test_float_sum_within_rounding_bound(self):
        import mpmath as mp

        rng = random.Random(20241018)
        matrices = [random_irreducible(rng.randint(2, 5), rng) for _ in range(8)]
        matrices += [TransitionMatrix.from_rows(rows) for rows in PERIODIC]
        checked = 0
        with mp.workdps(60):
            for mat in matrices:
                sums = {}  # q1 -> prefix sums S[N] = sum_{i=1..N} log_m |A^{i-1}| / q1^(i+1)

                def prefix(q1, N):
                    S = sums.setdefault(q1, [mp.mpf(0)])
                    while len(S) <= N:
                        i = len(S)
                        S.append(S[-1] + mp.log(mat.power_sum(i - 1), mat.m) / mp.mpf(q1) ** (i + 1))
                    return S[N]

                for p, q, a, b in [(p, q, a, b) for p in range(1, 5) for q in range(5, 9)
                                   for a, b in ((0, 0), (1, 3))]:
                    s = validate_system(p, q, a, b, mat)
                    if not s.divisible:
                        continue
                    q1, d = s.q1, s.d
                    const = 1 - mp.mpf(2 * q1 - 1) / (d * q1**2)
                    for tol in self.TOLS:
                        report = dimension(s, tol)
                        ev = series_evaluation(s, tol)
                        N = report.truncation_index
                        series = mp.mpf((q1 - 1) ** 2) / d * (prefix(q1, N) - prefix(q1, 1))
                        assert abs(report.value - (const + series)) <= report.rounding_bound
                        assert abs(ev.partial_sum - series) <= ev.rounding_bound
                        assert 0 < ev.rounding_bound < report.rounding_bound <= 1e-14
                        if p == 1:
                            cls = dimension_classical(q, mat, tol)
                            ref = (q - 1) ** 2 * prefix(q, cls.truncation_index)
                            assert abs(cls.value - ref) <= cls.rounding_bound <= 1e-14
                        checked += 1
        assert checked > 500

    @pytest.mark.parametrize(
        "pqab",
        [(1, 10**400, 0, 0), (10**400, 3 * 10**400, 0, 0), (2 * 10**300, 3 * 10**300, 0, 0)],
        ids=["classical", "degenerate", "general"],
    )
    def test_ratio_and_gcd_past_the_float_range(self, pqab):
        # each weight (q1-1)^2 / (d q1^(i+1)) is a quotient of exact integers,
        # so neither q1 nor d is ever converted to a float
        s = sys_golden(*pqab)
        for tol in self.TOLS:
            report = dimension(s, tol)
            exact = 1 - Fraction(2 * s.q1 - 1, s.d * s.q1**2)
            assert 0 <= report.value - float(exact) <= report.tail_bound + report.rounding_bound
        if s.p == 1:
            assert dimension_classical(s.q, s.matrix).value == 1.0


class TestPatternCount:
    def test_examples(self):
        assert pattern_count_exact(3, sys_golden(1, 2, 0, 0)) == 6
        assert pattern_count_exact(2, sys_golden(2, 3, 0, 0)) == 4
        assert pattern_count_exact(5, sys_golden(2, 4, 0, 1)) == 24

    def test_running_counts_match_every_window(self):
        # each position either starts a chain or extends its predecessor's;
        # signed offsets give k_min > 1 and a > b
        rng = random.Random(16)
        systems = [sys_golden(*pqab) for pqab in BATTERY + [(2, 5, -3, 4), (2, 5, 3, 1), (1, 3, 1, 0)]]
        systems += [validate_system(2, 3, 0, 0, random_irreducible(m, rng)) for m in (3, 4)]
        for s in systems:
            counts = pattern_counts_upto(90, s)
            assert counts == [pattern_count_exact(n, s) for n in range(1, 91)]
            # both routes above read the same depth progressions; the
            # census of the scalar walk is independent of them
            assert counts == [pattern_count_exact(n, s, decompose(n, s).census()) for n in range(1, 91)]

    def test_running_counts_refuse_what_the_census_refuses(self):
        with pytest.raises(ValueError, match=">= 1"):
            pattern_counts_upto(0, sys_golden(2, 3, 0, 0))
        with pytest.raises(InvalidSystemError, match="non-increasing"):
            pattern_counts_upto(10, sys_golden(1, 2, 1, 0))
        # refused at once, before anything of the window's size is built
        with pytest.raises(InvalidSystemError, match="non-increasing"):
            pattern_counts_upto(10**12, sys_golden(1, 2, 1, 0))

    def test_full_matrix_counts_everything(self):
        for n in (1, 4, 9):
            assert pattern_count_exact(n, sys_full(2, 3, 0, 0)) == 2**n

    def test_empirical_from_count(self):
        s = sys_golden(2, 4, 0, 1)
        assert empirical_dimension(5, s) == pytest.approx(math.log2(24) / 5, abs=1e-12)

    def test_empirical_refuses_windows_past_the_float_range(self):
        s = sys_golden(2, 3, 0, 0)
        assert math.isfinite(empirical_dimension(10**300, s))
        for n in (10**400, 2**1024):
            with pytest.raises(InvalidSystemError, match="float range"):
                empirical_dimension(n, s)

    def test_full_matrix_empirical_is_one(self):
        for pqab in BATTERY:
            assert empirical_dimension(1000, sys_full(*pqab)) == pytest.approx(1.0, abs=1e-12)


class TestConvergence:
    def test_doubling_sequence_approaches_closed_form(self):
        s = sys_golden(1, 2, 0, 0)
        closed = dimension(s, tol=1e-10).value
        gaps = [abs(empirical_dimension(n, s) - closed) for n in (10**3, 10**4, 10**5)]
        assert gaps[-1] <= 0.02
        assert gaps[-1] <= gaps[0]

    @pytest.mark.parametrize("pqab", BATTERY[:4])
    def test_window_of_a_trillion_meets_closed_form(self, pqab):
        # one system per case tag; the window counts are arithmetic, so a
        # window this large costs no more than a small one
        s = sys_golden(*pqab)
        gap = abs(empirical_dimension(10**12, s) - dimension(s, tol=1e-12).value)
        assert gap <= 1e-9

    def test_battery_bounds(self, random3):
        rng = random.Random(3)
        matrices = [GOLDEN, FULL2, random3, random_irreducible(3, rng)]
        for pqab in BATTERY:
            for mat in matrices:
                report = dimension(validate_system(*pqab, mat), tol=1e-9)
                assert 0.0 <= report.value <= 1.0 + 1e-12


def series_fingerprint() -> str:
    """sha256 over the value, N, tail bound and rounding bound of the three
    series functions, the floats as ``float.hex``, on three matrices, the
    four case tags and three tolerances.  ``to_dict`` leaves rounding_bound
    out, so no report digest sees it; this one does."""
    lines = []
    for rows in (GOLDEN, MIXED3, SPARSE5):
        for pqab in ((1, 2, 0, 0), (2, 3, 0, 0), (4, 6, 1, 3), (2, 4, 0, 0), (2, 4, 0, 1)):
            s = validate_system(*pqab, rows)
            for tol in (1e-8, 1e-12, 5e-324):
                r = dimension_classical(s.q, s.matrix, tol)
                fields = [(r.value, r.truncation_index, r.tail_bound, r.rounding_bound)]
                if s.divisible:
                    r, ev = dimension_divisible(s, tol), series_evaluation(s, tol)
                    fields.append((r.value, r.truncation_index, r.tail_bound, r.rounding_bound))
                    fields.append((ev.partial_sum, ev.terms_used, ev.tail_bound, ev.rounding_bound))
                lines += [f"{v.hex()} {N} {t.hex()} {e.hex()}" for v, N, t, e in fields]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestSeriesPins:
    def test_series_floats_are_pinned(self):
        # recorded before the three functions shared one summation routine
        assert series_fingerprint() == "c8e09e7912ed40982c633b3d1b23fcdba5ddec946ae71e10e202d49538edb222"
