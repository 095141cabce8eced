"""Minkowski (box) dimension: closed forms, rigorous series truncation, and
exact admissible-pattern counts over finite windows.

The divisible closed form is a series over matrix power sums; it is summed
in floats with ``math.fsum``, truncated once a matrix-independent geometric
tail bound drops below the requested tolerance, and reported with a
rigorous bound on its float rounding.  Window pattern counts multiply
one exact power-sum factor per chain, which the enumeration oracle checks
against raw constraint counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    AffineSystem,
    CaseTag,
    DimensionReport,
    InvalidSystemError,
    TransitionMatrix,
    _div_int,
    check_tolerance,
    truncation_index,
)
from .lattice import Census, _depth_progressions, window_counts

#: the unit roundoff 2**-53 doubled
_TWO_U = 2.0**-52


@dataclass(frozen=True)
class SeriesEvaluation:
    """Truncated power-sum series sum_{i} log_m |A^{i-1}| / q1^{i+1}.

    tail_bound dominates the omitted terms via log_m |A^{i-1}| <= i + 1 and
    an arithmetic-geometric closed form, so it is rigorous for every binary
    matrix and shrinks monotonically as terms_used grows.  rounding_bound
    dominates the float error of partial_sum against the exact truncated sum.
    """

    partial_sum: float
    terms_used: int
    tail_bound: float
    log_base: int
    rounding_bound: float = 0.0


def _series_tail(upto_i: int, q1: int, d: int) -> tuple[int, int]:
    """series_tail_bound(upto_i, q1, d) as a pair (num, den) of positive ints.
    With log_m |A^{i-1}| <= i + 1, the arithmetic-geometric sum
    ((q1-1)^2/d) * sum_{i > N} (i + 1) / q1^(i+1) is
    ((q1-1)*N + 2*q1 - 1) / (d * q1^(N+1)) for N = upto_i."""
    return (q1 - 1) * upto_i + 2 * q1 - 1, d * q1 ** (upto_i + 1)


def series_tail_bound(upto_i: int, q1: int, d: int) -> Fraction:
    """Exact bound on ((q1-1)^2/d) * sum_{i > upto_i} log_m |A^{i-1}| / q1^{i+1}."""
    if upto_i < 1:
        raise ValueError("truncation index must be >= 1")
    return Fraction(*_series_tail(upto_i, q1, d))


def _series(matrix: TransitionMatrix, q1: int, d: int, tol: float, first_i: int,
            case_tag: CaseTag, const=0.0) -> DimensionReport:
    """const plus the float terms of ((q1-1)^2/d) * sum_{i >= first_i}
    log_m |A^{i-1}| / q1^{i+1} up to the first i = N whose tail bound is
    <= tol, summed with ``math.fsum``.  Returns the Minkowski report of
    ``case_tag``: the value, N, the tail and rounding bounds as floats, and
    tol.  ``series_evaluation`` reads its fields.

    Each weight (q1-1)^2 / (d q1^(i+1)) is one correctly rounded quotient of
    exact integers.  It is at most 1, so it cannot overflow, even for q1 or d
    past the float range, and far out it underflows to a subnormal or zero.

    rounding_bound dominates |value - exact| for the exact truncated sum
    with const rounded once; u = 2^-53.  Assuming math.log is within 1 ulp,
    a term log(P) / log(m) * w rounds log(P) within 5u relative (P >= 2;
    rounding P to a float adds at most u / ln 2, and past the float range
    math.log adds e * log(2) to the log of a rounded mantissa, within
    4.01u), log(m) within 2u, and the quotient, the weight and the product
    within u each: 10u to first order, at most 11u of the float term.
    Every term is positive, and the constant and the fsum result are
    rounded once each.  So with partial = fsum(terms) the error is at most
    u * (value + const) + 11u * partial * (1 + u); the first part of the
    bound exceeds that by u * (value + const) + 5u * partial, which covers
    its own float evaluation.  A term with a subnormal weight has log_m P in
    [1, i] (P >= m for an irreducible matrix) and errs by less than
    32 (i + 1) 2^-1075 in absolute terms; over all terms that is under
    (N + 2)^2 2^-1070.
    """
    N, (tail_num, tail_den) = truncation_index(lambda i: _series_tail(i, q1, d), first_i, tol)
    ln_m = math.log(matrix.m)
    num, den = (q1 - 1) ** 2, d * q1**first_i
    matrix.power_sum(N - 1)  # one cache extension; each call below is a lookup
    terms = []
    for i in range(first_i, N + 1):
        den *= q1
        terms.append(math.log(matrix.power_sum(i - 1)) / ln_m * (num / den))
    value = math.fsum([const, *terms])
    rounding = _TWO_U * (value + const + 8 * math.fsum(terms)) + (N + 2) ** 2 * 2.0**-1070
    return DimensionReport(
        value=value,
        kind="minkowski",
        case_tag=case_tag,
        truncation_index=N,
        tail_bound=tail_num / tail_den,
        tolerance=tol,
        rounding_bound=rounding,
    )


def dimension_nondivisible(sys: AffineSystem) -> DimensionReport:
    """Closed form 1 - 2/q + log_m |A| / q for the non-divisible case."""
    if sys.case_tag is not CaseTag.NON_DIVISIBLE:
        raise InvalidSystemError(
            f"non-divisible formula called on {sys.case_tag.value} system"
        )
    value = 1 - 2 / sys.q + _div_int(math.log2(sys.matrix.entry_sum) / math.log2(sys.m), sys.q)
    return DimensionReport(value=value, kind="minkowski", case_tag=sys.case_tag)


def dimension_divisible(sys: AffineSystem, tol: float = 1e-8) -> DimensionReport:
    """Series form for any system whose gcd divides b - a (this covers the
    classical p = 1 and the degenerate p1 = 1 regimes as well: the count of
    window patterns depends only on d and q1)."""
    if not sys.divisible:
        raise InvalidSystemError("divisible formula called on a non-divisible system")
    d, q1 = sys.d, sys.q1
    const = (d * q1**2 - 2 * q1 + 1) / (d * q1**2)
    return _series(sys.matrix, q1, d, tol, first_i=2, case_tag=sys.case_tag, const=const)


def dimension_classical(q: int, matrix: TransitionMatrix, tol: float = 1e-8) -> DimensionReport:
    """Series (q-1)^2 sum_{i>=1} log_m |A^{i-1}| / q^{i+1} for ratio-q systems."""
    if q < 2:
        raise InvalidSystemError(f"classical ratio must be >= 2, got {q}")
    return _series(matrix, q, 1, tol, first_i=1, case_tag=CaseTag.CLASSICAL)


def dimension(sys: AffineSystem, tol: float = 1e-8) -> DimensionReport:
    """Minkowski dimension of the system, dispatching on its case."""
    check_tolerance(tol)
    if sys.case_tag is CaseTag.NON_DIVISIBLE:
        return dimension_nondivisible(sys)
    return dimension_divisible(sys, tol)


def series_evaluation(sys: AffineSystem, tol: float = 1e-8) -> SeriesEvaluation:
    """The truncated divisible-case series with its rigorous tail bound: a
    view of the report that ``_series`` builds, without the constant."""
    if not sys.divisible:
        raise InvalidSystemError("the power-sum series belongs to the divisible case")
    report = _series(sys.matrix, sys.q1, sys.d, tol, first_i=2, case_tag=sys.case_tag)
    return SeriesEvaluation(
        partial_sum=report.value,
        terms_used=report.truncation_index,
        tail_bound=report.tail_bound,
        log_base=sys.m,
        rounding_bound=report.rounding_bound,
    )


def pattern_count_exact(
    n: int, sys: AffineSystem, census: Census | None = None
) -> int:
    """Exact number of admissible window patterns on {1, ..., n}.

    Each chain with j window members contributes a factor |A^{j-1}|
    (singletons contribute m); irreducibility, enforced at validation,
    guarantees every chain word extends past the window.
    """
    D = window_counts(n, sys) if census is None else census.D
    count = 1
    for j, cnt in D.items():
        count *= sys.matrix.power_sum(j - 1) ** cnt
    return count


def pattern_counts_upto(max_n: int, sys: AffineSystem) -> list[int]:
    """``pattern_count_exact(n, sys)`` for every n = 1..max_n, in one pass.

    Write s(j) = |A^(j-1)| for the factor of a chain with j window members
    (s(1) = m) and s(0) = 1.  Position n either starts a chain, or extends
    a chain holding its j = depth(n) predecessors, all in {1, ..., n-1}.
    Either way one factor s(j) becomes s(j+1), so count(n) = count(n-1) /
    s(j) * s(j+1).  The depth levels are nested progressions, those that
    ``window_counts`` reads, so marking each in turn leaves every depth.
    """
    levels = _depth_progressions(max_n, sys)
    depth = [0] * (max_n + 1)
    for t, (first, step) in enumerate(levels, 1):
        depth[first::step] = [t] * ((max_n - first) // step + 1)
    sums = [1] + [sys.matrix.power_sum(j) for j in range(len(levels) + 1)]
    counts = []
    count = 1
    for j in depth[1:]:
        count = count // sums[j] * sums[j + 1]
        counts.append(count)
    return counts


def empirical_dimension(n: int, sys: AffineSystem, census: Census | None = None) -> float:
    """log_m of the exact window pattern count divided by n, accumulated in
    log space so that large windows avoid astronomically large integers.
    Terms are summed by increasing j, so the value does not depend on which
    route produced the census.  The count is at most m^n, so a finite
    n * log2(m) keeps the sum finite as well."""
    try:
        scale = n * math.log2(sys.m)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise InvalidSystemError("window past the float range: n * log2(m) is not finite")
    D = window_counts(n, sys) if census is None else census.D
    total = sum(cnt * math.log2(sys.matrix.power_sum(j - 1)) for j, cnt in sorted(D.items()))
    return total / scale
