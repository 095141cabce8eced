"""Hausdorff dimension of affine multiplicative subshifts.

Three regimes: a closed form when gcd(p,q) does not divide b-a; otherwise
one series of chain-potential logs over the level stream of F_r, r = p1/q1
(``dimension_divisible``), and its p1 = 1 reading: the fixed-point form for
p = 1 and the sublattice reduction for p > 1 (``dimension_classical``).

``_series`` builds the report of every divisible case.  ``dimension`` runs
it directly for the classical and divisible-general tags; the degenerate
tag goes through ``dimension_degenerate``, which adds its note.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress, repeat
from operator import sub

from .core import (
    AffineSystem,
    CaseTag,
    DimensionReport,
    InvalidSystemError,
    NumericalError,
    TransitionMatrix,
    _div_int,
    check_tolerance,
    truncation_index,
)
from . import minkowski
from .lattice import chain_density


@dataclass(frozen=True)
class FixedPointVector:
    """Positive solution of t_i^exponent = sum_j a_{i,j} t_j."""

    values: tuple[float, ...]
    exponent: int
    residual: float
    iterations: int


def _levels(matrix: TransitionMatrix, r: float):
    """Yield [v_x**r] for v = row sums, F(row sums), F(F(row sums)), ...
    where F(v)_x = sum_{y : A[x][y] = 1} v[y]**r, each power taken once."""
    rows = matrix.rows
    v = [float(s) for s in matrix.row_sums]
    while True:
        powered = [vx**r for vx in v]
        yield powered
        v = [sum(compress(powered, row)) for row in rows]


def power_fixed_point(
    matrix: TransitionMatrix,
    exponent: int,
    tol: float = 1e-13,
    max_iterations: int = 200,
) -> FixedPointVector:
    """Iterate t <- (A t)^(1/exponent) componentwise from all-ones.

    The tests' reference; no library path calls it.  The p1 = 1 dimensions
    (``dimension_classical``) and the sampler's laws on infinite chains
    (``measures.stationary_chain_measure``) read level N of the level stream
    instead (``_last_level``).  The k-th iterate is
    F^(k-1)(row sums)^(1/exponent), F the map of ``_levels`` at
    r = 1/exponent.  For any matrix without zero rows
    it sends the open positive cone into itself and is a (1/exponent)-contraction in
    Thompson's metric (Lemmens-Nussbaum, Nonlinear Perron-Frobenius Theory,
    2012): A is monotone and homogeneous of degree 1, so it does not expand
    the metric, and the power 1/exponent scales it.  The iteration therefore
    converges to the unique positive fixed point for every irreducible
    matrix, periodic ones included; non-convergence within the iteration
    budget is a hard error.
    """
    if exponent < 2:
        raise InvalidSystemError(f"fixed-point exponent must be >= 2, got {exponent}")
    check_tolerance(tol)
    if 0 in matrix.row_sums:
        raise InvalidSystemError("fixed-point vector requires a matrix without zero rows")
    try:
        r = 1.0 / exponent
    except OverflowError:
        # t^exponent would overflow too: the iterate cannot be held in floats
        raise InvalidSystemError(
            f"fixed-point exponent of {exponent.bit_length()} bits is past the float range"
        ) from None
    t = [1.0] * matrix.m
    for iteration, nxt in zip(range(1, max_iterations + 1), _levels(matrix, r)):
        step = max(map(abs, map(sub, nxt, t)))
        t = nxt
        if step < tol / 10:
            at = [sum(compress(t, row)) for row in matrix.rows]
            res = max(map(abs, map(sub, map(pow, t, repeat(exponent)), at)))
            if res < tol:
                return FixedPointVector(
                    values=tuple(t), exponent=exponent, residual=res, iterations=iteration
                )
    raise NumericalError(
        f"fixed-point iteration did not reach residual {tol} in {max_iterations} steps"
    )


def dimension_nondivisible(sys: AffineSystem) -> DimensionReport:
    """Closed form 1 - 1/p - 1/q + log_m(sum_i a_i^(p/q)) / p."""
    if sys.case_tag is not CaseTag.NON_DIVISIBLE:
        raise InvalidSystemError(
            f"non-divisible formula called on {sys.case_tag.value} system"
        )
    ratio = sys.p / sys.q
    total = sum(r**ratio for r in sys.matrix.row_sums)
    value = 1 - 1 / sys.p - 1 / sys.q + _div_int(math.log2(total) / math.log2(sys.m), sys.p)
    return DimensionReport(value=value, kind="hausdorff", case_tag=sys.case_tag)


def dimension_classical(sys: AffineSystem, tol: float = 1e-10) -> DimensionReport:
    """Fixed-point form ((q-1)/q) log_m(sum_i t_i), t^q = A t, for p = 1; the
    offsets a, b do not enter.

    It is the series of ``dimension_divisible`` at p1 = 1: every rho_i is 0,
    the singleton density is 1 - 1/p, and the remainder weight
    (q1 - 1) / (p q1) is the density of the infinite orbits, whose log_m
    Phi_i tends to log_m sum_i t_i for t^q1 = A t.  The enclosure of
    log2 Phi_i - log2 Phi_N holds as i -> oo, so the width is the same.
    """
    if sys.case_tag is not CaseTag.CLASSICAL:
        raise InvalidSystemError(f"classical formula called on {sys.case_tag.value} system")
    return _series(sys, tol)


@dataclass(frozen=True)
class ChainPotential:
    """Backward dynamic program over one chain of full length i.

    S[k] holds the cumulative weight sum_{j>k} chain_density(i, j) as an
    exact rational; S[0] = rho_i is the density of chain starts of full
    length i.  exponents[k] = S[k+1]/S[k] for k < i-1 and the last one is
    0.0.  With the census-limit densities S[k] = rho_i * r^k for r = p1/q1,
    so every exponent but the last equals r (see ``dimension_divisible``),
    but this class computes them from the densities and does not assume it.
    Level values u[k][x] aggregate admissible continuations below level
    k+1; the chain potential ``value`` normalizes the induced optimal
    measure, and log_m(value) weighted by S[0] is that measure's entropy
    payoff.  It is the per-length reference that the tests compare against;
    the series and ``measures.chain_measure`` read the same levels from
    ``_levels`` instead.
    """

    i: int
    S: tuple[Fraction, ...]
    exponents: tuple[float, ...]   # exponents[k] = S_{k+2} / S_{k+1}, last one 0
    u: tuple[tuple[float, ...], ...]
    value: float
    log_base: int

    def log_value(self) -> float:
        return math.log2(self.value) / math.log2(self.log_base)

    def weight(self) -> Fraction:
        """Total density weight S_1 = sum_j chain_density(i, j)."""
        return self.S[0]


def chain_potential(i: int, sys: AffineSystem) -> ChainPotential:
    """Potential of the entropy-optimal measure on chains of full length i.

    Computed by a backward pass: u at the deepest level is all ones, each
    higher level sums admissible continuations raised to the ratio of
    consecutive cumulative weights, and the potential is the top-level sum
    raised to S_2/S_1.  All quantities stay >= 1, so the pass is stable.
    """
    if sys.case_tag is not CaseTag.DIVISIBLE_GENERAL:
        raise InvalidSystemError(
            f"chain potentials require the divisible-general case, got {sys.case_tag.value}"
        )
    if i < 2:
        raise ValueError(f"chain potential is defined for lengths >= 2, got {i}")
    m = sys.m
    rows = sys.matrix.rows
    densities = [chain_density(i, j, sys) for j in range(1, i + 1)]
    S = []
    acc = Fraction(0)
    for dens in reversed(densities):
        acc += dens
        S.append(acc)
    S.reverse()  # S[k] = S_{k+1} in 1-based terms
    exponents = [float(S[k + 1] / S[k]) for k in range(i - 1)] + [0.0]

    u_levels = [None] * i
    u_levels[i - 1] = tuple(1.0 for _ in range(m))
    for level in range(i - 2, -1, -1):
        e = exponents[level + 1]
        below = u_levels[level + 1]
        u_levels[level] = tuple(
            sum(below[y] ** e for y in range(m) if rows[x][y]) for x in range(m)
        )
    value = sum(ux ** exponents[0] for ux in u_levels[0])
    return ChainPotential(
        i=i,
        S=tuple(S),
        exponents=tuple(exponents),
        u=tuple(u_levels),
        value=value,
        log_base=m,
    )


def _drift_range(sys: AffineSystem) -> tuple[float, float]:
    """(lo, width): lo <= log2((F s)_x / s_x) <= hi for every letter x, where
    s is the row-sum vector and F = F_r at the exact r = p1/q1, and
    width >= (hi - lo) / log2(m).

    hi - lo is Hilbert's projective distance between s and F s, in log2
    units.  With u = 2^-53, and assuming ``**`` and ``math.log2`` within
    1 ulp: the float r = p1/q1 moves each s_y^r by at most u * ln m
    relative, and the power adds 2u; the sum of at most m positive powers
    adds (m - 1)u, so (F s)_x is computed within (m + 2 + ln m)u relative.
    Its log2 then errs by at most 1.45 times that plus 1 ulp of a log2
    below 2 log2 m; log2 s_x errs by 1 ulp of a value below log2 m, and
    the difference, at most log2 m, rounds once.  An r that underflows, for
    q1 past the float range, stays inside the margin: the exact s_y^r
    differs from 1 by about r ln m, far below u.  The total is under
    u * (1.47 (m + 2 + ln m) + 7 log2 m) <= 11 m u for m >= 2, so each
    side is widened by m * 2^-49 = 16 m u, whose spare 5 m u covers the
    rounding of lo and hi themselves.  The subtraction hi - lo, the
    division and log2(m) then err by at most 4u relative, and the factor
    1 + 2^-50 = 1 + 8u covers that and its own rounding.
    """
    powered = next(_levels(sys.matrix, sys.p1 / sys.q1))  # s_y^r
    drift = [
        math.log2(sum(compress(powered, row))) - math.log2(sx)
        for row, sx in zip(sys.matrix.rows, sys.matrix.row_sums)
    ]
    margin = sys.m * 2.0**-49
    lo, hi = min(drift) - margin, max(drift) + margin
    return lo, (hi - lo) / math.log2(sys.m) * (1 + 2.0**-50)


def _limit_tail(upto_i: int, sys: AffineSystem, width: float, scale: int) -> tuple[int, int]:
    """``width`` exactly, over scale * q1^(upto_i - 1), as a pair (num, den)
    of positive ints; at scale = p it is limit_tail_bound(upto_i, sys)."""
    num, den = width.as_integer_ratio()
    return num, den * scale * sys.q1 ** (upto_i - 1)


#: the precision of the sampler's infinite-chain laws, in log2 units (see
#: ``_last_level``)
LAW_PRECISION = 2.0**-53


def _last_level(sys: AffineSystem, scale: int, tol: float) -> tuple[float, int, tuple[int, int]]:
    """(lo, N, (num, den)): ``_drift_range``'s lower end, and the first N >= 2
    whose enclosure width / (scale * q1^(N-1)) is <= tol, with that
    enclosure as an exact pair, found by ``core.truncation_index``.

    The series takes scale = p: the width of its omitted terms after N terms
    (``dimension_divisible``).  The sampler's infinite chains (p1 = 1) take
    scale = q1 - 1.  Level k >= 1 of their stream (``measures._stream``) is
    P = (F^(k-1) s)^r for the row sums s, and the drift of every later step
    shrinks by r (``dimension_divisible``), so log2 P lies within
    [lo, hi] * r^k / (1 - r) of log2 t for the fixed point t^q1 = A t.
    Every ratio t_x / t_y of level N is therefore within
    (hi - lo) r^N / (1 - r) = (hi - lo) / ((q1 - 1) q1^(N-1)) of the limit
    in log2 units, that is width / ((q1 - 1) q1^(N-1)) in log_m units.  The
    laws are normalized ratios, so each law entry of level N is within the
    same log2 distance of the fixed point's.  The sampler asks for
    LAW_PRECISION / log2(m) in log_m units, a log2 distance of at most
    2^-53 (1 + 2^-51) once that quotient is rounded, so every law entry lies
    within relative 2^-53 ln 2 (1 + 2^-50) < 2^-53 of the fixed point's law,
    up to the float rounding of r and of the stream.
    """
    lo, width = _drift_range(sys)
    N, tail = truncation_index(lambda i: _limit_tail(i, sys, width, scale), 2, tol)
    return lo, N, tail


def limit_tail_bound(upto_i: int, sys: AffineSystem) -> Fraction:
    """Exact width of the enclosure of the divisible-general Hausdorff
    series' omitted terms after ``upto_i`` terms (see ``dimension_divisible``)."""
    if upto_i < 2:
        raise ValueError("truncation index must be >= 2")
    if sys.case_tag is not CaseTag.DIVISIBLE_GENERAL:
        raise InvalidSystemError("the chain-potential tail requires the divisible-general case")
    return Fraction(*_limit_tail(upto_i, sys, _drift_range(sys)[1], sys.p))


def _singleton_density(sys: AffineSystem) -> float:
    """float(chain_density(1, 1, sys)) without a Fraction: 1 - 1/p - 1/q +
    1/(d p1 q1) over the common denominator d p1 q1, as one correctly
    rounded integer quotient."""
    den = sys.d * sys.p1 * sys.q1
    return (den - sys.p1 - sys.q1 + 1) / den


def dimension_divisible(sys: AffineSystem, tol: float = 1e-8) -> DimensionReport:
    """Series of weighted chain-potential logs for the divisible-general case.

    H = chain_density(1, 1) + sum_{i >= 2} rho_i * log_m Phi_i, where
    rho_i = orbit_density(i) = sum_j chain_density(i, j) and
    Phi_i = chain_potential(i).value.

    The terms are streamed by one level recursion instead of one dynamic
    program per length.  With r = p1/q1 the census-limit densities are
    rho_i * r^(j-1) * (1-r) for j < i and rho_i * r^(i-1) for j = i, so
    the cumulative weights S_k = sum_{j >= k} chain_density(i, j) are
    S_k = rho_i * r^(k-1) for 1 <= k <= i: true at k = i, and
    S_k = rho_i * r^(k-1) * (1-r) + rho_i * r^k = rho_i * r^(k-1) given it
    at k+1 (at k = i-1 this reads rho_i * r^(i-2) * (1-r) + rho_i * r^(i-1)
    = rho_i * r^(i-2)).  Every ratio S_{k+1}/S_k is therefore exactly r, and
    the last exponent of ``chain_potential(i)`` is 0.  Its bottom level is
    all ones, the level above it is the row-sum vector, and every higher
    level applies F(v)_x = sum_{y : A[x][y] = 1} v[y]^r, which does not
    depend on i.  Hence Phi_i = sum_x F^(i-2)(row sums)_x^r, and each term
    costs one level of ``_levels``, whose m powers also give Phi_i.  The floats
    are the same operations in the same order as in ``chain_potential``
    (each power is taken once and reused), and r = p1 / q1 and rho_i are
    correctly rounded integer quotients, so every contribution equals
    ``chain_potential(i).value`` and ``float(chain_potential(i).weight())``
    exactly.

    The omitted terms are summed from the last level.  Write
    w_k = log2 F^(k-1)(row sums), so log2 Phi_i = log2 sum_x 2^(r w_(i-1), x).
    Both maps are monotone and move a constant shift c of w to r * c, so
    lo <= w_2 - w_1 <= hi (``_drift_range``) gives
    r^(k-1) lo <= w_(k+1) - w_k <= r^(k-1) hi for k >= 1, and for i > N
    log2 Phi_i - log2 Phi_N lies in [lo, hi] * (r^(N-1) - r^(i-1)) / (1 - r):
    F is an r-contraction of Hilbert's projective metric, as in
    ``power_fixed_point``.  Against rho_i, sum_{i>N} rho_i = (q1 - 1) / (p
    q1 p1^(N-1)), sum_{i>N} rho_i r^(i-1) = (p1 - 1) / (p q1^N), and so
    sum_{i>N} rho_i (r^(N-1) - r^(i-1)) / (1 - r) = 1 / (p q1^(N-1)).  The
    omitted terms therefore lie in
    sum_{i>N} rho_i log_m Phi_N + [lo, hi] / (log2(m) p q1^(N-1)).
    ``value`` adds the lower end, and ``tail_bound`` is the width, so the
    series lies in [value, value + tail_bound] up to the float error of the
    summed terms.  The width falls like q1^-N and depends on the matrix
    through hi - lo, which is 0 up to its float margin when all row sums
    are equal.  ``core.truncation_index`` finds the first N >= 2 whose
    width is <= tol before the sum starts, exactly on the integer part
    p q1^(N-1) and on an upper bound of the float factor (``_drift_range``).
    """
    if sys.case_tag is not CaseTag.DIVISIBLE_GENERAL:
        raise InvalidSystemError(
            f"divisible-general series called on {sys.case_tag.value} system; "
            "degenerate systems use the sublattice reduction"
        )
    return _series(sys, tol)


def _series(sys: AffineSystem, tol: float) -> DimensionReport:
    """The series of ``dimension_divisible`` for every divisible system."""
    lo, N, (tail_num, tail_den) = _last_level(sys, sys.p, tol)
    log2_m = math.log2(sys.m)
    total = _singleton_density(sys)
    contributions = []
    rho_num, rho_den = (sys.q1 - 1) * (sys.p1 - 1), sys.p * sys.q1
    for i, powered in zip(range(2, N + 1), _levels(sys.matrix, sys.p1 / sys.q1)):
        t_phi = sum(powered)
        if not rho_num:  # p1 = 1: only the last level enters
            continue
        rho_den *= sys.p1
        weight = rho_num / rho_den
        term = weight * (math.log2(t_phi) / log2_m)
        total += term
        contributions.append(
            {"i": i, "weight": weight, "t_phi": t_phi, "contribution": term}
        )
    # rho_den is now p q1 p1^(N-1), so (q1 - 1) / rho_den = sum_{i>N} rho_i,
    # or at p1 = 1 the density of the infinite orbits
    total += (sys.q1 - 1) / rho_den * (math.log2(t_phi) / log2_m)
    total += lo / log2_m * (1 / (sys.p * sys.q1 ** (N - 1)))
    return DimensionReport(
        value=total,
        kind="hausdorff",
        case_tag=sys.case_tag,
        truncation_index=N,
        tail_bound=tail_num / tail_den,
        tolerance=tol,
        contributions=tuple(contributions),
    )


def dimension_degenerate(sys: AffineSystem, tol: float = 1e-10) -> DimensionReport:
    """Sublattice reduction for p > 1 with p1 = 1.

    Positions in the progression {p*k + a} carry a ratio-q1 system while all
    other positions are free: value = (1 - 1/p) + dim_ratio_q1 / p.  That is
    the divisible series at p1 = 1 (``dimension_classical``): its singleton
    density is 1 - 1/p, and its remainder weight (q1 - 1) / (p q1) carries
    the ratio-q1 dimension over p.  The literal formula, the chain
    densities alone, leaves that weight out.
    """
    if sys.case_tag is not CaseTag.DIVISIBLE_DEGENERATE:
        raise InvalidSystemError(
            f"degenerate reduction called on {sys.case_tag.value} system"
        )
    literal = 1 - Fraction(1, sys.p) - Fraction(1, sys.q) + Fraction(1, sys.d * sys.p1 * sys.q1)
    return replace(_series(sys, tol), notes=(
        f"literal divisible series degenerates to {literal} = {float(literal):.12f}; "
        "reduction value used instead",
    ))


def dimension(sys: AffineSystem, tol: float = 1e-8) -> DimensionReport:
    """Hausdorff dimension, dispatching on the case classification: the
    closed form for non-divisible systems, ``dimension_degenerate`` for its
    note, and ``_series`` directly for the classical and divisible-general
    tags, whose wrappers only check the tag again."""
    check_tolerance(tol)
    if sys.case_tag is CaseTag.NON_DIVISIBLE:
        return dimension_nondivisible(sys)
    if sys.case_tag is CaseTag.DIVISIBLE_DEGENERATE:
        return dimension_degenerate(sys, tol)
    return _series(sys, tol)


def comparison_gap(
    sys: AffineSystem, tol: float = 1e-10
) -> tuple[DimensionReport, DimensionReport, float]:
    """Both dimensions and their gap; the Hausdorff value never exceeds the
    Minkowski value, with equality exactly when all row sums agree."""
    h = dimension(sys, tol)
    mk = minkowski.dimension(sys, tol)
    return h, mk, mk.value - h.value
