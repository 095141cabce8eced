"""Superlinear higher-order constraints and why they cost no dimension.

A higher-order system adds, for each k, a forbidden-word condition over the
positions (p*k+a, q*k+b, f_1(k), ..., f_l(k)) with every f growing like
k^s, s > 1.  The fraction of a window touched by complete higher-order
constraints then vanishes (at rate n^(1/s - 1) log n), so both dimensions
coincide with those of the pairwise system obtained by projecting the
forbidden set.  This module computes the measured and bound densities and
the small-window count gap.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import AffineSystem, InvalidSystemError, TransitionMatrix, _first_index, validate_system
from .oracle import brute_force_count, window_pairs

#: cap on the bits of f(10^6), the largest value the order check of a
#: GrowthMap evaluates exactly: k^s there has about 19.9 s bits, and the
#: check of k^50000 takes about a second on a 2-core x86-64 VM
GROWTH_BITS_BUDGET = 1 << 20


@dataclass(frozen=True)
class GrowthMap:
    """Strictly increasing position map with a declared growth exponent."""

    fn: Callable[[int], int]
    exponent: float
    label: str

    def __post_init__(self):
        if self.exponent <= 1:
            raise InvalidSystemError(
                f"growth exponent must exceed 1, got {self.exponent} for {self.label}"
            )
        if not math.isfinite(self.exponent):
            raise InvalidSystemError(f"growth exponent of {self.label} is past the float range")
        bits = self.exponent * math.log2(1_000_000)
        if bits > GROWTH_BITS_BUDGET:
            raise InvalidSystemError(
                f"{self.label} is too large to check: f(10^6) has about {bits:.3g} bits, "
                f"past the {GROWTH_BITS_BUDGET}-bit limit of the exact order check"
            )
        # Numerical check of the declared order: f(k)/k^s bounded above and
        # below by positive constants on a sparse grid up to 10^6, compared
        # as logs since k^s leaves the float range there from s = 52 on; and
        # f strictly increasing with f(k) >= k on the dense low range.
        prev = 0
        for k in range(1, 200):
            v = self.fn(k)
            if v <= prev:
                raise InvalidSystemError(f"{self.label} is not strictly increasing at k={k}")
            if v < k:
                raise InvalidSystemError(f"{self.label} must satisfy f(k) >= k, got f({k})={v}")
            prev = v
        grid = (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)
        values = [self.fn(k) for k in grid]
        if min(values) <= 0:
            raise InvalidSystemError(f"{self.label} must stay positive, got {min(values)}")
        logs = [math.log(v) - self.exponent * math.log(k) for k, v in zip(grid, values)]
        if max(logs) - min(logs) > math.log(1e6):
            raise InvalidSystemError(
                f"{self.label} does not look like order k^{self.exponent}: "
                f"log ratio range {min(logs):.3g}..{max(logs):.3g}"
            )

    def count_upto(self, n: int) -> int:
        """#{k >= 1 : fn(k) <= n}: by monotonicity, the first k with fn(k) > n, less one."""
        return _first_index(lambda k: self.fn(k) > n, 1) - 1


def _ceil_power(k: int, e: float) -> int:
    """ceil(k^e), with k^e past the float range taken as k^int(e) * k^(e % 1)."""
    try:
        return math.ceil(k**e)
    except OverflowError:
        return math.ceil(Fraction(k ** (e % 1)) * k ** int(e))


_POWER_RE = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?k\s*\^\s*(\d+(?:\.\d+)?)\s*$")


def parse_growth(text: str) -> GrowthMap:
    """Parse "k^2" or "3*k^2" into a GrowthMap."""
    match = _POWER_RE.match(text)
    if not match:
        raise InvalidSystemError(
            f"cannot parse growth map {text!r}; expected forms like 'k^2' or '2*k^3'"
        )
    coeff = int(match.group(1) or 1)
    exponent = float(match.group(2))
    if exponent.is_integer():
        exp_i = int(exponent)
        fn = lambda k, c=coeff, e=exp_i: c * k**e  # noqa: E731 - exact integers
    else:
        fn = lambda k, c=coeff, e=exponent: c * _ceil_power(k, e)  # noqa: E731
    return GrowthMap(fn=fn, exponent=exponent, label=text.strip())


@dataclass(frozen=True)
class HigherOrderSystem:
    """Base affine system plus forbidden words over l extra positions."""

    base: AffineSystem
    forbidden: frozenset[tuple[int, ...]]
    growth_maps: tuple[GrowthMap, ...]

    def __post_init__(self):
        arity = len(self.growth_maps) + 2
        for word in self.forbidden:
            if len(word) != arity:
                raise InvalidSystemError(
                    f"forbidden words must have length {arity}, got {word}"
                )
            if any(not 0 <= v < self.base.m for v in word):
                raise InvalidSystemError(f"letters out of range in forbidden word {word}")

    @property
    def order(self) -> int:
        return len(self.growth_maps)


def projected_pair_matrix(hos: HigherOrderSystem) -> TransitionMatrix:
    """Pair matrix of the comparison baseline: (u, v) is forbidden exactly
    when every completion over the extra positions lies in the forbidden set."""
    m = hos.base.m
    completions = list(itertools.product(range(m), repeat=hos.order))
    rows = [
        [1 if any((u, v) + w not in hos.forbidden for w in completions) else 0 for v in range(m)]
        for u in range(m)
    ]
    return TransitionMatrix.from_rows(rows)


def baseline_system(hos: HigherOrderSystem) -> AffineSystem:
    """The pairwise system the higher-order dimensions collapse to."""
    base = hos.base
    return validate_system(base.p, base.q, base.a, base.b, projected_pair_matrix(hos))


def affected_density(n: int, hos: HigherOrderSystem) -> tuple[float, float]:
    """(measured, bound) for the window fraction touched by extra constraints.

    measured = 2 * #{k <= n : some f_i(k) <= n} * log_q1(n) / n; the bound
    replaces the count by sum_i n^(1/s_i).  Both vanish as n grows since
    every s_i > 1.
    """
    if n < hos.base.q1:
        raise ValueError(f"need n >= q1 = {hos.base.q1}, got {n}")
    if hos.order == 0:
        return 0.0, 0.0
    log_q1 = math.log(n) / math.log(hos.base.q1)
    touched = max(min(g.count_upto(n), n) for g in hos.growth_maps)
    measured = 2.0 * touched * log_q1 / n
    bound = 2.0 * sum(n ** (1.0 / g.exponent) for g in hos.growth_maps) * log_q1 / n
    return measured, bound


def window_tuples(n: int, hos: HigherOrderSystem) -> list[tuple[int, ...]]:
    """Constraint position tuples fully inside {1, ..., n}: the window pairs
    (u, v) = (p*k + a, q*k + b) extended by each f(k)."""
    base = hos.base
    tuples = (
        (u, v) + tuple(g.fn((u - base.a) // base.p) for g in hos.growth_maps)
        for u, v in window_pairs(n, base)
    )
    return [positions for positions in tuples if max(positions) <= n]


def dim_gap_empirical(n: int, hos: HigherOrderSystem) -> float:
    """|log_m count_with - log_m count_without| / n over the window.

    Both counts run on the projected pairwise baseline; the "with" count
    additionally enforces every higher-order constraint that fits inside the
    window.  Zero extra constraints give a gap of exactly zero.
    """
    base = baseline_system(hos)
    extras = [(pos, hos.forbidden) for pos in window_tuples(n, hos)]
    without = brute_force_count(n, base).count
    if not extras:
        return 0.0
    with_ho = brute_force_count(n, base, extra_constraints=extras).count
    return abs(math.log2(with_ho) - math.log2(without)) / (n * math.log2(base.m))
