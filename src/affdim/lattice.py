"""Chain decomposition of {1, ..., n} and the exact chain densities.

The constraint pairs (p*k+a, q*k+b) link positions into maximal chains under
the successor map x -> q*(x-a)/p + b.  This module produces the chains, the
census counting chains by total length and by window length, and the exact
rational limit densities those counts converge to.

The map is written once, as its two sides (p, a) and (q, b), and read either
way round: ``_image`` steps one position forward or back, and
``_progressions`` solves for the depth levels (forward) and the height
levels (back) as arithmetic progressions, behind ``window_counts`` and
``orbit_lengths``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import AffineSystem, CaseTag, InvalidSystemError


def _image(x: int, src: tuple[int, int], dst: tuple[int, int], k_min: int) -> int | None:
    """dst(k) for the index k >= k_min with src(k) = x, or None when there is
    none; each side is a pair (mul, off) standing for k -> mul*k + off."""
    if x < 1:
        raise ValueError(f"positions are 1-based, got {x}")
    (mul, off), (image_mul, image_off) = src, dst
    k, rest = divmod(x - off, mul)
    if rest or k < k_min:
        return None
    return image_mul * k + image_off


def successor(x: int, sys: AffineSystem) -> int | None:
    """Next position linked to x, or None when x ends its chain: x = p*k+a
    maps to q*k+b for an index k >= k_min (both ends of the pair >= 1)."""
    return _image(x, (sys.p, sys.a), (sys.q, sys.b), sys.k_min)


def predecessor(x: int, sys: AffineSystem) -> int | None:
    """Position mapping onto x under the successor map, or None."""
    return _image(x, (sys.q, sys.b), (sys.p, sys.a), sys.k_min)


def _progressions(
    bound: int, sys: AffineSystem, src: tuple[int, int], dst: tuple[int, int]
) -> list[tuple[int, int]]:
    """(first, step) of each level t = 1, 2, ... that meets {1, ..., bound}.

    Level 0 holds every position, level t the dst(k), k >= k_min, whose
    src(k) is in level t - 1; a side (mul, off) stands for k -> mul*k + off.
    Forward, src = (p, a) and dst = (q, b), level t holds the positions of
    depth >= t (with a t-th predecessor); back, with the sides swapped, of
    height >= t (with a t-th successor).  src(k) lies in level (first, step)
    iff src(k) >= first and k = k0 mod step // gcd(mul, step): one modular
    inverse per level.  The levels are nested, so the list ends at an empty
    level or at a first past the bound.  A listed step is capped at
    bound + 1, which keeps the members in the window, but the exact step is
    carried on: going back, a member past the bound can map inside it.
    """
    (mul, off), (image_mul, image_off) = src, dst
    k_min = sys.k_min
    levels = []
    first, step = 1, 1
    while True:
        g = math.gcd(mul, step)
        if (first - off) % g:
            return levels
        mod = step // g
        k0 = (first - off) // g * pow(mul // g, -1, mod) % mod
        lo = max(k_min, -((off - first) // mul))
        first = image_mul * (lo + (k0 - lo) % mod) + image_off
        if first > bound:
            return levels
        step = image_mul * mod
        levels.append((first, min(step, bound + 1)))


def _check_window(n: int, sys: AffineSystem) -> None:
    """Refuse an empty window, then a non-increasing pair.  The smallest
    constrained pair is (p*k_min+a, q*k_min+b); pairs step upward from
    there, so the map is strictly increasing iff the first pair is.
    Decreasing or self-looping pairs (possible when a > b) break the chain
    ordering and are not supported by the decomposition."""
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    k = sys.k_min
    if sys.q * k + sys.b <= sys.p * k + sys.a:
        raise InvalidSystemError(
            f"system {sys.describe()} has a non-increasing constraint pair at "
            f"k={k}; chain decomposition requires strictly increasing links"
        )


@dataclass(frozen=True)
class Chain:
    """One maximal chain: its window members plus total orbit length.

    ``positions`` lists the members <= n in increasing order.  full_length
    counts the whole orbit, continuing past the window.  A truncated chain
    has an infinite orbit (p1 = 1 in the divisible case); its full_length
    counts only the window members.
    """

    positions: tuple[int, ...]
    full_length: int
    truncated: bool = False

    @property
    def start(self) -> int:
        return self.positions[0]

    @property
    def window_count(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ChainDecomposition:
    n: int
    chains: tuple[Chain, ...]

    def census(self) -> "Census":
        return _tally(
            self.n,
            ((0 if ch.truncated else ch.full_length, ch.window_count, 1) for ch in self.chains),
        )


@dataclass(frozen=True)
class Census:
    """Chain tallies: L[(i, j)] counts chains of full length i with j window
    members; D[j] counts chains with j window members regardless of full
    length; truncated[j] tallies the chains with an infinite orbit, which
    L leaves out."""

    n: int
    L: dict[tuple[int, int], int]
    D: dict[int, int]
    truncated: dict[int, int]

    def window_total(self) -> int:
        return sum(j * cnt for j, cnt in self.D.items())


def _tally(n: int, counted) -> Census:
    """Census from (full length, or 0 for an infinite orbit; window length;
    count) triples."""
    L: dict[tuple[int, int], int] = {}
    D: dict[int, int] = {}
    truncated: dict[int, int] = {}
    for i, j, c in counted:
        D[j] = D.get(j, 0) + c
        if i == 0:
            truncated[j] = truncated.get(j, 0) + c
        else:
            L[(i, j)] = L.get((i, j), 0) + c
    return Census(n=n, L=L, D=D, truncated=truncated)


def _infinite_orbits(sys: AffineSystem) -> bool:
    # With p1 == 1 (p divides q) and p dividing b - a, the successor
    # q*k + b = p*(q1*k + c) + a of x = p*k + a is again p*k' + a with
    # k' - k = (q1 - 1)*k + c.  Callers have passed _check_window, so the
    # first pair increases: (q - p)*k_min + b - a = p*((q1 - 1)*k_min + c) > 0.
    # As q1 >= 2, k' > k >= k_min for every k >= k_min, so a chain that
    # advances once never terminates, whatever the sign of c.
    return sys.p1 == 1 and sys.divisible


def decompose(n: int, sys: AffineSystem) -> ChainDecomposition:
    """Partition {1, ..., n} into maximal chains.

    A chain starts at any position with no predecessor inside the window and
    extends by the successor map while the image stays <= n.  A finite orbit
    is then followed past n, one successor at a time, to record full_length;
    an infinite orbit (p1 = 1 in the divisible case) is marked truncated
    instead.  This scalar walk is the reference that ``chain_walk`` and
    ``window_counts`` are tested against.
    """
    _check_window(n, sys)
    infinite = _infinite_orbits(sys)
    chains = []
    for s in range(1, n + 1):
        pre = predecessor(s, sys)
        if pre is not None and pre <= n:
            continue
        positions, nxt = [s], successor(s, sys)
        while nxt is not None and nxt <= n:
            positions.append(nxt)
            nxt = successor(nxt, sys)
        full = len(positions)
        truncated = nxt is not None and infinite
        while nxt is not None and not truncated:
            full += 1
            nxt = successor(nxt, sys)
        chains.append(Chain(tuple(positions), full, truncated))
    return ChainDecomposition(n=n, chains=tuple(chains))


class ChainWalk(NamedTuple):
    """Every chain meeting {1, ..., n} as parallel arrays ordered by start:
    the start, the number of window members, the full orbit length, and
    whether the orbit is infinite (see ``Chain``)."""

    starts: np.ndarray
    window: np.ndarray
    full_length: np.ndarray
    truncated: np.ndarray


def _check_int64(n: int, sys: AffineSystem) -> None:
    # the largest magnitude chain_walk forms: the successor image q*k + b of
    # a window position; it bounds the positions, their offsets and
    # w = (q1-p1)*k + c (see orbit_lengths)
    reach = (n + abs(sys.a)) // sys.p + 1
    if sys.q * reach + abs(sys.b) > 2**63 - 1:
        raise InvalidSystemError(
            f"window n={n} of {sys.describe()} takes the vectorized chain walk "
            f"past the int64 range; decompose and window_counts are exact"
        )


def chain_levels(n: int, sys: AffineSystem):
    """Yield the chains meeting {1, ..., n} level by level, as (positions, more).

    Level 0 holds the chain starts in increasing order, level j the (j+1)-th
    window members in the order of their starts; ``more`` masks the chains
    whose next member is in the window.  This is the one vectorized walk of
    the successor map, and it touches only the chains that advance.

    Two strided boolean masks over the window replace per-position division.
    The positions q*k + b with k >= k_min have a predecessor; every other
    position starts a chain.  The positions p*k + a with
    k_min <= k <= (n - b) // q link into the window.  Both progressions lie
    inside it: a predecessor is smaller than its image, and a linked position
    is smaller than its image q*k + b <= n.  Each level looks its positions
    up in the link mask and divides only the linked ones.
    """
    import numpy as np

    _check_window(n, sys)
    _check_int64(n, sys)
    p, q, a, b, k_min = sys.p, sys.q, sys.a, sys.b, sys.k_min

    # index x stands for position x; index 0 is no position
    starts = np.ones(n + 1, dtype=bool)
    starts[0] = False
    starts[q * k_min + b :: q] = False
    cur = np.flatnonzero(starts)
    del starts
    links = np.zeros(n + 1, dtype=bool)
    last = (n - b) // q
    if last >= k_min:  # else the slice stop may be negative and wrap round
        links[p * k_min + a : p * last + a + 1 : p] = True

    while len(cur):
        more = links[cur]
        nxt = cur[more]
        nxt -= a
        nxt //= p
        nxt *= q
        nxt += b
        yield cur, more
        cur = nxt


def orbit_lengths(starts: np.ndarray, sys: AffineSystem) -> np.ndarray:
    """Full orbit length at each chain start of ``chain_levels``, 0 if infinite.

    A start with a t-th successor and no (t+1)-th has 1 + t members, so each
    position up to the largest start counts 1 plus the height levels of
    ``_progressions`` it lies in, one strided slice per level.  With p1 = 1
    in the divisible case an orbit that advances once never ends (see
    ``_infinite_orbits``) and the levels never empty, so the positions
    p*k + a, k >= k_min, are marked 0 instead.  Otherwise uint8 suffices:
    the successor of p*k + a multiplies w = (q1 - p1)*k + c by q1/p1, so an
    orbit of t + 2 members needs p1^t to divide w at its start, and w stays
    below the bound ``_check_int64`` puts on q*k + b; so t < 63 when
    p1 >= 2, and a non-divisible orbit is a pair.
    """
    import numpy as np

    top = int(starts.max(initial=0))
    counts = np.ones(top + 1, dtype=np.uint8)
    if _infinite_orbits(sys):
        counts[sys.p * sys.k_min + sys.a :: sys.p] = 0
    else:
        for first, step in _progressions(top, sys, (sys.q, sys.b), (sys.p, sys.a)):
            counts[first::step] += 1
    return counts[starts]


def chain_walk(n: int, sys: AffineSystem) -> ChainWalk:
    """The chains of ``decompose`` without materializing them: window counts
    over ``chain_levels``, full lengths from ``orbit_lengths``."""
    import numpy as np

    levels = chain_levels(n, sys)
    starts, more = next(levels)
    window = np.ones(len(starts), dtype=np.int64)
    ids = np.nonzero(more)[0]
    for _, more in levels:
        window[ids] += 1
        ids = ids[more]
    full = orbit_lengths(starts, sys)
    truncated = full == 0
    return ChainWalk(starts, window, np.where(truncated, window, full), truncated)


def empirical_census(n: int, sys: AffineSystem) -> Census:
    """Chain census over {1, ..., n}: one bincount over ``chain_walk``.

    Chains with an infinite orbit take full-length key 0, as in
    ``measures.PrefixMeasure``, and are tallied in ``truncated``.
    """
    import numpy as np

    walk = chain_walk(n, sys)
    stride = int(walk.window.max()) + 1
    keys = np.where(walk.truncated, 0, walk.full_length) * stride + walk.window
    counts = np.bincount(keys)
    keyed = (divmod(int(key), stride) + (int(counts[key]),) for key in np.nonzero(counts)[0])
    return _tally(n, keyed)


def _depth_progressions(n: int, sys: AffineSystem) -> list[tuple[int, int]]:
    """(first, step) of the positions x <= n of depth >= t, those with a t-th
    predecessor, for t = 1, 2, ... up to the last level that meets the
    window: ``_progressions`` in the successor direction, after
    ``_check_window``."""
    _check_window(n, sys)
    return _progressions(n, sys, (sys.p, sys.a), (sys.q, sys.b))


def window_counts(n: int, sys: AffineSystem) -> dict[int, int]:
    """``empirical_census(n, sys).D`` in O(log n) integer steps, no walk.

    E_t counts the positions x <= n of depth >= t (``_depth_progressions``,
    E_0 = n).  The predecessor of a window position is smaller, so a chain
    with j window members holds max(0, j - t) of them and
    D[j] = E_{j-1} - 2*E_j + E_{j+1}.
    """
    E = [n, *((n - first) // step + 1 for first, step in _depth_progressions(n, sys)), 0, 0]
    D: dict[int, int] = {}
    for j in range(1, len(E) - 1):
        count = E[j - 1] - 2 * E[j] + E[j + 1]
        if count:
            D[j] = count
    return D


# ---------------------------------------------------------------------------
# exact limit densities


def window_length_density(ell: int, sys: AffineSystem) -> Fraction:
    """Limit of D[ell]/n: density of chains with exactly ell window members,
    for ell >= 2.  Defined only in the divisible case."""
    if not sys.divisible:
        raise InvalidSystemError(
            "window-length densities follow the divisible formula; "
            "a non-divisible system has only pairs (density 1/q) and singletons"
        )
    if ell < 2:
        raise ValueError(f"need ell >= 2, got {ell}; use singleton_density for ell=1")
    return Fraction((sys.q1 - 1) ** 2, sys.d * sys.q1 ** (ell + 1))


def singleton_density(sys: AffineSystem) -> Fraction:
    """Limit density of positions forming one-member window chains."""
    if sys.divisible:
        return 1 - Fraction(2 * sys.q1 - 1, sys.d * sys.q1 ** 2)
    return 1 - Fraction(2, sys.q)


def pair_density(sys: AffineSystem) -> Fraction:
    """Non-divisible case: density of complete in-window pairs."""
    if sys.divisible:
        raise InvalidSystemError("pair density applies to the non-divisible case")
    return Fraction(1, sys.q)


def chain_density(i: int, j: int, sys: AffineSystem) -> Fraction:
    """Limit of L[(i, j)]/n: density of chains of full length i with j
    window members.  Requires the divisible-general case (p1 >= 2).

    Derivation for i >= 2, first by chain starts according to orbit length,
    then by the share of the orbit inside the window.  The translation
    y = (q-p)*x - (q*a - p*b) turns the successor map into y -> (q/p)*y, so
    a chain is the orbit start, start * (q1/p1), start * (q1/p1)^2, ...
    A start has a first successor with density 1/p (x = a mod p); given that,
    it has no predecessor with probability (q1-1)/q1, each further step needs
    one more p1-divisibility (probability 1/p1) and the orbit stops with
    probability (p1-1)/p1.  Exactly i members therefore occur with start
    density rho_i = ((q1-1)/q1) * ((p1-1)/p1) * (1/p) * p1^-(i-2).  The
    first j members of an orbit lie in {1, ..., n} exactly when
    start <= n * r^(j-1) with r = p1/q1, so those starts split over window
    lengths as r^(j-1) * (1-r) for j < i and r^(i-1) for j = i.  The
    single-member chains (i = 1) are the positions with neither a
    predecessor nor a successor.  Multiplied out, rho_i * share_j is
    (q1-1)(p1-1)(q1-p1) / (p * q1^(j+1) * p1^(i-j)) for j < i and
    (q1-1)(p1-1) / (p * q1^i) for j = i.
    """
    if sys.case_tag is not CaseTag.DIVISIBLE_GENERAL:
        raise InvalidSystemError(
            f"chain densities require the divisible-general case, "
            f"got {sys.case_tag.value} for {sys.describe()}"
        )
    if not 1 <= j <= i:
        raise ValueError(f"need 1 <= j <= i, got i={i}, j={j}")
    p, q, d, p1, q1 = sys.p, sys.q, sys.d, sys.p1, sys.q1
    if i == 1:
        return 1 - Fraction(1, p) - Fraction(1, q) + Fraction(1, d * p1 * q1)
    if j == i:
        return Fraction((q1 - 1) * (p1 - 1), p * q1**i)
    return Fraction((q1 - 1) * (p1 - 1) * (q1 - p1), p * q1 ** (j + 1) * p1 ** (i - j))


def orbit_density(i: int, sys: AffineSystem) -> Fraction:
    """rho_i = sum_j chain_density(i, j) for i >= 2: the density of chain
    starts whose orbit has exactly i members (derivation in chain_density).
    """
    if sys.case_tag is not CaseTag.DIVISIBLE_GENERAL:
        raise InvalidSystemError("orbit densities require the divisible-general case")
    if i < 2:
        raise ValueError(f"orbit density is defined for lengths >= 2, got {i}")
    p, p1, q1 = sys.p, sys.p1, sys.q1
    return Fraction((q1 - 1) * (p1 - 1), p * q1 * p1 ** (i - 1))


def chain_density_column_tail(j: int, upto_i: int, sys: AffineSystem) -> Fraction:
    """Exact remainder of sum_{i > upto_i} chain_density(i, j) for j >= 2:
    the full column sums to window_length_density(j).

    Every row i > upto_i >= j holds rho_i * r^(j-1) * (1-r), and the rho_i
    shrink geometrically by 1/p1, which sums to
    window_length_density(j) * (q1-p1)/(q1-1) * p1^-(upto_i-j+1).
    """
    if j < 2:
        raise ValueError("column identity applies to j >= 2")
    if upto_i < j:
        raise ValueError("truncation must cover at least i = j")
    p1, q1 = sys.p1, sys.q1
    return (
        window_length_density(j, sys)
        * Fraction(q1 - p1, q1 - 1)
        * Fraction(1, p1 ** (upto_i - j + 1))
    )


def weighted_census_tail(upto_i: int, sys: AffineSystem) -> Fraction:
    """Exact remainder of sum_{i > upto_i} sum_j j * chain_density(i, j).

    The full double sum equals 1 (every position lies in exactly one chain);
    partial sums plus this tail reproduce 1 exactly in rational arithmetic.
    It is weighted_extra_census_tail less one unit per chain,
    sum_{i > upto_i} rho_i = (q1-1) / (p * q1 * p1^(upto_i-1)).
    """
    p, p1, q1 = sys.p, sys.p1, sys.q1
    return weighted_extra_census_tail(upto_i, sys) - Fraction(q1 - 1, p * q1 * p1 ** (upto_i - 1))


def weighted_extra_census_tail(upto_i: int, sys: AffineSystem) -> Fraction:
    """Exact value of sum_{i > upto_i} sum_j (j+1) * chain_density(i, j),
    for a divisible-general system and upto_i >= 1.

    Dominates the Hausdorff series tail: each term of that series is at most
    sum_j chain_density(i, j) * (j + 1).  With N = upto_i and r = p1/q1, row
    i carries sum_j (j+1) * share_j = 1 + (1 - r^i) / (1 - r).  The omitted
    starts sum to s = sum_{i>N} rho_i = (q1-1) / (p * q1 * p1^(N-1)), and
    sum_{i>N} rho_i * r^i = (p1-1) * p1 / (p * q1^(N+1)) (the rows fall by
    1/p1, and by 1/q1 once weighted).  The tail s + (s - that) * q1 / (q1-p1)
    has the common denominator p * q1^(N+1) * p1^(N-1) * (q1-p1).
    """
    if upto_i < 1:
        raise ValueError("truncation index must be >= 1")
    if sys.case_tag is not CaseTag.DIVISIBLE_GENERAL:
        raise InvalidSystemError("census tails require the divisible-general case")
    p, p1, q1, N = sys.p, sys.p1, sys.q1, upto_i
    q1_N = q1**N
    num = q1 * ((q1 - 1) * q1_N - (p1 - 1) * p1**N) + (q1 - 1) * q1_N * (q1 - p1)
    return Fraction(num, p * q1 * q1_N * p1 ** (N - 1) * (q1 - p1))


@dataclass(frozen=True)
class DensityTable:
    """Closed-form densities up to a chain-length cutoff, exact rationals."""

    P: dict[tuple[int, int], Fraction]
    singleton_density: Fraction

    def row_weight(self, i: int) -> Fraction:
        return sum(v for (ii, _), v in self.P.items() if ii == i)


def density_table(sys: AffineSystem, max_length: int) -> DensityTable:
    """Tabulate chain_density for 1 <= j <= i <= max_length."""
    P = {
        (i, j): chain_density(i, j, sys)
        for i in range(1, max_length + 1)
        for j in range(1, i + 1)
    }
    return DensityTable(P=P, singleton_density=singleton_density(sys))
