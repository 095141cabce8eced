"""Validated domain types for affine multiplicative subshift systems.

A system couples positions p*k+a and q*k+b of a one-sided sequence over the
alphabet {0, ..., m-1}: for every k placing both positions at index >= 1, the
letter pair must hit a 1-entry of a binary transition matrix.  Everything
downstream (chain decomposition, dimension formulas, sampling) dispatches on
the case classification computed here.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress
from typing import Callable, Sequence


class InvalidSystemError(ValueError):
    """System parameters or transition matrix rejected at validation."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to converge."""


class CaseTag(str, Enum):
    """Partition of valid (p, q, a, b) into the four formula regimes."""

    NON_DIVISIBLE = "non_divisible"          # gcd(p,q) does not divide b-a
    DIVISIBLE_GENERAL = "divisible_general"  # p > 1, gcd | (b-a), p1 >= 2
    DIVISIBLE_DEGENERATE = "divisible_degenerate"  # p > 1, gcd | (b-a), p1 == 1
    CLASSICAL = "classical"                  # p == 1


def check_tolerance(tol: float) -> None:
    """Reject a truncation tolerance unless 0 < tol < inf (nan included)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def truncation_index(
    tail: Callable[[int], tuple[int, int]], start: int, tol: float
) -> tuple[int, tuple[int, int]]:
    """(N, tail(N)) for the smallest N >= start with tail(N) <= tol.

    ``tail(i)`` is an exact, strictly decreasing series tail bound given as a
    pair (num, den) of positive ints; a float factor of a bound enters
    through its exact ``as_integer_ratio()``.  With tol = t_num / t_den
    exactly, the test num * t_den <= t_num * den is exact and monotone in i,
    subnormal tolerances included, so ``_first_index`` finds the N at which
    a per-term scan would stop.  Report the bound as ``num / den``, which is
    correctly rounded.
    """
    check_tolerance(tol)
    t_num, t_den = tol.as_integer_ratio()

    def meets(i: int) -> bool:
        num, den = tail(i)
        return num * t_den <= t_num * den

    N = _first_index(meets, start)
    return N, tail(N)


def _first_index(holds: Callable[[int], bool], start: int) -> int:
    """The smallest i >= start with holds(i), for a test that stays true once it
    holds and holds somewhere: a galloping search from ``start``, then a bisection."""
    above, i = start - 1, start   # holds(above) is false unless above < start
    while not holds(i):
        above, i = i, 2 * i - start + 1
    while i - above > 1:
        mid = (above + i) // 2
        if holds(mid):
            i = mid
        else:
            above = mid
    return i


def _div_int(x: float, n: int) -> float:
    """x / n correctly rounded for a nonzero int n of any size.  The plain
    ``x / n`` converts n to a float first, which raises OverflowError once n
    is past the float range; for |n| <= 2**53 both give the same float."""
    return float(Fraction(x) / n)


def _ceil_div(num: int, den: int) -> int:
    # den > 0; works for negative num (true ceiling)
    return -((-num) // den)


@dataclass(frozen=True)
class TransitionMatrix:
    """Immutable binary m x m matrix with cached entry-sum powers.

    Irreducibility and primitivity are read from breadth-first levels, in
    O(m^2) steps each; primitivity is decided from the period.

    ``power_sum(k)`` returns the sum of all entries of the k-th matrix power
    as an exact integer; the cache is extended under a lock and only grows,
    so concurrent readers see either a missing or a fully computed value.
    """

    rows: tuple[tuple[int, ...], ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "TransitionMatrix":
        try:
            m, sizes = len(rows), [len(r) for r in rows]
        except TypeError:
            raise InvalidSystemError("transition matrix must be a list of rows") from None
        if m < 2:
            raise InvalidSystemError(f"alphabet size must be >= 2, got {m}")
        tup = []
        for r, size in zip(rows, sizes):
            if size != m:
                raise InvalidSystemError("transition matrix must be square")
            for e in r:
                if e not in (0, 1):
                    raise InvalidSystemError(f"matrix entries must be 0 or 1, got {e!r}")
            tup.append(tuple(int(e) for e in r))
        return cls(rows=tuple(tup))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(r) for r in self.rows)

    @property
    def entry_sum(self) -> int:
        return sum(self.row_sums)

    def is_irreducible(self) -> bool:
        """True iff the digraph with edge i->j whenever rows[i][j] == 1 is
        strongly connected: the breadth-first levels from letter 0 cover
        every letter, along A and along its transpose."""
        if None in _bfs_levels(self.rows):
            return False
        return None not in _bfs_levels(tuple(zip(*self.rows)))

    def is_primitive(self) -> bool:
        """True iff irreducible with period 1, in O(m^2).  With level(x) the
        breadth-first distance from letter 0, the period is the gcd of
        level(x) + 1 - level(y) over all edges x -> y."""
        if not self.is_irreducible():
            return False
        level, letters = _bfs_levels(self.rows), range(self.m)
        steps = (
            level[x] + 1 - level[y] for x, row in enumerate(self.rows) for y in compress(letters, row)
        )
        return math.gcd(*steps) == 1

    def power_sum(self, k: int) -> int:
        """Exact sum of all entries of the k-th power (k = 0 gives m).

        The sum is that of the vector v_k = A v_(k-1) with v_0 all ones, so
        each new power costs O(m^2) integer steps; the sums so far and the
        last vector are cached.
        """
        if k < 0:
            raise ValueError(f"power must be >= 0, got {k}")
        sums = self._cache.get("sums")
        if sums is not None and k < len(sums):
            return sums[k]
        with self._lock:
            cache = self._cache
            if "sums" not in cache:
                cache["vector"] = [1] * self.m
                cache["sums"] = [self.m]
            sums, vector = cache["sums"], cache["vector"]
            while len(sums) <= k:
                vector = [sum(compress(vector, row)) for row in self.rows]
                sums.append(sum(vector))
            cache["vector"] = vector
            return sums[k]


def _bfs_levels(rows) -> list[int | None]:
    """Breadth-first distance of each letter from letter 0 along the edges
    x -> y with rows[x][y] == 1; None for letters out of reach."""
    level = [None] * len(rows)
    level[0] = 0
    letters, frontier, depth = range(len(rows)), [0], 0
    while frontier:
        depth += 1
        reached = []
        for x in frontier:
            for y in compress(letters, rows[x]):
                if level[y] is None:
                    level[y] = depth
                    reached.append(y)
        frontier = reached
    return level


def _matmul(a, b):
    """The integer matrix product a b, the tests' reference for power sums."""
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def is_irreducible(matrix: TransitionMatrix) -> bool:
    return matrix.is_irreducible()


def is_primitive(matrix: TransitionMatrix) -> bool:
    return matrix.is_primitive()


def matrix_power_sum(matrix: TransitionMatrix, k: int) -> int:
    return matrix.power_sum(k)


@dataclass(frozen=True)
class AffineSystem:
    """A validated (p, q, a, b, matrix) tuple with derived arithmetic data."""

    p: int
    q: int
    a: int
    b: int
    matrix: TransitionMatrix
    d: int          # gcd(p, q)
    p1: int         # p / d
    q1: int         # q / d
    c: int | None   # (b - a) / d when divisible, else None
    case_tag: CaseTag

    @property
    def m(self) -> int:
        return self.matrix.m

    @functools.cached_property
    def k_min(self) -> int:
        """Smallest k for which both constrained positions are >= 1.  Cached
        in the instance dict, which the dataclass's repr, == and hash do not
        read."""
        return max(1, _ceil_div(1 - self.a, self.p), _ceil_div(1 - self.b, self.q))

    @property
    def divisible(self) -> bool:
        return self.case_tag is not CaseTag.NON_DIVISIBLE

    def describe(self) -> str:
        return f"(p={self.p}, q={self.q}; a={self.a}, b={self.b}), m={self.m}"

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "matrix": [list(r) for r in self.matrix.rows],
            "p": self.p,
            "q": self.q,
            "a": self.a,
            "b": self.b,
        }


def validate_system(
    p: int, q: int, a: int, b: int, matrix: TransitionMatrix | Sequence[Sequence[int]]
) -> AffineSystem:
    """Build an AffineSystem, rejecting invalid parameters.

    Rejects p < 1, p >= q, alphabets smaller than 2, non-binary entries and
    reducible matrices.  Primitivity is not required here; operations that
    need it check on entry.
    """
    if not isinstance(matrix, TransitionMatrix):
        matrix = TransitionMatrix.from_rows(matrix)
    if p < 1:
        raise InvalidSystemError(f"need p >= 1, got p={p}")
    if p >= q:
        raise InvalidSystemError(f"need p < q, got p={p}, q={q}")
    if not matrix.is_irreducible():
        raise InvalidSystemError("transition matrix is reducible")
    d = math.gcd(p, q)
    p1, q1 = p // d, q // d
    divisible = (b - a) % d == 0
    c = (b - a) // d if divisible else None
    if p == 1:
        tag = CaseTag.CLASSICAL
    elif not divisible:
        tag = CaseTag.NON_DIVISIBLE
    elif p1 == 1:
        tag = CaseTag.DIVISIBLE_DEGENERATE
    else:
        tag = CaseTag.DIVISIBLE_GENERAL
    return AffineSystem(
        p=p, q=q, a=a, b=b, matrix=matrix, d=d, p1=p1, q1=q1, c=c, case_tag=tag
    )


def system_from_json_dict(data: dict) -> AffineSystem:
    """Parse the canonical JSON description of a system.

    Schema: {"m": int, "matrix": [[0/1, ...], ...], "p", "q", "a", "b"}.
    Unknown keys are rejected.
    """
    if not isinstance(data, dict):
        raise InvalidSystemError(f"a system must be a JSON object, got {json.dumps(data)[:40]}")
    required = {"m", "matrix", "p", "q", "a", "b"}
    keys = set(data)
    if keys != required:
        unknown = sorted(keys - required)
        missing = sorted(required - keys)
        parts = []
        if unknown:
            parts.append(f"unknown keys {unknown}")
        if missing:
            parts.append(f"missing keys {missing}")
        raise InvalidSystemError("bad system description: " + ", ".join(parts))
    matrix = TransitionMatrix.from_rows(data["matrix"])
    if matrix.m != data["m"]:
        raise InvalidSystemError(
            f"declared m={data['m']} does not match matrix size {matrix.m}"
        )
    for key in ("p", "q", "a", "b"):
        if not isinstance(data[key], int) or isinstance(data[key], bool):
            raise InvalidSystemError(f"field {key!r} must be an integer")
    return validate_system(data["p"], data["q"], data["a"], data["b"], matrix)


def _read_json(path: str, what: str):
    """The JSON value in the ``what`` file at ``path``; malformed JSON and a
    path that cannot be read (missing, a directory, too long) raise
    InvalidSystemError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidSystemError(f"malformed JSON in {path}: {exc}") from exc
    except IsADirectoryError as exc:
        raise InvalidSystemError(f"{what} path {path} is a directory") from exc
    except OSError as exc:
        raise InvalidSystemError(f"cannot read {what} path {path}: {exc.strerror or exc}") from exc


def load_system(path: str) -> AffineSystem:
    return system_from_json_dict(_read_json(path, "system"))


@dataclass(frozen=True)
class DimensionReport:
    """Result of a dimension computation plus its accuracy accounting.

    For series-based values the true sum lies in
    [value, value + tail_bound] up to ``rounding_bound``, the float error of
    the summed terms.  The Minkowski series leave the omitted terms out of
    ``value`` and bound them by ``tail_bound``.  Every divisible Hausdorff
    report is an enclosure: its series adds the lower end of an enclosure of
    the omitted terms to ``value`` and reports its width as ``tail_bound``.
    Each series builds its own report (``minkowski._series`` and
    ``hausdorff._series``).  Closed forms pass only the value, the kind and
    the case tag, and take the zero defaults: truncation_index == 0,
    tail_bound == 0 and tolerance == 0.  rounding_bound is 0 where no bound
    is derived.  ``to_dict`` leaves rounding_bound out, so the report schema
    stays as it was.
    """

    value: float
    kind: str                      # "minkowski" or "hausdorff"
    case_tag: CaseTag
    truncation_index: int = 0
    tail_bound: float = 0.0
    tolerance: float = 0.0
    rounding_bound: float = 0.0
    notes: tuple[str, ...] = ()
    #: per-term diagnostics for series-based values, e.g. one entry per
    #: chain length in the divisible Hausdorff series
    contributions: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        data = {
            "value": self.value,
            "kind": self.kind,
            "case": self.case_tag.value,
            "truncation_index": self.truncation_index,
            "tail_bound": self.tail_bound,
            "tolerance": self.tolerance,
            "notes": list(self.notes),
        }
        if self.contributions:
            data["contributions"] = [dict(c) for c in self.contributions]
        return data
