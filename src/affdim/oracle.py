"""Ground-truth generators independent of the closed forms.

``brute_force_count`` counts admissible window patterns straight from the
raw pairwise (and optional higher-order) constraints, never touching the
chain decomposition or power-sum formulas it is used to check.
``maximize_chain_entropy`` numerically maximizes weighted marginal entropies
over the probability simplex on admissible words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import AffineSystem, InvalidSystemError, NumericalError, TransitionMatrix

#: cap on (number of frontier states) * alphabet * window accepted by the
#: streaming count; windows needing more state are rejected as infeasible.
STATE_BUDGET = 1 << 28

#: cap on m^n for the plain depth-first method.
DFS_BUDGET = 1 << 26

Constraint = tuple[tuple[int, ...], frozenset[tuple[int, ...]]]


@dataclass(frozen=True)
class EnumerationResult:
    n: int
    count: int


def window_pairs(n: int, sys: AffineSystem) -> list[tuple[int, int]]:
    """All constraint pairs with both positions inside {1, ..., n}."""
    pairs = []
    k = sys.k_min
    while True:
        u, v = sys.p * k + sys.a, sys.q * k + sys.b
        if u > n:
            break
        if v <= n:
            pairs.append((u, v))
        k += 1
    return pairs


def _normalize_extra(
    extra: Iterable[tuple[Sequence[int], Iterable[Sequence[int]]]] | None,
    n: int,
    m: int,
) -> list[Constraint]:
    out: list[Constraint] = []
    for positions, forbidden in extra or ():
        pos = tuple(int(x) for x in positions)
        if any(x < 1 for x in pos):
            raise ValueError(f"constraint positions are 1-based, got {pos}")
        if max(pos) > n:
            continue  # not fully inside the window
        words = frozenset(tuple(int(v) for v in w) for w in forbidden)
        for w in words:
            if len(w) != len(pos) or any(not 0 <= v < m for v in w):
                raise ValueError(f"forbidden word {w} does not fit positions {pos}")
        out.append((pos, words))
    return out


def brute_force_count(
    n: int,
    sys: AffineSystem,
    extra_constraints: Iterable[tuple[Sequence[int], Iterable[Sequence[int]]]] | None = None,
    method: str = "frontier",
) -> EnumerationResult:
    """Exact count of words on {1, ..., n} satisfying every pairwise
    constraint and every fully-in-window extra constraint.

    ``method``: "frontier" streams position by position remembering only the
    letters still awaited by a future constraint (a memoized depth-first
    search); "dfs" is the plain recursive enumeration with early pruning.
    """
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    extras = _normalize_extra(extra_constraints, n, sys.m)
    if method == "frontier":
        counts = _frontier_counts(n, sys, extras)
        count = counts[-1]
    elif method == "dfs":
        count = _dfs_count(n, sys, extras)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EnumerationResult(n=n, count=count)


def brute_force_counts_upto(
    n: int,
    sys: AffineSystem,
    extra_constraints: Iterable[tuple[Sequence[int], Iterable[Sequence[int]]]] | None = None,
) -> list[int]:
    """Counts for every window {1..t}, t = 1..n, from one frontier sweep.

    At time t exactly the constraints with both (all) positions <= t have
    been enforced, so the running total is the window-t count.
    """
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    extras = _normalize_extra(extra_constraints, n, sys.m)
    return _frontier_counts(n, sys, extras)


def _build_constraints(n: int, sys: AffineSystem, extras: list[Constraint]):
    """Schedule all constraints by their latest position; each entry is
    (positions, data, is_pair) with matrix rows for pairs and a forbidden
    word set otherwise."""
    by_max: dict[int, list[tuple[tuple[int, ...], object, bool]]] = {}
    rows = sys.matrix.rows
    for u, v in window_pairs(n, sys):
        by_max.setdefault(max(u, v), []).append(((u, v), rows, True))
    for pos, words in extras:
        by_max.setdefault(max(pos), []).append((pos, words, False))
    return by_max


def _frontier_counts(n: int, sys: AffineSystem, extras: list[Constraint]) -> list[int]:
    m = sys.m
    by_max = _build_constraints(n, sys, extras)

    need_until = {}
    for t, cons in by_max.items():
        for pos, _, _ in cons:
            for u in pos:
                if u < t:
                    need_until[u] = max(need_until.get(u, 0), t)

    # frontier after step t = positions <= t still awaited by a later check
    frontier: list[int] = []
    frontiers: list[list[int]] = []
    widths = []
    for t in range(1, n + 1):
        frontier = [u for u in frontier if need_until[u] > t]
        if need_until.get(t, 0) > t:
            frontier.append(t)
        frontiers.append(list(frontier))
        widths.append(len(frontier))
    max_width = max(widths, default=0)
    if (m ** (max_width + 1)) * n > STATE_BUDGET:
        raise InvalidSystemError(
            f"window too large: frontier needs m^{max_width + 1} states over {n} steps"
        )

    states: dict[tuple[int, ...], int] = {(): 1}
    prev_frontier: list[int] = []
    counts = []
    for t in range(1, n + 1):
        prev_index = {u: i for i, u in enumerate(prev_frontier)}
        checks = []
        for pos, data, is_pair in by_max.get(t, ()):  # other members sit in the frontier
            idx = tuple(-1 if u == t else prev_index[u] for u in pos)
            checks.append((idx, data, is_pair))
        cur_frontier = frontiers[t - 1]
        keep = [prev_index[u] for u in cur_frontier if u != t]
        append_new = cur_frontier and cur_frontier[-1] == t
        new_states: dict[tuple[int, ...], int] = {}
        for state, cnt in states.items():
            for letter in range(m):
                ok = True
                for idx, data, is_pair in checks:
                    if is_pair:
                        iu, iv = idx
                        lu = letter if iu < 0 else state[iu]
                        lv = letter if iv < 0 else state[iv]
                        if not data[lu][lv]:
                            ok = False
                            break
                    else:
                        word = tuple(letter if i < 0 else state[i] for i in idx)
                        if word in data:
                            ok = False
                            break
                if not ok:
                    continue
                key = tuple(state[i] for i in keep)
                if append_new:
                    key = key + (letter,)
                new_states[key] = new_states.get(key, 0) + cnt
        states = new_states
        prev_frontier = cur_frontier
        counts.append(sum(states.values()))
    return counts


def _dfs_count(n: int, sys: AffineSystem, extras: list[Constraint]) -> int:
    m = sys.m
    if m**n > DFS_BUDGET:
        raise InvalidSystemError(f"window too large for depth-first search: m^n = {m}^{n}")
    by_max = _build_constraints(n, sys, extras)
    checks_at = []
    for t in range(1, n + 1):
        comp = []
        for pos, data, is_pair in by_max.get(t, ()):
            comp.append((tuple(u - 1 for u in pos), data, is_pair))
        checks_at.append(comp)

    word = [0] * n

    def rec(t: int) -> int:
        if t == n:
            return 1
        total = 0
        for letter in range(m):
            word[t] = letter
            ok = True
            for pos0, data, is_pair in checks_at[t]:
                if is_pair:
                    if not data[word[pos0[0]]][word[pos0[1]]]:
                        ok = False
                        break
                elif tuple(word[i] for i in pos0) in data:
                    ok = False
                    break
            if ok:
                total += rec(t + 1)
        return total

    return rec(0)


def admissible_words(matrix: TransitionMatrix, length: int) -> list[tuple[int, ...]]:
    """All words w with matrix[w_k][w_{k+1}] = 1 along consecutive letters."""
    m = matrix.m
    words: list[tuple[int, ...]] = [(x,) for x in range(m)]
    for _ in range(length - 1):
        words = [w + (y,) for w in words for y in range(m) if matrix.rows[w[-1]][y]]
    return words


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    import numpy as np

    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def maximize_chain_entropy(
    i: int,
    weights: Sequence,
    matrix: TransitionMatrix,
    tol: float = 1e-7,
    max_iterations: int = 200_000,
) -> tuple[float, np.ndarray, list[tuple[int, ...]]]:
    """Maximize sum_j weights[j-1] * H(j-th marginal) over distributions on
    admissible words of length i.

    Projected gradient ascent with backtracking from the uniform-admissible
    start; the objective is concave, so failure to reach the stationarity
    tolerance signals a bug rather than a modeling limit.  Returns
    (optimum, argmax distribution, word list).
    """
    import numpy as np

    if len(weights) != i:
        raise ValueError(f"need {i} weights, got {len(weights)}")
    w = np.array([float(x) for x in weights])
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    words = admissible_words(matrix, i)
    W = len(words)
    if W == 0:
        raise InvalidSystemError("matrix admits no words of the requested length")
    ln_m = np.log(matrix.m)

    # prefix_index[j] maps word index -> index of its length-(j+1) prefix
    prefix_maps = []
    for j in range(i):
        prefixes = sorted({word[: j + 1] for word in words})
        lookup = {pfx: idx for idx, pfx in enumerate(prefixes)}
        prefix_maps.append(np.array([lookup[word[: j + 1]] for word in words]))

    def objective(mu: np.ndarray) -> float:
        total = 0.0
        for j in range(i):
            marg = np.bincount(prefix_maps[j], weights=mu)
            pos = marg[marg > 1e-300]
            total += w[j] * float(-(pos * np.log(pos)).sum()) / ln_m
        return total

    def gradient(mu: np.ndarray) -> np.ndarray:
        g = np.zeros(W)
        for j in range(i):
            marg = np.bincount(prefix_maps[j], weights=mu)
            g += w[j] * (-(np.log(np.maximum(marg[prefix_maps[j]], 1e-300)) + 1.0)) / ln_m
        return g

    mu = np.full(W, 1.0 / W)
    f = objective(mu)
    eta = 1.0
    for _ in range(max_iterations):
        g = gradient(mu)
        if np.max(np.abs(project_to_simplex(mu + g) - mu)) <= tol:
            return f, mu, words
        eta = min(eta * 2.0, 1e6)
        while True:
            cand = project_to_simplex(mu + eta * g)
            fc = objective(cand)
            if fc >= f - 1e-18:
                break
            if eta < 1e-18:
                raise NumericalError(
                    "entropy maximization stalled before reaching stationarity; "
                    "the objective is concave, so this indicates a fault"
                )
            eta *= 0.5
        mu, f = cand, max(fc, f)
    raise NumericalError(
        "entropy maximization exhausted its iteration budget; the objective "
        "is concave, so this indicates a fault"
    )
