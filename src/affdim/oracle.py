"""Ground-truth generators independent of the closed forms.

``brute_force_count`` counts admissible window patterns straight from the
raw pairwise (and optional higher-order) constraints, never touching the
chain decomposition or power-sum formulas it is used to check.  Every
constraint is a forbidden-word set over its positions; a pair (u, v) forbids
the words (x, y) with A[x][y] = 0.  The count is a dense transfer over the
frontier, the positions still awaited by a later constraint: a flat list of
exact Python ints indexed by the base-m code of the frontier letters, with
the earliest position as the lowest digit, times one exact factor.  A free
position, which no constraint checks or awaits, multiplies the factor by m
and leaves the list alone.  A lone check with one earlier position that
leaves the frontier at once (a pair u != v that nothing later needs) is
folded into that position's sum-out: each letter at t adds up the slices
of the letters allowed before it.  Every other position masks the list
once per letter, appends its letter as the top digit or sums it away, and
sums out the positions that leave the frontier.  All of it runs by list
slices and ``map`` in pure Python (no numpy, and counts past any fixed
width).
``maximize_chain_entropy`` numerically maximizes weighted marginal entropies
over the probability simplex on admissible words, by damped Newton steps
whose linear systems are solved exactly along the words' prefix tree.  It
uses only the objective and its derivatives, never the backward recursion
of ``hausdorff.chain_potential`` that it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Iterable, Sequence

from .core import AffineSystem, InvalidSystemError, NumericalError, TransitionMatrix

#: cap on (number of frontier states) * alphabet * window accepted by the
#: streaming count; windows needing more state are rejected as infeasible.
STATE_BUDGET = 1 << 28

#: cap on m^n for the plain depth-first method.
DFS_BUDGET = 1 << 26

#: cap on the Newton steps of ``maximize_chain_entropy``.
NEWTON_STEP_BUDGET = 200_000

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

    Each constraint is checked at its latest position t: the letters at its
    earlier positions look up the letters it bans at t.

    ``method``: "frontier" streams position by position over a dense vector
    of counts, one per assignment of letters to the frontier (the positions
    still awaited by a later constraint); at each t every constraint becomes
    a 0/1 mask per letter over that vector, and the positions leaving the
    frontier are summed out; ``_frontier_counts`` skips the masks where a
    position is free or its one check folds into a sum-out.  "dfs" is the
    plain recursive enumeration with early pruning, tried letter by letter,
    the slow reference.
    """
    return EnumerationResult(n=n, count=_enumerate(n, sys, extra_constraints, method)[-1])


def brute_force_counts_upto(
    n: int,
    sys: AffineSystem,
    extra_constraints: Iterable[tuple[Sequence[int], Iterable[Sequence[int]]]] | None = None,
) -> list[int]:
    """Counts for every window {1..t}, t = 1..n, from one frontier sweep.

    At time t exactly the constraints with both (all) positions <= t have
    been enforced, so the running total is the window-t count.
    """
    return _enumerate(n, sys, extra_constraints, "frontier")


def _enumerate(n: int, sys: AffineSystem, extra_constraints, method: str) -> list[int]:
    """The window check, the extras' normalization and the chosen method, in
    that order: "frontier" gives the count of every window {1..t}, t = 1..n,
    and "dfs" the count of {1..n} alone."""
    if n < 1:
        raise ValueError(f"window size must be >= 1, got {n}")
    extras = _normalize_extra(extra_constraints, n, sys.m)
    if method == "frontier":
        return _frontier_counts(n, sys, extras)
    if method == "dfs":
        return [_dfs_count(n, sys, extras)]
    raise ValueError(f"unknown method {method!r}")


def _banned(pos: tuple[int, ...], words) -> dict[tuple[int, ...], set[int]]:
    """The letters at the latest of ``pos`` that complete one of ``words``,
    keyed by the letters at its distinct earlier positions.  A position
    repeated in ``pos`` (u = v, or an extra such as (1, 1)) is resolved
    here: a word giving it two letters never occurs and bans nothing."""
    t = max(pos)
    others = sorted(set(pos) - {t})
    banned: dict[tuple[int, ...], set[int]] = {}
    for word in words:
        letters: dict[int, int] = {}
        if all(letters.setdefault(u, x) == x for u, x in zip(pos, word)):
            banned.setdefault(tuple(letters[u] for u in others), set()).add(letters[t])
    return banned


def _build_constraints(n: int, sys: AffineSystem, extras: list[Constraint]):
    """Schedule every constraint at its latest position t as (others, banned):
    the distinct positions before t, and ``_banned``'s table.

    A pair (u, v) forbids the words {(x, y) : A[x][y] = 0}, so its table
    depends only on the order of u and v: the three are built once, on the
    stand-in positions (0, 1), (1, 0) and (0, 0), and shared.  An extra
    constraint keeps its own forbidden set and table."""
    rows = sys.matrix.rows
    pair_words = [(x, y) for x in range(sys.m) for y in range(sys.m) if not rows[x][y]]
    tables = {order: _banned(order, pair_words) for order in ((0, 1), (1, 0), (0, 0))}
    constraints = [((u, v), tables[int(u > v), int(u < v)]) for u, v in window_pairs(n, sys)]
    by_max: dict[int, list[tuple[tuple[int, ...], dict]]] = {}
    for pos, banned in constraints + [(pos, _banned(pos, words)) for pos, words in extras]:
        t = max(pos)
        by_max.setdefault(t, []).append((tuple(sorted(set(pos) - {t})), banned))
    return by_max


def _add(vectors):
    """The elementwise sum of equal-length lists, as an iterable."""
    return reduce(lambda acc, v: map(add, acc, v), vectors)


def _digit_pattern(m: int, width: int, digits: tuple[int, ...]) -> list[int]:
    """For every state of a frontier of the given width, the base-m code of
    its letters at the slots ``digits``, the first of them the lowest digit.
    A state's own index has the earliest slot as its lowest digit."""
    pattern = [0] * m**width
    for j, i in enumerate(digits):
        column = []
        for x in range(m):
            column += [x * m**j] * m**i
        pattern = list(map(add, pattern, column * m ** (width - 1 - i)))
    return pattern


def _letter_masks(m: int, width: int, checks) -> list[list[int] | None]:
    """For each letter at t, the 0/1 list over the frontier states that
    allows it, or None where no check bans it: each check's small table of
    the letters its earlier positions ban, read through their digit
    pattern."""
    masks: list[list[int] | None] = [None] * m
    for digits, banned in checks:
        tables = [[1] * m ** len(digits) for _ in range(m)]
        for word, letters in banned.items():
            code = sum(x * m**j for j, x in enumerate(word))
            for letter in letters:
                tables[letter][code] = 0
        pattern = None
        for letter, table in enumerate(tables):
            if all(table):
                continue
            if pattern is None:
                pattern = _digit_pattern(m, width, digits)
            mask = list(map(table.__getitem__, pattern))
            masks[letter] = mask if masks[letter] is None else list(map(mul, masks[letter], mask))
    return masks


def _digit_slices(states: list[int], m: int, digit: int) -> list[list[int]]:
    """The m parts of a state vector whose letter at frontier slot ``digit``
    is 0, ..., m - 1, each indexed by the other slots in their order.  They
    are cut by strided slices or by contiguous blocks, whichever takes fewer
    Python iterations; the oldest slot (digit 0) gives m slices of step m
    and the newest m contiguous blocks."""
    block = m**digit
    stride = block * m
    if len(states) // stride < block:
        parts: list[list[int]] = [[] for _ in range(m)]
        for base in range(0, len(states), stride):
            for x, part in enumerate(parts):
                part += states[base + x * block : base + (x + 1) * block]
        return parts
    if block == 1:
        return [states[x::m] for x in range(m)]
    parts = [[0] * (len(states) // m) for _ in range(m)]
    for low in range(block):
        for x, part in enumerate(parts):
            part[low::block] = states[low + x * block :: stride]
    return parts


def _sum_out(states: list[int], m: int, digit: int) -> list[int]:
    """Sum a state vector over the letter at frontier slot ``digit``."""
    return list(_add(_digit_slices(states, m, digit)))


def _fold(states: list[int], m: int, digit: int, banned: dict, top: bool) -> list[int]:
    """The step of a lone check whose one earlier position sits at slot
    ``digit`` and leaves the frontier at t: each letter y at t gets the sum
    of the slices whose letter x at that slot is allowed before y.  With t
    as the new top digit these sums are concatenated in letter order;
    otherwise each slice counts once per letter it allows.  This is the
    mask, the concatenation or sum, and ``_sum_out`` in one pass."""
    parts = _digit_slices(states, m, digit)
    zeros = [0] * len(parts[0])
    if top:
        states = []
        for y in range(m):
            states += _add([part for x, part in enumerate(parts)
                            if y not in banned.get((x,), ())] or [zeros])
        return states
    weighted = []
    for x, part in enumerate(parts):
        weight = m - len(banned.get((x,), ()))
        if weight:
            weighted.append(part if weight == 1 else map(weight.__mul__, part))
    return list(_add(weighted or [zeros]))


def _frontier_counts(n: int, sys: AffineSystem, extras: list[Constraint]) -> list[int]:
    """The admissible-word count of every window {1..t}, t = 1..n.

    The counts live in ``factor * states``.  A free position t, checked by
    nothing and awaited by nothing, gives every word m continuations, so it
    only multiplies ``factor`` by m.  A lone check of one earlier position
    whose slot leaves the frontier at t goes through ``_fold``.  Any other
    position masks the states per letter, keeps its letter as the top digit
    or adds the masked copies, and sums out the slots that leave."""
    m = sys.m
    by_max = _build_constraints(n, sys, extras)

    need_until = {}
    for t, cons in by_max.items():
        for others, _ in cons:
            for u in others:
                need_until[u] = max(need_until.get(u, 0), t)

    # frontier after step t = positions <= t still awaited by a later check
    frontier: list[int] = []
    frontiers: list[list[int]] = []
    for t in range(1, n + 1):
        frontier = [u for u in frontier if need_until[u] > t]
        if need_until.get(t, 0) > t:
            frontier.append(t)
        frontiers.append(frontier)
    max_width = max(map(len, frontiers))
    if (m ** (max_width + 1)) * n > STATE_BUDGET:
        raise InvalidSystemError(
            f"window too large: frontier needs m^{max_width + 1} states over {n} steps"
        )

    # factor * states[s]: the number of admissible words on {1..t} whose
    # letters on the frontier spell s in base m, the earliest position the
    # lowest digit; total = sum(states)
    states = [1]
    factor = total = 1
    prev_frontier: list[int] = []
    counts = []
    for t in range(1, n + 1):
        cur_frontier = frontiers[t - 1]
        top = need_until.get(t, 0) > t  # the letter at t joins as the top digit
        if t not in by_max and not top:
            # a free position: nothing is checked at t or waits for it, so
            # every word gains m letters and the frontier stays as it was
            factor *= m
            counts.append(factor * total)
            continue
        prev_index = {u: i for i, u in enumerate(prev_frontier)}
        # the earlier members of each check sit in the frontier
        checks = [
            (tuple(prev_index[u] for u in others), banned) for others, banned in by_max.get(t, ())
        ]
        kept = set(cur_frontier)
        lone = checks[0][0] if len(checks) == 1 else ()
        if len(lone) == 1 and prev_frontier[lone[0]] not in kept:
            states = _fold(states, m, lone[0], checks[0][1], top)
        else:
            masks = _letter_masks(m, len(prev_frontier), checks)
            copies = [states if mask is None else map(mul, states, mask) for mask in masks]
            if top:
                states = []
                for copy in copies:
                    states += copy
            else:  # nothing awaits the letter at t: every allowed letter reaches one state
                states = list(_add(copies))
            for digit in reversed(range(len(prev_frontier))):
                if prev_frontier[digit] not in kept:
                    states = _sum_out(states, m, digit)
        prev_frontier = cur_frontier
        total = sum(states)
        counts.append(factor * total)
    return counts


def _dfs_count(n: int, sys: AffineSystem, extras: list[Constraint]) -> int:
    m = sys.m
    if m**n > DFS_BUDGET:
        raise InvalidSystemError(f"window too large for depth-first search: m^n = {m}^{n}")
    by_max = _build_constraints(n, sys, extras)
    checks_at = [
        [(tuple(u - 1 for u in others), banned) for others, banned in by_max.get(t, ())]
        for t in range(1, n + 1)
    ]

    word = [0] * n

    def rec(t: int) -> int:
        if t == n:
            return 1
        bad = set()
        for pos0, banned in checks_at[t]:
            bad.update(banned.get(tuple(word[i] for i in pos0), ()))
        total = 0
        for letter in range(m):
            if letter not in bad:
                word[t] = letter
                total += rec(t + 1)
        return total

    return rec(0)


def _prefix_tree(matrix: TransitionMatrix, length: int):
    """The prefixes of the admissible words of the given length, level by
    level: ``letters[k]`` holds the last letter of each length-(k+1) prefix
    and ``parents[k]`` the index of each length-(k+2) prefix's own prefix in
    level k.  Each level is built from the one above it, its nodes grouped by
    parent and each group in letter order, and a letter enters level k only
    if an admissible word continues it to the full length, so every node has
    a child."""
    import numpy as np

    rows = np.array(matrix.rows, dtype=np.int64)
    # alive[d][x]: some admissible word of d more letters starts after x
    alive = [np.ones(matrix.m, dtype=bool)]
    for _ in range(length - 1):
        alive.append(rows @ alive[-1] > 0)
    letters = [np.flatnonzero(alive[length - 1])]
    parents = []
    for k in range(length - 1):
        parent, letter = np.nonzero(rows[letters[-1]].astype(bool) & alive[length - 2 - k])
        parents.append(parent)
        letters.append(letter)
    return letters, parents


def _leaf_words(letters, parents) -> list[tuple[int, ...]]:
    """The words spelled by the root-to-leaf paths of a ``_prefix_tree``."""
    columns = [letters[-1]]
    node = None
    for k in range(len(parents) - 1, -1, -1):
        node = parents[k] if node is None else parents[k][node]
        columns.append(letters[k][node])
    return list(zip(*(column.tolist() for column in reversed(columns))))


def admissible_words(matrix: TransitionMatrix, length: int) -> list[tuple[int, ...]]:
    """All words w with matrix[w_k][w_{k+1}] = 1 along consecutive letters,
    in lexicographic order."""
    return _leaf_words(*_prefix_tree(matrix, length))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    import numpy as np

    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, len(v) + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _newton_direction(c, parents, margs, g):
    """d = K^-1 (g - nu 1) with nu = 1^T K^-1 g / 1^T K^-1 1, for the negated
    Hessian K of ``maximize_chain_entropy`` at the word distribution
    margs[-1] whose length-(k+1) prefix marginals are margs[k].

    K restricted to the words below a node v of level k < i - 1 is
    K_v = B_v + a_v 1 1^T with a_v = c[k] / margs[k][v] and B_v block
    diagonal over v's children; a word's own block is c[-1] / mu.  By
    Sherman-Morrison, with s = 1^T B_v^-1 1 and t = 1^T B_v^-1 b,
    1^T K_v^-1 1 = s / (1 + a_v s), 1^T K_v^-1 b = t / (1 + a_v s) and
    K_v^-1 (b - x 1) = B_v^-1 (b - x' 1), x' = x + a_v (t - x s) / (1 + a_v s).
    The first two go up the tree, the shift x' comes down it, starting from
    nu at the root, so 1^T d = 0."""
    import numpy as np

    mu = margs[-1]
    ones, rhs = mu / c[-1], g * mu / c[-1]  # K^-1 1 and K^-1 g on each word
    up = []
    for k in range(len(parents) - 1, -1, -1):
        a = c[k] / margs[k]
        s = np.bincount(parents[k], weights=ones)
        t = np.bincount(parents[k], weights=rhs)
        den = 1.0 + a * s
        ones, rhs = s / den, t / den
        up.append((a, s, t, den))
    shift = rhs.sum() / ones.sum()
    for k in range(len(parents)):
        a, s, t, den = up.pop()
        shift = (shift + a * (t - shift * s) / den)[parents[k]]
    return (g - shift) * mu / c[-1]


def maximize_chain_entropy(
    i: int,
    weights: Sequence,
    matrix: TransitionMatrix,
    tol: float = 1e-7,
) -> tuple[float, np.ndarray, list[tuple[int, ...]]]:
    """Maximize f(mu) = sum_j weights[j-1] * H_m(j-th marginal) over
    distributions mu on the admissible words of length i.

    Damped Newton ascent on the hyperplane sum(mu) = 1 from the uniform
    start.  With c_j = weights[j-1] / ln m and P_j the map from words to
    their length-j prefixes, the negated Hessian is
    K = sum_j c_j P_j^T diag(1 / marg_j) P_j: the j = i term is the diagonal
    c_i / mu, and each prefix node v of length j < i adds the rank-one block
    (c_j / marg_j(v)) 1 1^T on the words below it.  These blocks nest along
    the prefix tree, so K x = b is solved exactly by Sherman-Morrison at
    every node: a bottom-up pass collects 1^T K_v^-1 1 and 1^T K_v^-1 b for
    each subtree, and a top-down pass hands each subtree its constant
    correction, in O(W i) per step for W words.  The multiplier
    nu = 1^T K^-1 g / 1^T K^-1 1 makes the step d = K^-1 (g - nu 1) keep
    sum(mu) fixed.  Each step goes at most 0.99 of the way to the boundary
    of the simplex, so mu stays positive, and is halved until f does not
    decrease: until f(cand) >= f(mu) - 1e-18, or, where rounding hides a
    gain that small in the value of f, until the slope of f along d is still
    non-negative at cand, which implies it because f is concave.

    The stopping certificate is the projected-gradient one: stop once
    max |project_to_simplex(mu + g) - mu| <= tol for the gradient g.  The
    objective is concave, so failure to reach it signals a bug rather than
    a modeling limit.  Returns (optimum, argmax distribution, word list),
    the distribution in ``admissible_words`` order.
    """
    import numpy as np

    if i < 1:
        raise ValueError(f"word length must be >= 1, got {i}")
    if len(weights) != i:
        raise ValueError(f"need {i} weights, got {len(weights)}")
    w = np.array([float(x) for x in weights])
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    letters, parents = _prefix_tree(matrix, i)
    words = _leaf_words(letters, parents)
    W = len(words)
    if W == 0:
        raise InvalidSystemError("matrix admits no words of the requested length")
    c = w / np.log(matrix.m)

    def marginals(mu: np.ndarray) -> list[np.ndarray]:
        margs = [mu]
        for k in range(i - 2, -1, -1):
            margs.append(np.bincount(parents[k], weights=margs[-1]))
        return margs[::-1]

    def objective(margs: list[np.ndarray]) -> float:
        return float(sum(-cj * (marg * np.log(marg)).sum() for cj, marg in zip(c, margs)))

    def gradient(margs: list[np.ndarray]) -> np.ndarray:
        g = c[0] * (-np.log(margs[0]) - 1.0)
        for k in range(1, i):
            g = g[parents[k - 1]] + c[k] * (-np.log(margs[k]) - 1.0)
        return g

    mu = np.full(W, 1.0 / W)
    margs = marginals(mu)
    f = objective(margs)
    g = gradient(margs)
    for _ in range(NEWTON_STEP_BUDGET):
        if np.max(np.abs(project_to_simplex(mu + g) - mu)) <= tol:
            return f, mu, words
        d = _newton_direction(c, parents, margs, g)
        d -= d.mean()  # 1^T d = 0 holds only up to rounding
        shrinking = d < 0
        step = min(1.0, 0.99 * float(np.min(mu[shrinking] / -d[shrinking])))
        while True:
            cand = mu + step * d
            cand_margs = marginals(cand)
            fc = objective(cand_margs)
            cand_g = gradient(cand_margs)
            # f is concave along d: a step that ends still climbing has not
            # lowered f, even where rounding hides the gain in fc
            if fc >= f - 1e-18 or cand_g @ d >= 0:
                break
            if step < 1e-18:
                raise NumericalError(
                    "entropy maximization stalled before reaching stationarity; "
                    "the objective is concave, so this indicates a fault"
                )
            step *= 0.5
        mu, margs, g, f = cand, cand_margs, cand_g, max(fc, f)
    raise NumericalError(
        "entropy maximization exhausted its iteration budget; the objective "
        "is concave, so this indicates a fault"
    )
