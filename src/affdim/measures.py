"""Entropy-optimal measures on chains, product sampling over windows, and
the Monte Carlo local-dimension estimator.

Every chain law is formed by ``_laws`` from one weight vector per level of
the chain stream: all ones, then the powered levels of ``hausdorff._levels``
at r = p1/q1 that the Hausdorff series sums.  So singletons are uniform,
and a non-divisible pair, the length-2 chain, weights first letters by row
sums to the power p1/q1 = p/q.  Infinite chains (p1 = 1) read one level N
of the stream at every level: the first whose laws lie within relative
2^-53 of the laws of the map's fixed point, so no iteration to a residual
runs.  The window prefix measure is the product of the per-chain measures
of the restricted words, so sampled prefixes are admissible by
construction.
``_law_table``, the one reading of a family's levels off the stream, lays
them out by (family, level, previous letter) for the per-family views and
``PrefixMeasure``, whose draws read the log2 terms of its level loop's rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

from .core import AffineSystem, CaseTag, InvalidSystemError
from .hausdorff import LAW_PRECISION, _last_level, _levels
from .lattice import chain_levels, orbit_lengths


@dataclass(frozen=True)
class ChainMeasure:
    """First-letter law plus per-level transition rows for one chain length.

    ``length`` is None for the stationary measure carried by infinite
    chains, whose single transition matrix applies at every level.  Letter
    probabilities are exactly zero on inadmissible words.
    """

    length: int | None
    first: tuple[float, ...]
    transitions: tuple[tuple[tuple[float, ...], ...], ...]

    @property
    def m(self) -> int:
        return len(self.first)

    def transition(self, level: int) -> tuple[tuple[float, ...], ...]:
        """Rows of the transition law from letters at ``level`` (1-based)."""
        if self.length is None:
            return self.transitions[0]
        if not 1 <= level < self.length:
            raise ValueError(f"no transition at level {level} for length {self.length}")
        return self.transitions[level - 1]

    def word_probability(self, word) -> float:
        """Probability of observing ``word`` as the first letters of a chain."""
        if self.length is not None and len(word) > self.length:
            raise ValueError(
                f"word of length {len(word)} exceeds chain length {self.length}"
            )
        prob = self.first[word[0]]
        for k in range(1, len(word)):
            prob *= self.transition(k)[word[k - 1]][word[k]]
            if prob == 0.0:
                return 0.0
        return prob


def letter_measure(m: int) -> ChainMeasure:
    """Uniform law on single letters (singleton chains)."""
    return ChainMeasure(length=1, first=tuple(1.0 / m for _ in range(m)), transitions=())


def _laws(sys: AffineSystem, weights) -> tuple[np.ndarray, np.ndarray]:
    """(first-letter laws, transition rows) of each row of ``weights``: row
    s of the first array is weights[s] normalized, and [s, x] of the second
    is row x of A·diag(weights[s]) normalized.  Every law is divided by the
    last entry of its ``np.cumsum``, which adds left to right as Python's
    ``sum`` does."""
    import numpy as np

    weights = np.array(weights)
    rows = np.array(sys.matrix.rows) * weights[:, None, :]
    firsts = weights / np.cumsum(weights, axis=1)[:, -1:]
    return firsts, rows / np.cumsum(rows, axis=2)[..., -1:]


def _stream(sys: AffineSystem, count: int) -> list:
    """The first ``count`` levels of the chain stream: all ones, then the
    powered levels P_0, P_1, ... of ``_levels`` at r = p1/q1."""
    return list(islice(chain([[1.0] * sys.m], _levels(sys.matrix, sys.p1 / sys.q1)), count))


def _law_table(sys: AffineSystem, keys, depth: int) -> np.ndarray:
    """laws[f, j, x], the law of a chain's letter at level j < ``depth``
    after letter x, for the ascending family keys[f] (a full length i, or 0
    for infinite chains), from one ``_laws`` call.  Level 0 repeats the
    first-letter law.  Length i reads stream level i - 1 at level 0, the
    rows of level i - 1 - j at level j and the zero law past its end; key 0
    reads stream level N at every level, the first N >= 2 whose laws lie
    within relative 2^-53 of the laws of the fixed point t^q1 = A t
    (``hausdorff._last_level``).  Each stream level is formed once."""
    import numpy as np

    keys = np.asarray(keys)
    count = int(keys[-1])
    if keys[0] == 0:
        _, N, _ = _last_level(sys, sys.q1 - 1, LAW_PRECISION / math.log2(sys.m))
        stream = _stream(sys, max(count, N + 1))
        weights = stream[:count] + [stream[N]]
    else:
        weights = _stream(sys, count)
    firsts, weight_rows = _laws(sys, weights)
    # rows[s] holds the rows of weight row s - 1, rows[0] the zero law, and
    # the last weight row (level N when some key is 0) is row -1
    rows = np.concatenate([np.zeros((1, sys.m, sys.m)), weight_rows])
    laws = np.empty((len(keys), depth, sys.m, sys.m))
    laws[:, 0] = firsts[keys - 1, None]
    finite = np.maximum(keys[:, None] - np.arange(1, depth), 0)
    laws[:, 1:] = rows[np.where(keys[:, None] == 0, -1, finite)]
    return laws


def _family_measure(sys: AffineSystem, key: int) -> ChainMeasure:
    """The ChainMeasure of family ``key`` of ``_law_table``: a full length
    read over its own levels, or key 0 (infinite chains) over two."""
    laws = _law_table(sys, [key], key or 2)[0]
    levels = tuple(tuple(map(tuple, level)) for level in laws[1:].tolist())
    return ChainMeasure(length=key or None, first=tuple(laws[0, 0].tolist()), transitions=levels)


def pair_measure(sys: AffineSystem) -> ChainMeasure:
    """Optimal law on non-divisible pairs, the length-2 chain of the stream:
    first letters proportional to row_sum^(p1/q1), which is row_sum^(p/q)
    float for float, successors uniform over admissible continuations."""
    if sys.case_tag is not CaseTag.NON_DIVISIBLE:
        raise InvalidSystemError(
            f"pair measure belongs to the non-divisible case, got {sys.case_tag.value}"
        )
    return _family_measure(sys, 2)


def chain_measure(i: int, sys: AffineSystem) -> ChainMeasure:
    """Optimal law on divisible-general chains of full length i.

    With r = p1/q1 and P_0, P_1, ... the powered levels of ``_levels`` at r
    (the stream the Hausdorff series sums), first letters are proportional
    to P_(i-2), the letter after level l < i-1 follows row-normalized
    A·diag(P_(i-2-l)), and the last one is uniform over admissible
    continuations.  These are the laws of ``chain_potential(i)``'s tables,
    float for float (see ``dimension_divisible``).  They are family i of
    ``_law_table``, as in ``PrefixMeasure``'s table.
    """
    if i == 1:
        return letter_measure(sys.m)
    if sys.case_tag is not CaseTag.DIVISIBLE_GENERAL:
        raise InvalidSystemError(
            f"chain measures require the divisible-general case, got {sys.case_tag.value}"
        )
    if i < 1:
        raise ValueError(f"chain measure is defined for lengths >= 1, got {i}")
    return _family_measure(sys, i)


def stationary_chain_measure(sys: AffineSystem) -> ChainMeasure:
    """Markov law on infinite chains (p1 = 1): family 0 of ``_law_table``,
    the ``_laws`` of stream level N, which weights the first letters and
    every level's transitions.  N is the first level whose laws lie within
    relative 2^-53 of the laws of the fixed point t^q1 = A t
    (``hausdorff._last_level``), which ``power_fixed_point`` iterates for
    the tests."""
    if sys.p1 != 1 or not sys.divisible:
        raise InvalidSystemError(
            "stationary chain measure requires infinite chains (p1 = 1)"
        )
    return _family_measure(sys, 0)


class PrefixMeasure:
    """Product measure over the chains meeting a window of size n.

    Supports seeded sampling of admissible prefixes and evaluation of
    -log_m probability for arbitrary words over the levels of
    ``chain_levels``: a chain's letter at level j follows its family's law
    at level j given its letter at level j - 1.

    The build fixes everything a draw would otherwise recompute, in one
    loop over the levels: the level order of the 0-based positions, the
    mask of the chains that go on, each level's slice bounds, and each
    position's row base in the level-major ``_law_table`` of the families
    from the shortest orbit to the longest.  A draw gathers its variates
    into level order once and works on each level's contiguous slice,
    adding only the previous letters to the bases.  Scoring knows every
    letter, so it finds all previous letters in one pass.
    """

    def __init__(self, sys: AffineSystem, n: int):
        import numpy as np

        self.sys = sys
        self.n = n
        m = sys.m
        levels = chain_levels(n, sys)
        starts, more = next(levels)
        # one family per full length from the shortest orbit to the longest;
        # infinite orbits (length 0) carry "inf"
        lengths = orbit_lengths(starts, sys)
        shortest = int(lengths.min())
        keys = np.arange(shortest, int(lengths.max()) + 1)
        # the 0-based positions in level order are a permutation; level j is
        # order[lo:hi], and goes_on[lo:hi] masks its chains whose next member
        # is on level j + 1, order[hi:end].  Flat row (j*F + f)*m + x of the
        # F families' table holds laws[f, j, x], so a chain of family
        # f = length - shortest has base f*m at level 0 and F*m more at each
        # next level; the table is far smaller than 2**31
        order = np.empty(n, dtype=np.int64)
        goes_on = np.empty(n, dtype=bool)
        base = np.empty(n, dtype=np.int32)
        np.multiply(lengths - shortest, m, out=base[: len(starts)], dtype=np.int32)
        del lengths
        bounds = []
        hi = 0
        for pos, more in chain([(starts, more)], levels):
            lo, hi = hi, hi + len(pos)
            end = hi + int(np.count_nonzero(more))
            np.subtract(pos, 1, out=order[lo:hi])
            goes_on[lo:hi] = more
            np.add(base[lo:hi].compress(more), len(keys) * m, out=base[hi:end])
            bounds.append((lo, hi, end))
        del starts, pos, more
        # the table the draws read, kept for inspection: family f is
        # families[f], a full length or "inf"
        self.families = tuple(key or "inf" for key in keys.tolist())
        self.laws = _law_table(sys, keys, len(bounds))
        laws = self.laws.transpose(1, 0, 2, 3).reshape(-1, m)
        cdf = np.cumsum(laws, axis=1)
        cdf[:, -1] = 1.0 + 1e-12  # zero-mass letters stay unreachable
        # a variate u < 1 never reaches the last entry, so it is not compared
        self._cdf_columns = cdf.T[:-1].copy()
        self._log2 = np.where(laws > 0, np.log2(np.maximum(laws, 1e-300)), -np.inf).ravel()
        self._order = order
        self._base = base
        self._more = goes_on
        self._levels = bounds

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Draw one admissible prefix; returns (letters, -log2 probability).

        One uniform variate is drawn per position, so the output depends
        only on the generator state, not on chain processing order.  The
        letter is the number of CDF entries <= u.  Each level's log2 terms
        are read at rows*m + letter from the rows its draw gathered.
        """
        import numpy as np

        m = self.sys.m
        u = rng.random(self.n).take(self._order)
        # the narrowest letter type keeps the level-ordered letters small
        lets = np.zeros(self.n, dtype=np.min_scalar_type(m - 1))
        previous = np.zeros_like(lets)
        for lo, hi, end in self._levels:
            rows = np.add(self._base[lo:hi], previous[lo:hi], dtype=np.int64)
            out, take = lets[lo:hi], u[lo:hi]
            for column in self._cdf_columns:
                out += column.take(rows) <= take
            out.compress(self._more[lo:hi], out=previous[hi:end])
            # the level's variates are spent: their slots take its log2 terms
            # (unbuffered in mode "clip", and every row is in range)
            rows *= m
            rows += out
            self._log2.take(rows, out=take, mode="clip")
        log2p = np.empty(self.n)
        log2p[self._order] = u
        del u, take
        neg_log2 = -float(log2p.sum())
        del log2p
        # scattered in the narrow type, which moves fewer bytes
        letters = np.empty_like(lets)
        letters[self._order] = lets
        return letters.astype(np.int64), neg_log2

    def neg_log_prob(self, word) -> float:
        """-log_m of the prefix probability of ``word`` (inf if excluded),
        from one gather of the log2 terms at (base + previous)*m + letter,
        summed in position order as a draw sums them."""
        import numpy as np

        word = np.asarray(word, dtype=np.int64)
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != window {self.n}")
        m = self.sys.m
        if word.min() < 0 or word.max() >= m:
            raise ValueError(f"letters must lie in [0, {m}), got {word.min()}..{word.max()}")
        # in level order and the draws' narrow type, which moves fewer bytes
        lets = word.astype(np.min_scalar_type(m - 1)).take(self._order)
        # the letters are known, so every level's previous letters come from
        # one pass: the chains that go on, level by level, are the next
        # levels in order (the last level's mask is all False)
        previous = np.zeros_like(lets)
        lets.compress(self._more, out=previous[self._levels[0][1] :])
        # int64 indices: take copies narrower ones to int64 first
        idx = np.add(self._base, previous, dtype=np.int64)
        idx *= m
        idx += lets
        log2p = self._log2.take(idx)
        del idx  # freed first, so the copy in position order can reuse it
        by_position = np.empty(self.n)
        by_position[self._order] = log2p
        return -float(by_position.sum()) / math.log2(m)


def sample_prefix(sys: AffineSystem, n: int, seed: int) -> np.ndarray:
    """Deterministic admissible prefix of length n for the given seed."""
    import numpy as np

    return PrefixMeasure(sys, n).sample(np.random.default_rng(seed))[0]


def empirical_local_dimension(
    sys: AffineSystem, n: int, seed: int, samples: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of -log_m P(prefix) / n.

    Sampled under the optimal product measure this estimates the Hausdorff
    dimension; sample s uses the derived seed sequence (seed, s).
    """
    import numpy as np

    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    pm = PrefixMeasure(sys, n)
    log2_m = math.log2(sys.m)
    values = np.empty(samples)
    for s in range(samples):
        _, neg_log2 = pm.sample(np.random.default_rng([seed, s]))
        values[s] = neg_log2 / (n * log2_m)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr
