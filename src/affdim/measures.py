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
``_blocks`` stores each level's laws once, as one block of m + 1 rows: the
law after each letter, then the first-letter law.  A chain of full length
i reads block i at its first letter and falls one block per level;
infinite chains stay on block 0.  The per-family views and
``PrefixMeasure``, whose draws read the log2 terms of its level loop's
rows, all read these blocks.
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


def _laws(sys: AffineSystem, weights) -> np.ndarray:
    """One (m + 1) × m block of laws per row of ``weights``: row x < m of
    block s is row x of A·diag(weights[s]) normalized, the law after letter
    x, and row m is weights[s] normalized, the first-letter law, as the law
    after a virtual start letter whose row of A is all ones.  Every law is
    divided by the last entry of its ``np.cumsum``, which adds left to right
    as Python's ``sum`` does."""
    import numpy as np

    rows = np.array([*sys.matrix.rows, [1] * sys.m]) * np.array(weights)[:, None, :]
    return rows / np.cumsum(rows, axis=2)[..., -1:]


def _stream(sys: AffineSystem, count: int) -> list:
    """The first ``count`` levels of the chain stream: all ones, then the
    powered levels P_0, P_1, ... of ``_levels`` at r = p1/q1."""
    return list(islice(chain([[1.0] * sys.m], _levels(sys.matrix, sys.p1 / sys.q1)), count))


def _blocks(sys: AffineSystem, count: int, infinite: bool) -> np.ndarray:
    """blocks[s], the ``_laws`` block of stream level s - 1 for 1 <= s <=
    ``count``; blocks[0] is the zero law, or with ``infinite`` chains the
    block of stream level N, the first N >= 2 whose laws lie within
    relative 2^-53 of the laws of the fixed point t^q1 = A t
    (``hausdorff._last_level``).  A chain of full length i reads block i
    at its first letter and block i - j at level j; infinite chains read
    block 0 at every level.  Each stream level is formed once."""
    import numpy as np

    if infinite:
        _, N, _ = _last_level(sys, sys.q1 - 1, LAW_PRECISION / math.log2(sys.m))
        stream = _stream(sys, max(count, N + 1))
        return _laws(sys, [stream[N], *stream[:count]])
    return np.concatenate([np.zeros((1, sys.m + 1, sys.m)), _laws(sys, _stream(sys, count))])


def _family_measure(sys: AffineSystem, key: int) -> ChainMeasure:
    """The ChainMeasure of a full length ``key``, or of infinite chains for
    key 0, read off its ``_blocks`` as a draw reads them."""
    blocks = _blocks(sys, key, key == 0).tolist()
    levels = blocks[key - 1 : 0 : -1] if key else blocks
    transitions = tuple(tuple(map(tuple, rows[:-1])) for rows in levels)
    return ChainMeasure(length=key or None, first=tuple(blocks[key][-1]), transitions=transitions)


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
    float for float (see ``dimension_divisible``).  They are read off
    blocks i, i - 1, ..., 1 of ``_blocks``, as ``PrefixMeasure`` reads them.
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
    """Markov law on infinite chains (p1 = 1): block 0 of ``_blocks``,
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

    The laws are the ``_blocks`` of the longest family, one block of m + 1
    rows per stream level: a chain of full length i reads row m of block i
    (the law after the virtual start letter m) at its first letter and falls
    one block per level, so each law is stored once, whatever the number of
    families.  The build fixes everything a draw would otherwise recompute,
    in one loop over the levels: the level order of the 0-based positions,
    the mask of the chains that go on, each level's slice bounds, and each
    position's row base in the blocks.  A draw gathers its variates into
    level order once and works on each level's contiguous slice, adding
    only the previous letters to the bases.  Scoring knows every letter, so
    it finds all previous letters in one pass.
    """

    def __init__(self, sys: AffineSystem, n: int):
        import numpy as np

        self.sys = sys
        self.n = n
        m = sys.m
        levels = chain_levels(n, sys)
        starts, more = next(levels)
        # a chain of full length i starts on block i and falls one block per
        # level; infinite chains (length 0) stay on block 0, and every other
        # chain beside them is a singleton, so one step serves all chains
        lengths = orbit_lengths(starts, sys)
        shortest, longest = int(lengths.min()), int(lengths.max())
        step = -(m + 1) if shortest else 0
        # the 0-based positions in level order are a permutation; level j is
        # order[lo:hi], and goes_on[lo:hi] masks its chains whose next member
        # is on level j + 1, order[hi:end].  Row x of block s is flat row
        # s*(m + 1) + x, so a chain's base is its block times m + 1; the
        # blocks are far smaller than 2**31 rows
        order = np.empty(n, dtype=np.int64)
        goes_on = np.empty(n, dtype=bool)
        base = np.empty(n, dtype=np.int32)
        np.multiply(lengths, m + 1, out=base[: len(starts)], dtype=np.int32)
        del lengths
        bounds = []
        hi = 0
        for pos, more in chain([(starts, more)], levels):
            lo, hi = hi, hi + len(pos)
            end = hi + int(np.count_nonzero(more))
            np.subtract(pos, 1, out=order[lo:hi])
            goes_on[lo:hi] = more
            np.add(base[lo:hi].compress(more), step, out=base[hi:end])
            bounds.append((lo, hi, end))
        del starts, pos, more
        # family f is families[f], a full length or "inf", as the ``laws``
        # view lays them out
        self.families = tuple(key or "inf" for key in range(shortest, longest + 1))
        self._blocks = _blocks(sys, longest, not shortest)
        laws = self._blocks.reshape(-1, m)
        # the CDF column by column, without its last entry: a variate u < 1
        # never reaches it, so it is not compared
        self._cdf_columns = np.cumsum(laws.T[:-1], axis=0, out=np.empty((m - 1, len(laws))))
        # the log2 terms, formed in place; zero-mass letters read -inf
        self._log2 = np.maximum(laws, 1e-300).ravel()
        np.log2(self._log2, out=self._log2)
        self._log2[laws.ravel() == 0] = -np.inf
        self._order = order
        self._base = base
        self._more = goes_on
        self._levels = bounds

    @property
    def laws(self) -> np.ndarray:
        """laws[f, j, x], the law of a chain of family f at level j after
        letter x, read off the blocks as a draw reads them: level 0 repeats
        the first-letter law, and past a chain's end the law is zero."""
        import numpy as np

        m = self.sys.m
        keys = np.array([0 if key == "inf" else key for key in self.families])[:, None]
        level = np.arange(len(self._levels))
        block = np.where(keys == 0, 0, keys - level)
        rows = np.where(level[:, None] == 0, m, np.arange(m))
        laws = self._blocks[np.maximum(block, 0)[..., None], rows]
        laws[(keys > 0) & (block <= 0)] = 0.0
        return laws

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
        # the narrowest type that holds the start letter m keeps the
        # level-ordered letters small; first letters follow letter m
        lets = np.zeros(self.n, dtype=np.min_scalar_type(m))
        previous = np.full_like(lets, m)
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
        lets = word.astype(np.min_scalar_type(m)).take(self._order)
        # the letters are known, so every level's previous letters come from
        # one pass: the chains that go on, level by level, are the next
        # levels in order (the last level's mask is all False); first
        # letters follow the start letter m
        previous = np.full_like(lets, m)
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
