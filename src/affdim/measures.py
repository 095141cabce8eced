"""Entropy-optimal measures on chains, product sampling over windows, and
the Monte Carlo local-dimension estimator.

Every chain carries a measure determined by its full length: singletons are
uniform, non-divisible pairs weight first letters by row sums to the power
p/q, finite chains in the divisible-general case read the powered levels of
``hausdorff._levels`` that the Hausdorff series sums, and infinite chains
(p1 = 1) use the fixed-point Markov measure.  The window prefix measure is
the product of the per-chain measures of the restricted words, so sampled
prefixes are admissible by construction.
Drawing and scoring read one table of laws indexed by (family, level,
previous letter) over the levels of lattice's walk, through one log2 step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

from .core import AffineSystem, CaseTag, InvalidSystemError
from .hausdorff import _levels, power_fixed_point
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


def _normalized(weights) -> tuple[float, ...]:
    total = sum(weights)
    return tuple(w / total for w in weights)


def _row_laws(sys: AffineSystem, w) -> tuple[tuple[float, ...], ...]:
    """Rows of A·diag(w), each normalized to sum 1."""
    return tuple(_normalized([a * wy for a, wy in zip(row, w)]) for row in sys.matrix.rows)


def pair_measure(sys: AffineSystem) -> ChainMeasure:
    """Optimal law on non-divisible pairs: first letters proportional to
    row_sum^(p/q), successors uniform over admissible continuations."""
    if sys.case_tag is not CaseTag.NON_DIVISIBLE:
        raise InvalidSystemError(
            f"pair measure belongs to the non-divisible case, got {sys.case_tag.value}"
        )
    first = _normalized([r ** (sys.p / sys.q) for r in sys.matrix.row_sums])
    return ChainMeasure(length=2, first=first, transitions=(_row_laws(sys, [1.0] * sys.m),))


def _chain_laws(sys: AffineSystem, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(first-letter laws, transition rows) weighted by each of the first
    ``count`` levels of the chain stream: all ones, then the powered levels
    P_0, P_1, ... of ``_levels`` at r = p1/q1.  Row s of the first array
    is the stream level s normalized, and [s, x] of the second is row x of
    A·diag(stream level s) normalized.  Each level's laws are formed once,
    whatever the number of chain lengths that read them, in one numpy pass.
    Every law is divided by the last entry of its ``np.cumsum``, which adds
    left to right as ``_normalized``'s ``sum`` does, so the floats are those
    of ``_normalized`` and ``_row_laws``."""
    import numpy as np

    weights = np.array(
        list(islice(chain([[1.0] * sys.m], _levels(sys.matrix, sys.p1 / sys.q1)), count))
    )
    rows = np.array(sys.matrix.rows) * weights[:, None, :]
    firsts = weights / np.cumsum(weights, axis=1)[:, -1:]
    return firsts, rows / np.cumsum(rows, axis=2)[..., -1:]


def chain_measure(i: int, sys: AffineSystem) -> ChainMeasure:
    """Optimal law on divisible-general chains of full length i.

    With r = p1/q1 and P_0, P_1, ... the powered levels of ``_levels`` at r
    (the stream the Hausdorff series sums), first letters are proportional
    to P_(i-2), the letter after level l < i-1 follows row-normalized
    A·diag(P_(i-2-l)), and the last one is uniform over admissible
    continuations.  These are the laws of ``chain_potential(i)``'s tables,
    float for float (see ``dimension_divisible``).  They are read from
    ``_chain_laws``, as ``PrefixMeasure`` reads them.
    """
    if i == 1:
        return letter_measure(sys.m)
    if sys.case_tag is not CaseTag.DIVISIBLE_GENERAL:
        raise InvalidSystemError(
            f"chain measures require the divisible-general case, got {sys.case_tag.value}"
        )
    if i < 1:
        raise ValueError(f"chain measure is defined for lengths >= 1, got {i}")
    firsts, rows = _chain_laws(sys, i)
    return ChainMeasure(
        length=i,
        first=tuple(firsts[-1].tolist()),
        transitions=tuple(tuple(map(tuple, level)) for level in rows[-2::-1].tolist()),
    )


def stationary_chain_measure(sys: AffineSystem) -> ChainMeasure:
    """Markov law on infinite chains (p1 = 1): first letters proportional to
    the fixed-point vector, transitions weighted by it and row-normalized."""
    if sys.p1 != 1 or not sys.divisible:
        raise InvalidSystemError(
            "stationary chain measure requires infinite chains (p1 = 1)"
        )
    t = power_fixed_point(sys.matrix, sys.q1).values
    return ChainMeasure(length=None, first=_normalized(t), transitions=(_row_laws(sys, t),))


class PrefixMeasure:
    """Product measure over the chains meeting a window of size n.

    Supports seeded sampling of admissible prefixes and evaluation of
    -log_m probability for arbitrary words over the levels of
    ``chain_levels``: a chain's letter at level j follows its family's law
    at level j given its letter at level j - 1.

    The build fixes everything a draw would otherwise recompute.  The law
    table is filled from the arrays of ``_chain_laws`` in the
    divisible-general case.  The positions are kept in level order: one
    permutation of the 0-based positions (level 0, then level 1, and so
    on), the row base of each in that order (its family's first row plus
    the level offset), each level's slice bounds, and the mask of the
    chains that go on to the next level.  A draw gathers its variates into
    level order once and works on each level's contiguous slice, adding
    only the previous letters to the bases.  Scoring knows every letter, so
    it finds all previous letters in one pass.  Both then take the log2
    terms in one gather and scatter them back to position order once, with
    the letters of a draw.
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
        # every position lies on one level, so the 0-based positions in
        # level order are a permutation; level j is order[lo:hi], and
        # goes_on[lo:hi] masks its chains whose next member is on level
        # j + 1, order[hi:end]
        order = np.empty(n, dtype=np.int64)
        goes_on = np.empty(n, dtype=bool)
        bounds = []
        hi = 0
        for pos, more in chain([(starts, more)], levels):
            lo, hi = hi, hi + len(pos)
            np.subtract(pos, 1, out=order[lo:hi])
            goes_on[lo:hi] = more
            bounds.append((lo, hi, hi + int(np.count_nonzero(more))))
        del starts, pos, more
        depth = len(bounds)
        # laws[f, j, x] is the law of the letter at level j after letter x;
        # level 0 repeats the first-letter law, as it has no previous letter
        laws = np.zeros((len(keys), depth, m, m))
        if sys.case_tag is CaseTag.DIVISIBLE_GENERAL:
            # length i reads its first letter from stream level i - 1 and the
            # letter at level j from stream level i - 1 - j; rows[s] holds
            # the rows of stream level s - 1, and rows[0] the zero law past
            # the chain's end
            firsts, stream_rows = _chain_laws(sys, int(keys[-1]))
            rows = np.zeros((len(firsts) + 1, m, m))
            rows[1:] = stream_rows
            laws[:, 0] = firsts[keys - 1, None]
            laws[:, 1:] = rows[np.maximum(keys[:, None] - np.arange(1, depth), 0)]
        else:
            for f, key in enumerate(keys.tolist()):
                measure = self._measure_for(key or "inf")
                laws[f, 0] = measure.first
                for level in range(1, min(depth, measure.length or depth)):
                    laws[f, level] = measure.transition(level)
        # the table the draws read, kept for inspection: family f is
        # families[f], a full length or "inf"
        self.families = tuple(key or "inf" for key in keys.tolist())
        self.laws = laws
        laws = laws.reshape(-1, m)
        cdf = np.cumsum(laws, axis=1)
        cdf[:, -1] = 1.0 + 1e-12  # zero-mass letters stay unreachable
        # a variate u < 1 never reaches the last entry, so it is not compared
        self._cdf_columns = cdf.T[:-1].copy()
        self._log2 = np.where(laws > 0, np.log2(np.maximum(laws, 1e-300)), -np.inf).ravel()
        # flat row (f*depth + j)*m + x holds laws[f, j, x]; the base of a
        # chain of family f = length - shortest at level j is (f*depth + j)*m,
        # and the table is far smaller than 2**31
        base = np.empty(n, dtype=np.int32)
        lo, hi, _ = bounds[0]
        np.multiply(lengths - shortest, depth * m, out=base[lo:hi], dtype=np.int32)
        del lengths
        for lo, hi, end in bounds:
            np.add(base[lo:hi].compress(goes_on[lo:hi]), m, out=base[hi:end])
        self._order = order
        self._base = base
        self._more = goes_on
        self._levels = bounds

    def _measure_for(self, key) -> ChainMeasure:
        sys = self.sys
        if key == 1:
            return letter_measure(sys.m)
        if key == "inf":
            return stationary_chain_measure(sys)
        if sys.case_tag is CaseTag.NON_DIVISIBLE:
            return pair_measure(sys)
        raise InvalidSystemError(
            f"no measure family for finite chain length {key} in case {sys.case_tag.value}"
        )

    def _log2_terms(self, lets, previous) -> np.ndarray:
        """Per-position log2 probabilities of the level-ordered letters
        ``lets``, each read from its chain's row after ``previous``, the
        letter before it on its chain (0 on level 0), scattered back to
        position order."""
        import numpy as np

        # int64 indices: take copies narrower ones to int64 first
        idx = np.add(self._base, previous, dtype=np.int64)
        idx *= self.sys.m
        idx += lets
        log2p = self._log2.take(idx)
        del idx
        by_position = np.empty(self.n)
        by_position[self._order] = log2p
        return by_position

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Draw one admissible prefix; returns (letters, -log2 probability).

        One uniform variate is drawn per position, so the output depends
        only on the generator state, not on chain processing order.  The
        letter is the number of CDF entries <= u.
        """
        import numpy as np

        u = rng.random(self.n).take(self._order)
        # the narrowest letter type keeps the level-ordered letters small
        lets = np.zeros(self.n, dtype=np.min_scalar_type(self.sys.m - 1))
        previous = np.zeros_like(lets)
        for lo, hi, end in self._levels:
            rows = np.add(self._base[lo:hi], previous[lo:hi], dtype=np.int64)
            out, take = lets[lo:hi], u[lo:hi]
            for column in self._cdf_columns:
                out += column.take(rows) <= take
            out.compress(self._more[lo:hi], out=previous[hi:end])
        del u, rows, take  # before the log2 terms, which need n-long arrays
        neg_log2 = -float(self._log2_terms(lets, previous).sum())
        # scattered in the narrow type, which moves fewer bytes
        letters = np.empty_like(lets)
        letters[self._order] = lets
        return letters.astype(np.int64), neg_log2

    def neg_log_prob(self, word) -> float:
        """-log_m of the prefix probability of ``word`` (inf if excluded)."""
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
        return -float(self._log2_terms(lets, previous).sum()) / math.log2(m)


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
