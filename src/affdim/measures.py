"""Entropy-optimal measures on chains, product sampling over windows, and
the Monte Carlo local-dimension estimator.

Every chain carries a measure determined by its full length: singletons are
uniform, non-divisible pairs weight first letters by row sums to the power
p/q, finite chains in the divisible-general case use the chain-potential
dynamic program, and infinite chains (p1 = 1) use the fixed-point Markov
measure.  The window prefix measure is the product of the per-chain measures
of the restricted words, so sampled prefixes are admissible by construction
and their log-probabilities accumulate chain by chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AffineSystem, CaseTag, InvalidSystemError
from .hausdorff import chain_potential, power_fixed_point
from .lattice import chain_walk


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
    stationary: bool = False

    @property
    def m(self) -> int:
        return len(self.first)

    def transition(self, level: int) -> tuple[tuple[float, ...], ...]:
        """Rows of the transition law from letters at ``level`` (1-based)."""
        if self.stationary:
            return self.transitions[0]
        if not 1 <= level < (self.length or 1):
            raise ValueError(f"no transition at level {level} for length {self.length}")
        return self.transitions[level - 1]

    def word_probability(self, word) -> float:
        """Probability of observing ``word`` as the first letters of a chain."""
        if not self.stationary and len(word) > (self.length or 1):
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


def pair_measure(sys: AffineSystem) -> ChainMeasure:
    """Optimal law on non-divisible pairs: first letters proportional to
    row_sum^(p/q), successors uniform over admissible continuations."""
    if sys.case_tag is not CaseTag.NON_DIVISIBLE:
        raise InvalidSystemError(
            f"pair measure belongs to the non-divisible case, got {sys.case_tag.value}"
        )
    ratio = sys.p / sys.q
    rows = sys.matrix.rows
    weights = [r**ratio for r in sys.matrix.row_sums]
    total = sum(weights)
    first = tuple(w / total for w in weights)
    trans = tuple(
        tuple(rows[x][y] / sys.matrix.row_sums[x] for y in range(sys.m))
        for x in range(sys.m)
    )
    return ChainMeasure(length=2, first=first, transitions=(trans,))


def chain_measure(i: int, sys: AffineSystem) -> ChainMeasure:
    """Optimal law on divisible-general chains of full length i, realized
    from the chain-potential tables (first letters from the top level,
    transitions from consecutive level ratios)."""
    if i == 1:
        return letter_measure(sys.m)
    pot = chain_potential(i, sys)
    return ChainMeasure(
        length=i,
        first=pot.first_letter_probs(),
        transitions=tuple(pot.transition_probs(level) for level in range(1, i)),
    )


def stationary_chain_measure(sys: AffineSystem) -> ChainMeasure:
    """Markov law on infinite chains (p1 = 1): first letters proportional to
    the fixed-point vector, transitions weighted by it and row-normalized."""
    if sys.p1 != 1 or not sys.divisible:
        raise InvalidSystemError(
            "stationary chain measure requires infinite chains (p1 = 1)"
        )
    fp = power_fixed_point(sys.matrix, sys.q1)
    t = fp.values
    total = sum(t)
    rows = sys.matrix.rows
    first = tuple(tx / total for tx in t)
    trans = []
    for x in range(sys.m):
        weights = [rows[x][y] * t[y] for y in range(sys.m)]
        s = sum(weights)
        trans.append(tuple(w / s for w in weights))
    return ChainMeasure(length=None, first=first, transitions=(tuple(trans),), stationary=True)


class PrefixMeasure:
    """Product measure over the chains meeting a window of size n.

    Supports seeded sampling of admissible prefixes and evaluation of
    -log_m probability for arbitrary words.
    """

    def __init__(self, sys: AffineSystem, n: int):
        self.sys = sys
        self.n = n
        p, q, a, b = sys.p, sys.q, sys.a, sys.b
        walk = chain_walk(n, sys)
        # one family per full length; infinite orbits (key 0) carry "inf"
        keys = np.where(walk.truncated, 0, walk.full_length)
        # within a family, longest window first so each level is a prefix
        order = np.lexsort((walk.starts, -walk.window, keys))
        values, counts = np.unique(keys, return_counts=True)
        self._groups = []
        for key, members in zip(values.tolist(), np.split(order, np.cumsum(counts)[:-1])):
            window = walk.window[members]
            pos = walk.starts[members]
            steps = [pos]
            for j in range(1, int(window[0])):
                pos = q * ((pos[: np.count_nonzero(window > j)] - a) // p) + b
                steps.append(pos)
            self._groups.append(_GroupSampler(self._measure_for(key or "inf"), steps))

    def _measure_for(self, key) -> ChainMeasure:
        sys = self.sys
        if key == 1:
            return letter_measure(sys.m)
        if key == "inf":
            return stationary_chain_measure(sys)
        if sys.case_tag is CaseTag.NON_DIVISIBLE:
            return pair_measure(sys)
        if sys.case_tag is CaseTag.DIVISIBLE_GENERAL:
            return chain_measure(key, sys)
        raise InvalidSystemError(
            f"no measure family for finite chain length {key} in case {sys.case_tag.value}"
        )

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Draw one admissible prefix; returns (letters, -log2 probability).

        One uniform variate is drawn per position, so the output depends
        only on the generator state, not on chain processing order.
        """
        n = self.n
        u = rng.random(n)
        letters = np.empty(n, dtype=np.int64)
        log2p = np.zeros(n)
        for group in self._groups:
            group.draw(u, letters, log2p)
        return letters, -float(log2p.sum())

    def neg_log_prob(self, word) -> float:
        """-log_m of the prefix probability of ``word`` (inf if excluded)."""
        word = np.asarray(word, dtype=np.int64)
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != window {self.n}")
        m = self.sys.m
        if word.min() < 0 or word.max() >= m:
            raise ValueError(f"letters must lie in [0, {m}), got {word.min()}..{word.max()}")
        total = sum(group.log2_prob(word) for group in self._groups)
        return -total / math.log2(m)


class _GroupSampler:
    def __init__(self, measure: ChainMeasure, steps: list[np.ndarray]):
        self.measure = measure
        self.steps = steps
        m = measure.m
        self._first_cdf = self._cdf(measure.first)
        self._first_log = self._log2(measure.first)
        levels = len(steps) - 1
        self._trans_cdf = []
        self._trans_log = []
        for level in range(1, levels + 1):
            rows = measure.transition(level)
            self._trans_cdf.append(np.stack([self._cdf(r) for r in rows]))
            self._trans_log.append(np.stack([self._log2(r) for r in rows]))

    @staticmethod
    def _cdf(pmf) -> np.ndarray:
        cdf = np.cumsum(np.asarray(pmf, dtype=float))
        cdf[-1] = 1.0 + 1e-12  # zero-mass letters stay unreachable
        return cdf

    @staticmethod
    def _log2(pmf) -> np.ndarray:
        arr = np.asarray(pmf, dtype=float)
        return np.where(arr > 0, np.log2(np.maximum(arr, 1e-300)), -np.inf)

    def draw(self, u: np.ndarray, letters: np.ndarray, log2p: np.ndarray) -> None:
        pos = self.steps[0]
        take = u[pos - 1]
        lets = np.searchsorted(self._first_cdf, take, side="right")
        letters[pos - 1] = lets
        log2p[pos - 1] = self._first_log[lets]
        prev = lets
        for j in range(1, len(self.steps)):
            pos = self.steps[j]
            prev = prev[: len(pos)]
            take = u[pos - 1]
            cdf = self._trans_cdf[j - 1]
            lets = np.empty(len(pos), dtype=np.int64)
            for v in range(self.measure.m):
                mask = prev == v
                if mask.any():
                    lets[mask] = np.searchsorted(cdf[v], take[mask], side="right")
            letters[pos - 1] = lets
            log2p[pos - 1] = self._trans_log[j - 1][prev, lets]
            prev = lets

    def log2_prob(self, word: np.ndarray) -> float:
        """log2 probability of this group's chain words read off ``word``,
        gathered level by level from the tables ``draw`` uses."""
        prev = word[self.steps[0] - 1]
        total = float(self._first_log[prev].sum())
        for j in range(1, len(self.steps)):
            lets = word[self.steps[j] - 1]
            total += float(self._trans_log[j - 1][prev[: len(lets)], lets].sum())
            prev = lets
        return total


def sample_prefix(sys: AffineSystem, n: int, seed: int) -> np.ndarray:
    """Deterministic admissible prefix of length n for the given seed."""
    pm = PrefixMeasure(sys, n)
    letters, _ = pm.sample(np.random.default_rng(seed))
    return letters


def empirical_local_dimension(
    sys: AffineSystem, n: int, seed: int, samples: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of -log_m P(prefix) / n.

    Sampled under the optimal product measure this estimates the Hausdorff
    dimension; sample s uses the derived seed sequence (seed, s).
    """
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
