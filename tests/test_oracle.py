import dataclasses
import hashlib
import inspect
import math
import random
import re
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affdim import InvalidSystemError, NumericalError, TransitionMatrix, chain_density, validate_system
from affdim import oracle
from affdim.minkowski import pattern_count_exact, pattern_counts_upto
from affdim.oracle import (
    _dfs_count,
    _newton_direction,
    _normalize_extra,
    _prefix_tree,
    admissible_words,
    brute_force_count,
    brute_force_counts_upto,
    maximize_chain_entropy,
    project_to_simplex,
    window_pairs,
)
from conftest import (
    BATTERY, FULL2, GOLDEN, PERIODIC, random_binary_matrix, random_irreducible, sys_full, sys_golden,
)


def lines_run(func, *args):
    """(lines, result): the source lines of ``func`` that ``func(*args)`` ran."""
    lines, code, previous = set(), func.__code__, sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        result = func(*args)
    finally:
        sys.settrace(previous)
    return lines, result


def line_of(func, text: str) -> int:
    """The line number of the one source line of ``func`` that holds ``text``."""
    source, first = inspect.getsourcelines(func)
    (offset,) = [k for k, line in enumerate(source) if text in line]
    return first + offset


def backward_optimum(weights, matrix) -> float:
    """max sum_j w_j H_m(X_1..X_j) over admissible words, by backward
    log-sum-exp.  By the chain rule the objective is
    sum_l S_l H(X_l | X_<l) / ln m with S_l = w_l + ... + w_i, and the best
    law of X_l given an admissible past depends only on X_{l-1}."""
    S = [sum(weights[k:]) for k in range(len(weights))]
    m = matrix.m
    value = [0.0] * m  # best payoff of the letters after X_l = x, in nats
    for l in range(len(weights) - 1, 0, -1):
        totals = [sum(math.exp(value[y] / S[l]) for y in range(m) if matrix.rows[x][y])
                  for x in range(m)]
        value = [S[l] * math.log(t) if t else -math.inf for t in totals]  # -inf: a dead end
    return S[0] * math.log(sum(math.exp(v / S[0]) for v in value)) / math.log(m)


def stationarity_gap(mu, weights, words, m) -> float:
    """max |project_to_simplex(mu + g) - mu| for the objective's gradient g,
    from a prefix dictionary rather than the optimizer's tree."""
    g = np.zeros(len(words))
    for j, weight in enumerate(weights, start=1):
        marg = {}
        for word, p in zip(words, mu):
            marg[word[:j]] = marg.get(word[:j], 0.0) + p
        g += [weight * (-math.log(marg[word[:j]]) - 1.0) / math.log(m) for word in words]
    return float(np.max(np.abs(project_to_simplex(mu + g) - mu)))


@st.composite
def irreducible_matrices(draw):
    """Random irreducible binary matrices with m = 2..5: random at density
    0.7, the same with a zero diagonal, or periodic."""
    kind = draw(st.sampled_from(["random", "zero-diagonal", "periodic"]))
    if kind == "periodic":
        return TransitionMatrix.from_rows(draw(st.sampled_from(PERIODIC)))
    m, rng = draw(st.integers(2, 5)), draw(st.randoms(use_true_random=False))
    while True:
        rows = random_binary_matrix(m, rng, density=0.7)
        if kind == "zero-diagonal":
            rows = [[0 if x == y else e for y, e in enumerate(row)] for x, row in enumerate(rows)]
        matrix = TransitionMatrix.from_rows(rows)
        if matrix.is_irreducible():
            return matrix


def frontier_width(n, s) -> int:
    """The most positions of {1..t} that a window pair with its later
    position in {t+1..n} still awaits, over t = 1..n."""
    until = {}
    for u, v in window_pairs(n, s):
        until[min(u, v)] = max(until.get(min(u, v), 0), max(u, v))
    return max(sum(u <= t < v for u, v in until.items()) for t in range(1, n + 1))


def product_count(t, s, extras):
    """The number of the m^t words on {1..t} that satisfy every window pair
    and every extra constraint inside the window, each word checked."""
    pairs = window_pairs(t, s)
    inside = [(pos, words) for pos, words in extras if max(pos) <= t]
    return sum(
        all(s.matrix.rows[w[u - 1]][w[v - 1]] for u, v in pairs)
        and all(tuple(w[u - 1] for u in pos) not in words for pos, words in inside)
        for w in product(range(s.m), repeat=t)
    )


@st.composite
def enumeration_cases(draw):
    """(system, window, extra constraints) for the enumeration oracles.

    Matrices with m = 2..5 are random, periodic, zero-diagonal or have a zero
    row or a zero column (a letter that no letter may precede).  The oracles
    read only the pair positions and the matrix rows, so a matrix that
    ``validate_system`` refuses as reducible is put in with
    ``dataclasses.replace``.  a > b is allowed, so pairs with u > v and u = v
    occur.  Up to three extra constraints have positions in any order,
    repeated or past the window, so a position other than the oldest can
    leave the frontier first."""
    kind = draw(st.sampled_from(["random", "periodic", "zero-diagonal", "zero-row", "zero-column"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "periodic":
        rows = [list(row) for row in draw(st.sampled_from(PERIODIC))]
    else:
        rows = random_binary_matrix(draw(st.integers(2, 5)), rng, density=0.7)
        if kind == "zero-diagonal":
            rows = [[0 if x == y else e for y, e in enumerate(row)] for x, row in enumerate(rows)]
        elif kind == "zero-row":
            rows[rng.randrange(len(rows))] = [0] * len(rows)
        elif kind == "zero-column":
            y = rng.randrange(len(rows))
            rows = [[0 if x == y else e for x, e in enumerate(row)] for row in rows]
    m = len(rows)
    p = draw(st.integers(1, 3))
    params = (p, draw(st.integers(p + 1, 9)), draw(st.integers(-2, 5)), draw(st.integers(-2, 5)))
    s = dataclasses.replace(validate_system(*params, [[1] * m] * m),
                            matrix=TransitionMatrix.from_rows(rows))
    top = int(math.log(1 << 14) / math.log(m))  # every window up to n is checked
    n = draw(st.integers(top // 2, top))
    extras = []
    for _ in range(draw(st.integers(0, 3))):
        # an early position awaited by a later one outlives younger positions
        pos = [rng.randint(1, (n + 1) // 2)] + [rng.randint(1, n + 1) for _ in range(rng.randint(0, 2))]
        rng.shuffle(pos)
        pos = tuple(pos)
        words = {tuple(rng.randrange(m) for _ in pos) for _ in range(rng.randint(0, 2 * m))}
        extras.append((pos, words))
    return s, n, extras


class TestBruteForce:
    def test_examples(self):
        assert brute_force_count(3, sys_golden(1, 2, 0, 0)).count == 6
        assert brute_force_count(2, sys_golden(2, 3, 0, 0)).count == 4
        assert brute_force_count(5, sys_golden(2, 4, 0, 1)).count == 24

    def test_methods_agree(self):
        for pqab in BATTERY:
            s = sys_golden(*pqab)
            for n in (1, 4, 7, 11):
                assert (
                    brute_force_count(n, s, method="frontier").count
                    == brute_force_count(n, s, method="dfs").count
                )

    def test_counts_upto_matches_single_calls(self):
        s = sys_golden(2, 3, 0, 0)
        seq = brute_force_counts_upto(10, s)
        for n in range(1, 11):
            assert seq[n - 1] == brute_force_count(n, s).count

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        for _ in range(10):
            mat = random_irreducible(3, rng)
            perm = [0, 1, 2]
            rng.shuffle(perm)
            relabeled = TransitionMatrix.from_rows(
                [[mat.rows[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
            )
            for pqab in ((1, 2, 0, 0), (2, 3, 0, 0), (2, 4, 0, 1)):
                a = brute_force_count(9, validate_system(*pqab, mat)).count
                b = brute_force_count(9, validate_system(*pqab, relabeled)).count
                assert a == b

    def test_extra_constraints(self):
        s = sys_full(1, 2, 0, 0)
        base = brute_force_count(3, s).count
        assert base == 8
        res = brute_force_count(3, s, extra_constraints=[((1, 2, 3), {(0, 0, 0)})])
        assert res.count == 7
        # constraints sticking out of the window are ignored
        res = brute_force_count(3, s, extra_constraints=[((1, 2, 4), {(0, 0, 0)})])
        assert res.count == 8

    def test_extra_constraints_with_repeated_positions(self):
        s = sys_full(1, 2, 0, 0)
        res = brute_force_count(2, s, extra_constraints=[((1, 1), {(0, 0), (1, 1)})])
        assert res.count == 0  # every letter equals itself

    def test_window_guards(self):
        with pytest.raises(InvalidSystemError, match="too large"):
            brute_force_count(200, sys_golden(1, 2, 0, 0))
        with pytest.raises(InvalidSystemError, match="too large"):
            brute_force_count(40, sys_golden(1, 2, 0, 0), method="dfs")

    def test_window_is_checked_before_the_method(self):
        s = sys_golden(2, 3, 0, 0)
        with pytest.raises(ValueError, match="window size must be >= 1, got 0"):
            brute_force_count(0, s, method="bogus")
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            brute_force_count(5, s, method="bogus")
        with pytest.raises(ValueError, match="window size must be >= 1, got 0"):
            brute_force_counts_upto(0, s)

    def test_count_bounds(self):
        for pqab in BATTERY:
            s = sys_golden(*pqab)
            res = brute_force_count(8, s)
            assert 1 <= res.count <= 2**8

    def test_window_pairs_respect_offsets(self):
        s = sys_golden(2, 4, 0, 1)
        assert window_pairs(5, s) == [(2, 5)]
        assert window_pairs(9, s) == [(2, 5), (4, 9)]

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_formula_on_random_systems(self, seed):
        rng = random.Random(seed)
        p = rng.randint(1, 4)
        q = rng.randint(p + 1, 6)
        a = rng.randint(0, 3)
        b = rng.randint(a, 5)
        mat = random_irreducible(2, rng)
        s = validate_system(p, q, a, b, mat)
        n = rng.randint(1, 12)
        assert brute_force_count(n, s).count == pattern_count_exact(n, s)

    def test_matches_product_count_with_decreasing_pairs_and_extras(self):
        """Both methods and the running counts against a check of every one
        of the m^n words, on systems with a > b allowed (so pairs with u > v
        and u = v occur) and extra constraints that repeat positions or stick
        out of the window."""
        rng = random.Random(20240613)
        shapes = set()
        for _ in range(120):
            m = rng.randint(2, 3)
            p = rng.randint(1, 3)
            s = validate_system(p, rng.randint(p + 1, 5), rng.randint(-2, 5), rng.randint(-2, 5),
                                random_irreducible(m, rng))
            n = rng.randint(1, 9)
            extras = []
            for _ in range(rng.randint(0, 3)):
                pos = tuple(rng.randint(1, n + 1) for _ in range(rng.randint(1, 3)))
                words = {tuple(rng.randrange(m) for _ in pos) for _ in range(rng.randint(0, 4))}
                extras.append((pos, words))
            shapes.update("u>v" if u > v else "u=v" if u == v else "u<v" for u, v in window_pairs(n, s))
            shapes.update("repeat" for pos, _ in extras if len(set(pos)) < len(pos))
            shapes.update("outside" for pos, _ in extras if max(pos) > n)
            expected = [product_count(t, s, extras) for t in range(1, n + 1)]
            for method in ("frontier", "dfs"):
                assert brute_force_count(n, s, extras, method=method).count == expected[-1]
            assert brute_force_counts_upto(n, s, extras) == expected
        assert shapes == {"u>v", "u=v", "u<v", "repeat", "outside"}

    @given(enumeration_cases())
    # on (1,2;0,0) position 1 is awaited until 9 by an extra constraint, so
    # positions 2, 3 and 4 leave the frontier before it, each from a slot
    # other than the oldest
    @example((validate_system(1, 2, 0, 0, ((0, 1, 1), (1, 0, 1), (1, 1, 1))), 9,
              [((1, 6), {(0, 1), (1, 1), (1, 2)}), ((1, 9), {(0, 2), (2, 1)})]))
    # three-position constraints with their positions out of order
    @example((validate_system(2, 3, 1, 2, ((0, 1, 1), (1, 0, 1), (1, 1, 1))), 11,
              [((2, 9, 1), {(2, 2, 0), (1, 1, 1), (2, 2, 2)}), ((4, 11), {(0, 1), (0, 2), (2, 2)}),
               ((3, 4, 2), {(1, 2, 1), (2, 2, 1)})]))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_dense_transfer_matches_depth_first_and_product_counts(self, case):
        s, n, extras = case
        counts = brute_force_counts_upto(n, s, extras)
        for t in range(1, n + 1):
            assert counts[t - 1] == _dfs_count(t, s, _normalize_extra(extras, t, s.m))
            if s.m**t <= 1 << 9:
                assert counts[t - 1] == product_count(t, s, extras)

    def test_count_past_64_bits_on_five_letters(self):
        matrix = random_irreducible(5, random.Random(5))
        assert matrix.rows == ((1, 1, 0, 1, 1), (0, 0, 1, 0, 1), (0, 1, 0, 0, 0),
                               (0, 1, 1, 1, 1), (1, 1, 0, 1, 0))
        s = validate_system(2, 3, 0, 0, matrix)
        counts = brute_force_counts_upto(40, s)
        assert counts[-1] > 2**63
        assert counts == [pattern_count_exact(t, s) for t in range(1, 41)]

    def test_running_counts_match_formula_at_verify_sized_windows(self):
        """Every window up to the largest n <= 60 whose transfer holds at
        most 200,000 state steps, m^(width + 1) * n, on five systems for each
        of two matrices per alphabet size m = 2..5."""
        rng = random.Random(20261019)
        windows = set()
        for m in (2, 2, 3, 3, 4, 4, 5, 5):
            matrix = random_irreducible(m, rng)
            for pqab in ((1, 2, 0, 0), (1, 3, 1, 0), (2, 3, 0, 0), (2, 4, 0, 1), (3, 5, 1, 2)):
                s = validate_system(*pqab, matrix)
                n = 60
                while m ** (frontier_width(n, s) + 1) * n > 200_000:
                    n -= 1
                windows.add(n)
                assert brute_force_counts_upto(n, s) == pattern_counts_upto(n, s)
        assert min(windows) < 20 and max(windows) == 60

    def test_state_budget_boundary(self, monkeypatch):
        # recorded from the dictionary-of-states enumeration this one replaced
        monkeypatch.setattr(oracle, "STATE_BUDGET", 1 << 12)
        s = sys_golden(1, 2, 0, 0)
        assert brute_force_counts_upto(25, s) == [pattern_count_exact(t, s) for t in range(1, 26)]
        message = "window too large: frontier needs m^8 states over 26 steps"
        with pytest.raises(InvalidSystemError, match=f"^{re.escape(message)}$"):
            brute_force_counts_upto(26, s)
        with pytest.raises(InvalidSystemError, match=f"^{re.escape(message)}$"):
            brute_force_count(26, s)

    def test_wide_frontier_counts_are_pinned(self):
        # frontier width 18; the digest was recorded from the
        # dictionary-of-states enumeration this one replaced
        counts = brute_force_counts_upto(70, sys_golden(1, 2, 0, 0))
        digest = hashlib.sha256(repr(counts).encode()).hexdigest()
        assert digest == "3f8801bfe40beabdc0e5b2319cc935aa3845e0204bf0e13db97ec9516a8dd2b8"


class TestSimplexProjection:
    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_projection_lands_on_simplex(self, vals):
        out = project_to_simplex(np.array(vals))
        assert np.all(out >= 0)
        assert math.isclose(out.sum(), 1.0, abs_tol=1e-9)

    def test_projection_fixes_simplex_points(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_to_simplex(v), v, atol=1e-12)


class TestEntropyMaximization:
    def test_single_letter(self, golden):
        opt, mu, words = maximize_chain_entropy(1, [Fraction(1, 3)], golden)
        assert opt == pytest.approx(1 / 3, abs=1e-9)
        assert np.allclose(mu, 0.5, atol=1e-6)

    def test_full_matrix_optimum_is_weighted_length(self, full2):
        # uniform on all words makes every marginal entropy equal its length
        s = sys_golden(2, 3, 0, 0)
        for i in (2, 3):
            row = [chain_density(i, j, s) for j in range(1, i + 1)]
            opt, _, _ = maximize_chain_entropy(i, row, full2)
            expect = sum(float(w) * j for j, w in enumerate(row, start=1))
            assert opt == pytest.approx(expect, abs=1e-7)

    def test_admissible_words_enumeration(self, golden):
        assert set(admissible_words(golden, 2)) == {(0, 0), (0, 1), (1, 0)}
        assert len(admissible_words(golden, 4)) == golden.power_sum(3)

    def test_rejects_bad_weights(self, golden):
        with pytest.raises(ValueError):
            maximize_chain_entropy(2, [1.0], golden)
        with pytest.raises(ValueError):
            maximize_chain_entropy(2, [0.5, 0.0], golden)

    @pytest.mark.parametrize("weights", [[10, 1e-4, 1e-4], [1e-4, 10, 10]])
    def test_converges_on_badly_scaled_weights(self, golden, weights):
        # projected-gradient ascent ran out of iterations on both
        opt, mu, words = maximize_chain_entropy(3, weights, golden)
        assert opt == pytest.approx(backward_optimum(weights, golden), abs=1e-9)
        assert stationarity_gap(mu, weights, words, 2) <= 1e-7

    def test_overlong_steps_are_halved(self, golden, monkeypatch):
        # thirty Newton steps at once overshoot the optimum, so the line
        # search halves them; the certificate still holds at the end
        weights = [10, 1e-4, 1e-4]
        monkeypatch.setattr(oracle, "_newton_direction", lambda *a: 30 * _newton_direction(*a))
        lines, (opt, mu, words) = lines_run(maximize_chain_entropy, 3, weights, golden)
        assert line_of(maximize_chain_entropy, "step *= 0.5") in lines
        assert opt == pytest.approx(backward_optimum(weights, golden), abs=1e-9)
        assert stationarity_gap(mu, weights, words, 2) <= 1e-7

    def test_step_budget_exhausted(self, golden, monkeypatch):
        monkeypatch.setattr(oracle, "NEWTON_STEP_BUDGET", 1)
        with pytest.raises(NumericalError, match="exhausted its iteration budget"):
            maximize_chain_entropy(3, [10, 1e-4, 1e-4], golden)

    def test_stalls_on_a_direction_that_never_climbs(self, golden, monkeypatch):
        # the negated Newton direction descends, and f is concave, so every
        # step length lowers f until the step is below 1e-18
        monkeypatch.setattr(oracle, "_newton_direction", lambda *a: -1e20 * _newton_direction(*a))
        with pytest.raises(NumericalError, match="stalled before reaching stationarity"):
            maximize_chain_entropy(3, [10, 1e-4, 1e-4], golden)

    @given(irreducible_matrices(), st.sampled_from([1, 2, 3, 4, 5]), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_optimum_matches_backward_recursion(self, matrix, i, rng):
        weights = [10 ** rng.uniform(-4, 1) for _ in range(i)]
        opt, mu, words = maximize_chain_entropy(i, weights, matrix)
        assert words == admissible_words(matrix, i)
        assert opt == pytest.approx(backward_optimum(weights, matrix), abs=1e-9)
        assert np.all(mu >= 0)
        assert math.isclose(mu.sum(), 1.0, abs_tol=1e-12)
        assert stationarity_gap(mu, weights, words, matrix.m) <= 1e-7

    def test_tree_solve_matches_dense_newton_system(self):
        # K d = g - nu 1 with 1^T d = 0, K = sum_j c_j P_j^T diag(1/marg_j) P_j
        rng = np.random.default_rng(5)
        for rows in (GOLDEN, FULL2, PERIODIC[2], ((1, 1, 0), (0, 1, 1), (1, 1, 1))):
            matrix = TransitionMatrix.from_rows(rows)
            for i in (1, 2, 3, 4):
                _, parents = _prefix_tree(matrix, i)
                words = admissible_words(matrix, i)
                c = 10 ** rng.uniform(-4, 1, size=i)
                mu = rng.uniform(0.1, 1.0, size=len(words))
                mu /= mu.sum()
                g = rng.normal(size=len(words))
                margs = [np.array([sum(p for w, p in zip(words, mu) if w[:j] == prefix)
                                   for prefix in sorted({w[:j] for w in words})])
                         for j in range(1, i + 1)]
                K = np.zeros((len(words), len(words)))
                for j in range(1, i + 1):
                    P = np.array([[w[:j] == prefix for w in words]
                                  for prefix in sorted({w[:j] for w in words})], dtype=float)
                    K += c[j - 1] * P.T @ np.diag(1 / margs[j - 1]) @ P
                kkt = np.block([[K, np.ones((len(words), 1))], [np.ones((1, len(words))), np.zeros((1, 1))]])
                dense = np.linalg.solve(kkt, np.append(g, 0.0))[:-1]
                assert np.allclose(_newton_direction(c, parents, margs, g), dense, rtol=1e-9, atol=1e-12)

    def test_words_come_from_the_prefix_tree(self):
        # a zero row leaves prefixes that no full-length word continues
        matrix = TransitionMatrix.from_rows(((1, 1, 1), (0, 0, 0), (1, 0, 1)))
        words = admissible_words(matrix, 3)
        expected = [w for w in product(range(3), repeat=3)
                    if all(matrix.rows[x][y] for x, y in zip(w, w[1:]))]
        assert words == expected
        opt, mu, _ = maximize_chain_entropy(3, [1.0, 1.0, 1.0], matrix)
        assert opt == pytest.approx(backward_optimum([1.0, 1.0, 1.0], matrix), abs=1e-9)
