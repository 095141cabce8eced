"""Output checks for benchmark operations, run outside the timed phase.

Where an independent route exists the check takes it: the enumeration
oracle for small windows, the Python chain walk against the vectorized
census, a direct numpy test of every constraint on sampled prefixes, and a
float evaluation of the Minkowski series from integer matrix powers.
"""

from __future__ import annotations

import json
import math

import numpy as np

from affdim import decompose, empirical_census, hausdorff, higher_order, minkowski, oracle
from affdim.measures import PrefixMeasure

#: largest window the enumeration oracle re-counts for count and verify ops
ORACLE_N = 18
#: largest window at which a sweep value is recomputed from the
#: chain-by-chain decomposition (about 0.07 s of Python walk)
DECOMPOSE_CHECK_N = 30_000
#: window at which the vectorized census of a sweep op whose windows all
#: exceed DECOMPOSE_CHECK_N is compared with the decomposition
CENSUS_CHECK_N = 3_000
#: largest count window re-derived from the chain decomposition
COUNT_DECOMPOSE_N = 5_000
REL_TOL = 1e-9
#: rounding allowance on comparisons of two float dimension values
FLOAT_SLACK = 1e-12


class CheckFailure(Exception):
    """An operation's output disagrees with its check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


class Checker:
    """Checks one workload's outputs; caches oracle results per system."""

    def __init__(self, load, files: dict[str, str]):
        self.load = load  # op.system -> affdim AffineSystem
        self.files = files
        self._oracle: dict[tuple[str, int], int] = {}

    def check(self, op, result, results_by_index, index) -> None:
        getattr(self, "_" + op.kind.replace("-", "_"))(op, result, results_by_index, index)

    def oracle_count(self, op, n: int) -> int:
        key = (op.system.key, n)
        if key not in self._oracle:
            self._oracle[key] = oracle.brute_force_count(n, self.load(op.system)).count
        return self._oracle[key]

    # -- census ----------------------------------------------------------

    def _sweep(self, op, result, *_):
        lines = result.stdout.splitlines()
        expect(lines[0].startswith("# affdim "), "missing sweep header comment")
        expect(lines[1] == "n,empirical,closed_form,gap", f"bad CSV header {lines[1]!r}")
        rows = [line.split(",") for line in lines[2:]]
        expect([int(r[0]) for r in rows] == op.args["n_grid"], "sweep rows do not match the grid")
        system = self.load(op.system)
        closed = minkowski_float(system)
        for n, emp, cf, gap in ((int(r[0]), *map(float, r[1:])) for r in rows):
            expect(0.0 <= emp <= 1.0 + FLOAT_SLACK, f"empirical dimension {emp} outside [0, 1]")
            expect(abs(cf - closed) <= 1e-8 + FLOAT_SLACK, f"closed form {cf} != series {closed}")
            expect(gap == abs(emp - cf), f"gap {gap} != |{emp} - {cf}|")
        # the smallest window's value, recomputed by the chain walk where it
        # is affordable and else from a fresh census at the same window
        n, emp = int(rows[0][0]), float(rows[0][1])
        if n <= DECOMPOSE_CHECK_N:
            census, route = decompose(n, system).census(), "chain-walk"
        else:
            census, route = empirical_census(n, system), "census"
            vectorized = empirical_census(CENSUS_CHECK_N, system)
            walked = decompose(CENSUS_CHECK_N, system).census()
            expect(
                (vectorized.L, vectorized.D, vectorized.truncated)
                == (walked.L, walked.D, walked.truncated),
                f"empirical_census != decompose(n).census() at n={CENSUS_CHECK_N}",
            )
        expected = minkowski.empirical_dimension(n, system, census)
        expect(close(emp, expected, 1e-12), f"empirical {emp} at n={n} != {route} {expected}")

    # -- montecarlo ------------------------------------------------------

    def _sample(self, op, result, results_by_index, index):
        lines = result.stdout.splitlines()
        expect(len(lines) == 2, "sample prints a prefix line and a sidecar line")
        n = op.args["n"]
        system = self.load(op.system)
        word = np.frombuffer(lines[0].encode(), dtype=np.uint8).astype(np.int64) - ord("0")
        expect(len(word) == n, f"prefix length {len(word)} != n={n}")
        expect(bool(((word >= 0) & (word < system.m)).all()), "letter outside the alphabet")
        expect(admissible(word, system), "sampled prefix violates a constraint")
        sidecar = json.loads(lines[1])["neg_log_prob_per_n"]
        follower = results_by_index.get(index + 1)
        if follower is not None and follower.ok and follower.kind == "score":
            score = follower.value
        else:
            score = PrefixMeasure(system, n).neg_log_prob(word)
        expect(close(sidecar, score / n), f"sidecar {sidecar} != neg_log_prob/n {score / n}")

    def _score(self, op, result, *_):
        expect(math.isfinite(result.value) and result.value >= 0, f"bad score {result.value}")

    def _billingsley(self, op, result, *_):
        report = json.loads(result.stdout)
        mean, stderr = report["mean"], report["stderr"]
        expect(math.isfinite(mean) and mean >= 0, f"bad Billingsley mean {mean}")
        expect(math.isfinite(stderr) and stderr >= 0, f"bad standard error {stderr}")

    # -- dimensions ------------------------------------------------------

    def _dim(self, op, result, *_):
        res = json.loads(result.stdout)["results"]
        mk, hd = res["minkowski"], res["hausdorff"]
        M, H, tail = mk["value"], hd["value"], mk["tail_bound"]
        # FLOAT_SLACK absorbs rounding where H = M; M + tail may exceed 1
        # when M = 1, because the tail bound is not tight
        expect(
            0.0 <= H <= M + tail + FLOAT_SLACK and M <= 1.0 + FLOAT_SLACK,
            f"ordering fails: H={H}, M={M}, tail={tail}",
        )
        closed = minkowski_float(self.load(op.system))
        expect(abs(M - closed) <= tail + FLOAT_SLACK, f"Minkowski {M} != float series {closed}")

    # -- verify ----------------------------------------------------------

    def _verify(self, op, result, *_):
        report = json.loads(result.stdout)
        rows = report["rows"]
        expect([r["n"] for r in rows] == list(range(1, op.args["max_n"] + 1)), "missing rows")
        expect(report["all_equal"] is True, "verify reports a mismatch")
        for r in rows:
            expect(r["equal"] == (r["oracle_count"] == r["formula_count"]), f"row {r['n']}")
            if r["n"] <= ORACLE_N:
                truth = self.oracle_count(op, r["n"])
                expect(r["formula_count"] == truth, f"count at n={r['n']} != {truth}")

    def _count(self, op, result, *_):
        report = json.loads(result.stdout)
        n, count = op.args["n"], report["count"]
        system = self.load(op.system)
        expect(
            close(report["log_m_count_over_n"], math.log(count) / (n * math.log(system.m))),
            "log_m_count_over_n disagrees with the count",
        )
        if n <= ORACLE_N:
            expect(count == self.oracle_count(op, n), f"count at n={n} != enumeration")
        elif n <= COUNT_DECOMPOSE_N:
            walked = minkowski.pattern_count_exact(n, system, decompose(n, system).census())
            expect(count == walked, f"count at n={n} != chain-walk count")

    def _higher_order(self, op, result, *_):
        lines = result.stdout.splitlines()
        expect(lines[1] == "n,measured,bound,empirical_gap", f"bad CSV header {lines[1]!r}")
        rows = [line.split(",") for line in lines[2:]]
        expect([int(r[0]) for r in rows] == op.args["n_grid"], "rows do not match the grid")
        hos = self._higher_order_system(op)
        for n_text, measured, bound, gap in rows:
            n = int(n_text)
            expect(0.0 <= float(measured) <= float(bound), f"measured > bound at n={n}")
            if n <= op.args["max_enumeration"]:
                expect(close(float(gap), gap_by_dfs(n, hos), 1e-12), f"gap at n={n}")
            else:
                expect(gap == "", f"unexpected gap at n={n}")

    def _higher_order_system(self, op):
        forbidden = json.loads(self.files[op.args["forbidden"]])["words"]
        return higher_order.HigherOrderSystem(
            base=self.load(op.system),
            forbidden=frozenset(tuple(int(c) for c in w) for w in forbidden),
            growth_maps=(higher_order.parse_growth(op.args["f"]),),
        )

    def _entropy(self, op, result, *_):
        system = self.load(op.system)
        pot = hausdorff.chain_potential(op.args["length"], system)
        analytic = float(pot.weight()) * pot.log_value()
        expect(abs(result.value - analytic) <= 1e-5, f"optimum {result.value} != {analytic}")


def admissible(word: np.ndarray, system) -> bool:
    """A[x[pk+a], x[qk+b]] = 1 for every k with both positions in the word."""
    n = len(word)
    k = np.arange(system.k_min, n + 1, dtype=np.int64)
    u, v = system.p * k + system.a, system.q * k + system.b
    inside = (u >= 1) & (u <= n) & (v >= 1) & (v <= n)
    matrix = np.array(system.matrix.rows, dtype=bool)
    return bool(matrix[word[u[inside] - 1], word[v[inside] - 1]].all())


def gap_by_dfs(n: int, hos) -> float:
    """The higher-order count gap, recounted by depth-first enumeration."""
    base = higher_order.baseline_system(hos)
    extras = [(pos, hos.forbidden) for pos in higher_order.window_tuples(n, hos)]
    without = oracle.brute_force_count(n, base, method="dfs").count
    if not extras:
        return 0.0
    with_ho = oracle.brute_force_count(n, base, extra_constraints=extras, method="dfs").count
    return abs(math.log2(with_ho) - math.log2(without)) / (n * math.log2(base.m))


def minkowski_float(system) -> float:
    """Minkowski dimension in float arithmetic from integer matrix powers,
    summed until the omitted terms are below 1e-16."""
    m, rows = system.m, system.matrix.rows
    log_m = math.log(m)
    if not system.divisible:
        return 1 - 2 / system.q + math.log(sum(map(sum, rows))) / log_m / system.q
    d, q1 = system.d, system.q1
    terms = []
    ones_times_power = [1] * m  # 1^T A^(i-1)
    i = 1
    while True:
        if i >= 2:
            ones_times_power = [
                sum(ones_times_power[x] * rows[x][y] for x in range(m)) for y in range(m)
            ]
            terms.append(math.log(sum(ones_times_power)) / log_m / q1 ** (i + 1))
            if (i + 2) / q1**i < 1e-17:
                break
        i += 1
    const = 1 - (2 * q1 - 1) / (d * q1**2)
    return const + (q1 - 1) ** 2 / d * math.fsum(terms)
