"""Seeded inputs for the affdim benchmark.

Every workload draws its systems from the grid p <= 4, p < q <= 7 and
offsets a, b in 0..3 (288 systems, all four case tags, a > b included), each
with a random irreducible matrix of size 2..5 (not filtered for primitivity)
or the golden matrix.  Window sizes come from randomly shifted Halton
sequences, one per stratum of inputs, so any prefix of the op list covers
the size range evenly and the op mix a run reaches does not swing with the
seed or with how far the run gets.  Inputs that reach a known defect of the
library are kept: the share of failing ops is part of what the benchmark
reports.

Run as a script, this module is the set-up that ``setup_s`` times: a fresh
interpreter imports affdim (this module's first import), generates the
workload's inputs from the seed, writes them and validates every system.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field

from affdim import AffineSystem, CaseTag, TransitionMatrix, validate_system

WORKLOADS = ("census", "montecarlo", "dimensions", "verify")

GOLDEN = ((1, 1), (1, 0))

#: (p, q, a, b) grid the systems are drawn from
GRID = tuple(
    (p, q, a, b)
    for p in range(1, 5)
    for q in range(p + 1, 8)
    for a in range(4)
    for b in range(4)
)


@functools.lru_cache(maxsize=None)
def shape(params) -> AffineSystem:
    """The system of ``params`` on the golden matrix, for the properties
    that depend on the parameters alone (case tag, k_min, c)."""
    return validate_system(*params, GOLDEN)


def first_pair_increasing(system: AffineSystem) -> bool:
    """The census and the decomposition refuse a system whose first
    constraint pair is not increasing."""
    k = system.k_min
    return system.q * k + system.b > system.p * k + system.a


def unmarked_infinite(params) -> bool:
    """p1 = 1 and c = (b - a)/d < 0: every chain that advances is infinite,
    but the census and the decomposition only recognise c >= 0 and follow
    each chain 128 steps past the window in Python integers, about 40 us
    (census) and 85 us (decompose) per position.  A window of 1e5 then
    takes 4 to 9 s and one of 3e6 about two minutes."""
    s = shape(params)
    return s.p1 == 1 and s.c is not None and s.c < 0 and first_pair_increasing(s)


#: systems whose census cost stays linear in the window at vectorized speed;
#: ops with windows beyond VERIFY_MAX_N draw from this grid (see
#: unmarked_infinite for the 28 systems it leaves out)
LARGE_WINDOW_GRID = tuple(g for g in GRID if not unmarked_infinite(g))

CENSUS_N = (10_000, 3_000_000)
MONTECARLO_N = (32, 50_000)
BILLINGSLEY_SAMPLES = 8
DIM_TOLS = (1e-8, 1e-12)
COUNT_N = (10, 100_000)
VERIFY_MAX_N = (10, 90)
#: bound on m^(frontier width + 1) * N for a verify op, which keeps the
#: enumeration oracle far below its own STATE_BUDGET refusal
VERIFY_STATE_STEPS = 200_000
#: bound on m^n for the exact count gap of a higher-order op, which the
#: check recomputes by depth-first enumeration
HIGHER_ORDER_WORDS = 1 << 13
ENTROPY_LENGTHS = (2, 3, 4, 5, 6)
#: passes over the grid per workload: each op list holds more ops than a
#: run of --seconds 35 executes (run.OPS_PER_SECOND), so no run of the
#: benchmark's length replays an op
GRID_PASSES = {"census": 2, "montecarlo": 2, "dimensions": 12, "verify": 11}
#: the grid system whose census needs the most memory (64 MB at n = 1e6
#: under tracemalloc, against 35 to 63 MB for the others); the census
#: workload opens with it at the top window, so peak_rss_mb does not
#: depend on which systems the seed draws
PEAK_MEMORY_PARAMS = (2, 6, 0, 1)


@dataclass(frozen=True)
class System:
    key: str
    affine: AffineSystem

    @property
    def m(self) -> int:
        return self.affine.m

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self.affine.matrix.rows


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``kind`` names a CLI subcommand (run through ``affdim.cli.main``) or a
    library call (``score``, ``entropy``).  ``args`` holds the op's
    parameters; ``size`` is its window size, used to pick ops for the
    memory pass of a traced run.
    """

    kind: str
    system: System
    size: int
    args: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    files: dict[str, str]  # relative file name -> content

    @property
    def systems(self) -> list[System]:
        return list(_unique(self.ops))


def random_matrix(rng: random.Random, slot: int) -> tuple[tuple[int, ...], ...]:
    """The golden matrix for slot 0 (mod 5), else a random irreducible 0/1
    matrix of size slot + 1 with entry density 0.6.  Ops take consecutive
    slots, so every stretch of the op list has the same mix of sizes."""
    slot %= 5
    if slot == 0:
        return GOLDEN
    m = slot + 1
    while True:
        rows = tuple(tuple(int(rng.random() < 0.6) for _ in range(m)) for _ in range(m))
        if TransitionMatrix.from_rows(rows).is_irreducible():
            return rows


def _radical_inverse(i: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        inv += digit * f
        f /= base
    return inv


class Halton:
    """Randomly shifted Halton points in [0, 1), one sequence per stratum.

    Each stratum (see ``stratum``) keeps its own index, so the ops of every
    stratum, and in particular the ops that succeed, cover the size range
    evenly in any prefix of the op list.  The first point of a stratum has
    its first coordinate at the top of the range, so every run reaches the
    largest window early and peak memory does not depend on the seed.
    """

    def __init__(self, rng: random.Random, bases=(2, 3)):
        self.bases = bases
        self.shift = [rng.random() for _ in bases]
        self.counts: dict = {}

    def draw(self, key) -> list[float]:
        i = self.counts.get(key, 0) + 1
        self.counts[key] = i
        point = [(_radical_inverse(i, b) + s) % 1.0 for b, s in zip(self.bases, self.shift)]
        if i == 1:
            point[0] = 1.0
        return point


def stratum(system: System) -> tuple[bool, bool]:
    """The two input properties that decide whether the library refuses an
    op: a non-increasing first constraint pair (census and decomposition)
    and a periodic matrix (fixed-point vector)."""
    return first_pair_increasing(system.affine), system.affine.matrix.is_primitive()


def log_uniform(u: float, lo: int, hi: int) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def grid_rounds(rng: random.Random, rounds: int, grid=GRID) -> list[tuple[int, int, int, int]]:
    """``rounds`` passes over the grid, each a random order in which the
    case tags, and refused versus accepted first pairs, are interleaved in
    proportion, so every stretch of the op list has the grid's mix."""
    out = []
    for _ in range(rounds):
        groups: dict = {}
        for params in grid:
            key = (shape(params).case_tag.value, first_pair_increasing(shape(params)))
            groups.setdefault(key, []).append(params)
        for members in groups.values():
            rng.shuffle(members)
        taken = dict.fromkeys(groups, 0)
        for _ in range(len(grid)):
            key = min(
                (k for k in groups if taken[k] < len(groups[k])),
                key=lambda k: ((taken[k] + 0.5) / len(groups[k]), k),
            )
            out.append(groups[key][taken[key]])
            taken[key] += 1
    return out


def frontier_width(n: int, system: AffineSystem) -> int:
    """Largest number of positions the enumeration oracle must remember at
    once on the window {1..n}: for each in-window pair, the earlier member
    waits until the later one is reached."""
    p, q, a, b = system.p, system.q, system.a, system.b
    until = {}
    k = system.k_min
    while p * k + a <= n:
        u, v = p * k + a, q * k + b
        if v <= n and u != v:
            lo, hi = min(u, v), max(u, v)
            until[lo] = max(until.get(lo, 0), hi)
        k += 1
    delta = [0] * (n + 2)
    for lo, hi in until.items():
        delta[lo] += 1
        delta[hi] -= 1
    width = live = 0
    for t in range(1, n + 1):
        live += delta[t]
        width = max(width, live)
    return width


def verify_window(target: int, system: AffineSystem) -> int:
    """Largest window <= target whose enumeration stays within
    VERIFY_STATE_STEPS (the width grows with the window)."""
    def fits(n):
        return system.m ** (frontier_width(n, system) + 1) * n <= VERIFY_STATE_STEPS

    lo, hi = VERIFY_MAX_N[0], target
    if fits(hi):
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _system(params, matrix) -> System:
    p, q, a, b = params
    flat = "".join("".join(map(str, r)) for r in matrix)
    return System(f"s{p}{q}{a}{b}_{len(matrix)}_{flat}", validate_system(*params, matrix))


def build(name: str, seed: int) -> Workload:
    """The workload's op list and input files, a pure function of the seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"affdim-bench:{name}:{seed}")
    make_ops = {
        "census": _census,
        "montecarlo": _montecarlo,
        "dimensions": _dimensions,
        "verify": _verify,
    }[name]
    ops, extra_files = make_ops(rng)
    files = {
        f"{s.key}.json": json.dumps(s.affine.to_json_dict(), sort_keys=True)
        for s in _unique(ops)
    }
    files.update(extra_files)
    return Workload(name=name, seed=seed, ops=ops, files=files)


def _unique(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.system.key, op.system)
    return seen.values()


def _census(rng):
    # sweep over two window sizes per op, log-uniform over CENSUS_N
    halton = Halton(rng)
    ops = [Op("sweep", _system(PEAK_MEMORY_PARAMS, GOLDEN), CENSUS_N[1], {"n_grid": list(CENSUS_N)})]
    for i, params in enumerate(grid_rounds(rng, GRID_PASSES["census"], LARGE_WINDOW_GRID)):
        system = _system(params, random_matrix(rng, i))
        grid = sorted({log_uniform(u, *CENSUS_N) for u in halton.draw(stratum(system))})
        ops.append(Op("sweep", system, max(grid), {"n_grid": grid}))
    return ops, {}


def _montecarlo(rng):
    # groups of (sample, score of that sample, billingsley) on one system,
    # so an input the library refuses removes whole groups and the kinds of
    # the ops that succeed stay in equal shares; the score op replays the
    # prefix the sample op just printed
    halton = Halton(rng)
    ops = []
    for i, params in enumerate(grid_rounds(rng, GRID_PASSES["montecarlo"], LARGE_WINDOW_GRID)):
        system = _system(params, random_matrix(rng, i))
        n_s, n_b = (log_uniform(u, *MONTECARLO_N) for u in halton.draw(stratum(system)))
        ops.append(Op("sample", system, n_s, {"n": n_s, "seed": rng.randrange(1 << 31)}))
        ops.append(Op("score", system, n_s, {"n": n_s}))
        ops.append(
            Op(
                "billingsley",
                system,
                n_b,
                {"n": n_b, "samples": BILLINGSLEY_SAMPLES, "seed": rng.randrange(1 << 31)},
            )
        )
    return ops, {}


def _dimensions(rng):
    ops = []
    for i, params in enumerate(grid_rounds(rng, GRID_PASSES["dimensions"])):
        # tolerance alternates with period 2 and matrix size with period 5
        ops.append(Op("dim", _system(params, random_matrix(rng, i)), 0, {"tol": DIM_TOLS[i % 2]}))
    return ops, {}


def _verify(rng):
    # round-robin over four kinds: verify, count, higher-order, entropy
    halton = Halton(rng, bases=(2,))
    general = [g for g in GRID if shape(g).case_tag is CaseTag.DIVISIBLE_GENERAL]
    passes = GRID_PASSES["verify"]
    large = iter(grid_rounds(rng, -(-passes * len(GRID) // (4 * len(LARGE_WINDOW_GRID))),
                             LARGE_WINDOW_GRID))
    ops, files = [], {}
    for i, params in enumerate(grid_rounds(rng, passes)):
        if i % 4 == 1:
            params = next(large)
        system = _system(params, random_matrix(rng, i // 4))
        kind = i % 4
        if kind == 0:
            max_n = verify_window(rng.randint(*VERIFY_MAX_N), system.affine)
            ops.append(Op("verify", system, max_n, {"max_n": max_n}))
        elif kind == 1:
            n = log_uniform(halton.draw(stratum(system))[0], *COUNT_N)
            ops.append(Op("count", system, n, {"n": n}))
        elif kind == 2:
            m = system.m
            small = min(14, int(math.log(HIGHER_ORDER_WORDS) / math.log(m)))
            words = forbidden_words(rng, m)
            fname = f"forbidden_{m}_{'-'.join(words)}.json"
            files[fname] = json.dumps({"words": words})
            grid = [max(small, params[1]), 1000, 100000]
            ops.append(
                Op(
                    "higher-order",
                    system,
                    small,
                    {"f": "k^2", "forbidden": fname, "n_grid": grid, "max_enumeration": small},
                )
            )
        else:
            general_system = _system(rng.choice(general), system.rows)
            # the matrix slot steps with every entropy op and the length
            # every fifth, so each length meets every matrix size
            length = ENTROPY_LENGTHS[(i // 20) % len(ENTROPY_LENGTHS)]
            ops.append(Op("entropy", general_system, length, {"length": length}))
    return ops, files


def forbidden_words(rng: random.Random, m: int) -> list[str]:
    """One to three words of length 3, never all m completions of one pair,
    so the projected pair matrix stays irreducible and the input is valid."""
    words: set[str] = set()
    for _ in range(rng.randint(1, 3)):
        word = "".join(str(rng.randrange(m)) for _ in range(3))
        if sum(w[:2] == word[:2] for w in words | {word}) < m:
            words.add(word)
    return sorted(words)


def write_inputs(workload: Workload, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, content in workload.files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(content)


def validate_inputs(workload: Workload, directory: str) -> None:
    """Load every system file through the library's validation."""
    from affdim import load_system

    for system in workload.systems:
        load_system(os.path.join(directory, f"{system.key}.json"))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="generate and validate one workload's inputs")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    workload = build(args.workload, args.seed)
    write_inputs(workload, args.dir)
    validate_inputs(workload, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
