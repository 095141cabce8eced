"""Per-layer tracing from outside the library.

The recorder wraps the public entry points of each ``affdim`` module (one
layer per module) for the length of a traced run and restores them after.
Each wrapper is a span: it adds its self time (duration minus the spans it
called) to its name, counts calls and exceptions, and feeds a few counters.
Spans are aggregated in memory as they close; nothing is written until the
run ends.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "core", "lattice", "minkowski", "hausdorff", "measures", "oracle", "higher_order")


def _n_of(args, kwargs):
    return kwargs.get("n", args[0] if args else 0)


#: span name -> (module, attribute path, counter name, counter update)
SPANS = (
    ("cli.self", "cli", "main", None, None),
    ("core.validate", "core", "validate_system", None, None),
    ("core.power_sum", "core", "TransitionMatrix.power_sum", None, None),
    ("lattice.census", "lattice", "empirical_census", "lattice.census_positions",
     lambda a, k, r: _n_of(a, k)),
    ("lattice.decompose", "lattice", "decompose", "lattice.chains", lambda a, k, r: len(r.chains)),
    ("lattice.density", "lattice", "chain_density", None, None),
    ("lattice.density", "lattice", "weighted_extra_census_tail", None, None),
    ("minkowski.dimension", "minkowski", "dimension", "minkowski.series_terms",
     lambda a, k, r: r.truncation_index),
    ("minkowski.count", "minkowski", "pattern_count_exact", None, None),
    ("minkowski.count", "minkowski", "empirical_dimension", None, None),
    ("hausdorff.dimension", "hausdorff", "dimension", "hausdorff.series_terms",
     lambda a, k, r: r.truncation_index),
    ("hausdorff.chain_potential", "hausdorff", "chain_potential", None, None),
    ("hausdorff.fixed_point", "hausdorff", "power_fixed_point", "hausdorff.fixed_point_iterations",
     lambda a, k, r: r.iterations),
    ("measures.build", "measures", "PrefixMeasure.__init__", None, None),
    ("measures.draw", "measures", "PrefixMeasure.sample", None, None),
    ("measures.score", "measures", "PrefixMeasure.neg_log_prob", None, None),
    ("oracle.enumerate", "oracle", "brute_force_count", None, None),
    ("oracle.enumerate", "oracle", "brute_force_counts_upto", None, None),
    ("oracle.entropy_opt", "oracle", "maximize_chain_entropy", None, None),
    ("higher_order.self", "higher_order", "parse_growth", None, None),
    ("higher_order.self", "higher_order", "affected_density", None, None),
    ("higher_order.self", "higher_order", "dim_gap_empirical", None, None),
)

#: spans whose return value can report a failure without raising
FAILED_RESULT = {"cli.self": lambda exit_code: exit_code != 0}

#: per-layer metrics a traced run reports, with their units
PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [
        ("cli.self_s", "s"),
        ("core.validate_s", "s"),
        ("core.power_sum_s", "s"),
        ("core.power_sum_calls", "count"),
        ("lattice.census_s", "s"),
        ("lattice.census_positions", "count"),
        ("lattice.census_peak_mb", "MB"),
        ("lattice.decompose_s", "s"),
        ("lattice.chains", "count"),
        ("lattice.density_s", "s"),
        ("minkowski.dimension_s", "s"),
        ("minkowski.series_terms", "count"),
        ("minkowski.count_s", "s"),
        ("hausdorff.dimension_s", "s"),
        ("hausdorff.series_terms", "count"),
        ("hausdorff.chain_potential_s", "s"),
        ("hausdorff.chain_potential_calls", "count"),
        ("hausdorff.fixed_point_s", "s"),
        ("hausdorff.fixed_point_iterations", "count"),
        ("measures.build_s", "s"),
        ("measures.build_peak_mb", "MB"),
        ("measures.draw_s", "s"),
        ("measures.draws", "count"),
        ("measures.score_s", "s"),
        ("oracle.enumerate_s", "s"),
        ("oracle.entropy_opt_s", "s"),
        ("higher_order.self_s", "s"),
        ("setup.import_s", "s"),
        ("setup.mpmath_import_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _resolve(module_name: str, path: str):
    owner = sys.modules[f"affdim.{module_name}"]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _patch(owner, attr: str, make_wrapper):
    """Replace a function everywhere affdim binds it; returns an undo."""
    original = owner.__dict__[attr]
    wrapper = make_wrapper(original)
    undo = []
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        undo.append((owner, attr, original))
    else:
        for name, module in list(sys.modules.items()):
            if name != "affdim" and not name.startswith("affdim."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append((module, key, original))

    def restore():
        for target, key, value in undo:
            setattr(target, key, value)

    return restore


class _Wrapping:
    """Context manager that wraps library functions while it is open."""

    def wrappers(self):
        """Yield (module, attribute path, wrapper factory) triples."""
        raise NotImplementedError

    def __enter__(self):
        self._restore = [_patch(*_resolve(module, path), make)
                         for module, path, make in self.wrappers()]
        return self

    def __exit__(self, *exc):
        for restore in reversed(self._restore):
            restore()
        return False


class Recorder(_Wrapping):
    """Aggregated spans: self time, calls and errors per span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack: list[list[float]] = []

    def _wrap(self, name, counter, update):
        stack = self._stack
        failed = FAILED_RESULT.get(name)

        def make(fn):
            def span(*args, **kwargs):
                children = [0.0]
                stack.append(children)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.errors[name] += 1
                    raise
                finally:
                    duration = time.perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    self.self_s[name] += duration - children[0]
                    self.calls[name] += 1
                if counter:
                    self.counters[counter] += update(args, kwargs, result)
                if failed is not None and failed(result):
                    self.errors[name] += 1
                return result

            return span

        return make

    def wrappers(self):
        for name, module, path, counter, update in SPANS:
            yield module, path, self._wrap(name, counter, update)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            out[f"{layer}.errors"] = sum(self.errors[n] for n in names)
        for name in {span[0] for span in SPANS}:
            out[f"{name}_s"] = self.self_s.get(name, 0.0)
        out["core.power_sum_calls"] = self.calls.get("core.power_sum", 0)
        out["hausdorff.chain_potential_calls"] = self.calls.get("hausdorff.chain_potential", 0)
        out["measures.draws"] = self.calls.get("measures.draw", 0)
        for counter in ("lattice.census_positions", "lattice.chains", "minkowski.series_terms",
                        "hausdorff.series_terms", "hausdorff.fixed_point_iterations"):
            out[counter] = self.counters.get(counter, 0)
        return out


class PeakMemory(_Wrapping):
    """tracemalloc peaks around the census and the sampler build.

    Kept apart from the timing spans because tracing allocations slows the
    Python chain walk several-fold.
    """

    TARGETS = (
        ("lattice.census_peak_mb", "lattice", "empirical_census"),
        ("measures.build_peak_mb", "measures", "PrefixMeasure.__init__"),
    )

    def __init__(self):
        self.peaks = {name: 0.0 for name, _, _ in self.TARGETS}

    def wrappers(self):
        for name, module, path in self.TARGETS:
            yield module, path, self._wrap(name)

    def _wrap(self, name):
        def make(fn):
            def measured(*args, **kwargs):
                if tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.peaks[name] = max(self.peaks[name], peak)

            return measured

        return make


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(src_dir: str, starts: int = 3) -> dict[str, float]:
    """Cumulative import time of affdim and of mpmath, from
    ``python -X importtime`` in fresh interpreters (median of ``starts``)."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    env.pop("AFFDIM_THREADS", None)
    totals = {"affdim": [], "mpmath": []}
    for _ in range(starts):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import affdim"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seen = {}
        for cumulative_us, package in _IMPORTTIME.findall(proc.stderr):
            if package in totals:
                seen[package] = int(cumulative_us) / 1e6
        for package in totals:
            totals[package].append(seen.get(package, 0.0))
    return {
        "setup.import_s": statistics.median(totals["affdim"]),
        "setup.mpmath_import_s": statistics.median(totals["mpmath"]),
    }
