"""affdim benchmark: seeded workloads driven through ``affdim.cli.main``.

    python3 perfbench/run.py --workload census --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

Each run is a closed loop with a single client in one process: the next
operation starts when the previous one returns.  A run executes a fixed
number of seeded ops, ``--seconds`` times the workload's op rate on the
reference machine (OPS_PER_SECOND), so it measures about ``--seconds``
seconds of work and the same seed always runs the same ops: the attempted
and failed counts are a function of the seed, not of the machine's speed.  Op times are wall times scaled to a fixed reference speed
by a library-free probe timed between ops (see speed.py), and latencies
are Harrell-Davis quantiles, so the noise of a shared machine moves the
figures as little as it can.  The raw wall-clock figures are printed as
comments and kept in the result file.  ``AFFDIM_THREADS`` is removed from
the environment, so the library runs with its default of one thread.
Outputs are checked after the timed phase; an op that exits nonzero,
raises or fails its check counts as failed and earns no throughput credit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays a fixed
number of ops twice, untraced and then with every layer wrapped in spans,
and reports the per-layer metrics plus the tracing overhead.  The last
stdout line is one JSON object; a copy of the full result, with the machine
description, is written under ``perfbench/.work/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

if not os.path.isfile(os.path.join(SRC, "affdim", "__init__.py")):
    sys.exit(f"benchmark error: no affdim sources under {SRC}")
sys.path.insert(0, SRC)
import affdim.cli  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(affdim.__file__))) != SRC:
    sys.exit(f"benchmark error: imported affdim from {affdim.__file__}, not from {SRC}")

import workloads  # noqa: E402 - sibling module of this script
from speed import SpeedProbe  # noqa: E402

#: fresh interpreters timed per run for setup_s (the median is reported)
SETUP_STARTS = 5
#: speed probes timed before and again after each of them
SETUP_PROBES = 3
#: the speed probe that matches each workload's kind of work (see speed.py)
PROBE = {"census": "numpy", "montecarlo": "mixed", "dimensions": "mixed", "verify": "mixed"}
#: ops a run executes per second of --seconds.  The rates are near the
#: median ops per wall-clock second over seeds 401-410 on a 2-core x86-64
#: VM (Python 3.11: census 13.5, montecarlo 22, dimensions 78, verify 72),
#: set so that a run of --seconds 18 makes whole passes over the grid:
#: census 261 ops (the opening op and one pass), dimensions and verify
#: 1440 (five passes), so the systems a run meets vary less with the seed
#: (on census, every system once).  A montecarlo pass (780 ops) is longer
#: than a run.
OPS_PER_SECOND = {"census": 14.5, "montecarlo": 22.0, "dimensions": 80.0, "verify": 80.0}
#: a timed phase stops early, with fewer ops, once it has run this many
#: times --seconds (at most MAX_TIMED_S), so that a run of a much slower
#: library still ends within its time limit
TIME_LIMIT_FACTOR = 4
MAX_TIMED_S = 120.0
#: ops replayed by a traced run, about four seconds of work each
TRACE_OPS = {"census": 30, "montecarlo": 36, "dimensions": 300, "verify": 400}
#: op kinds that reach the census or the sampler build
MEMORY_KINDS = {"sweep", "count", "verify", "sample", "score", "billingsley"}
LIBRARY_OPS = {"score", "entropy"}

END_TO_END = (
    ("ok_ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class OpResult:
    kind: str
    rc: int | None
    elapsed: float
    start: float = 0.0
    scaled: float = 0.0  # elapsed scaled to the reference machine speed
    stdout: str | None = None
    value: float | None = None
    error: str = ""
    check_error: str = ""

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.check_error


def machine() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "AFFDIM_THREADS": "unset",
    }


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("AFFDIM_THREADS", None)
    return env


def time_setup(name: str, seed: int, directory: str, probe: SpeedProbe) -> tuple[float, float]:
    """Wall time of one fresh interpreter importing affdim, generating the
    workload's inputs from the seed and validating them, raw and scaled by
    the median of SETUP_PROBES probes timed just before and just after."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
           "--seed", str(seed), "--dir", directory]
    around = [probe.tick(force=True) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    around += [probe.tick(force=True) for _ in range(SETUP_PROBES)]
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up failed: {proc.stderr.strip()}")
    return elapsed, elapsed * probe.reference / statistics.median(around)


class Runner:
    """Executes ops in process, through the CLI or the library."""

    def __init__(self, directory: str):
        self.directory = directory
        self.last_prefix: tuple[str, int, str] | None = None

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def argv(self, op) -> list[str]:
        a = op.args
        system = self.path(f"{op.system.key}.json")
        if op.kind == "sweep":
            return ["sweep", "--kind", "minkowski", "--n-grid",
                    ",".join(map(str, a["n_grid"])), system]
        if op.kind == "sample":
            return ["sample", "--n", str(a["n"]), "--seed", str(a["seed"]), system]
        if op.kind == "billingsley":
            return ["billingsley", "--n", str(a["n"]), "--samples", str(a["samples"]),
                    "--seed", str(a["seed"]), system]
        if op.kind == "dim":
            return ["dim", "--kind", "both", "--tol", repr(a["tol"]), system]
        if op.kind == "verify":
            return ["verify", "--max-n", str(a["max_n"]), system]
        if op.kind == "count":
            return ["count", "--n", str(a["n"]), system]
        if op.kind == "higher-order":
            return ["higher-order", "--f", a["f"], "--forbidden", self.path(a["forbidden"]),
                    "--n-grid", ",".join(map(str, a["n_grid"])),
                    "--max-enumeration", str(a["max_enumeration"]), system]
        raise ValueError(f"no CLI form for op kind {op.kind!r}")

    def _score(self, op) -> float:
        """Library scoring of the prefix the preceding sample op printed."""
        import numpy as np

        if self.last_prefix is None or self.last_prefix[:2] != (op.system.key, op.args["n"]):
            raise BenchmarkError("no sampled prefix to score")
        word = np.frombuffer(self.last_prefix[2].encode(), dtype=np.uint8) - ord("0")
        system = affdim.load_system(self.path(f"{op.system.key}.json"))
        return affdim.measures.PrefixMeasure(system, op.args["n"]).neg_log_prob(word)

    def _entropy(self, op) -> float:
        system = affdim.load_system(self.path(f"{op.system.key}.json"))
        i = op.args["length"]
        weights = [affdim.lattice.chain_density(i, j, system) for j in range(1, i + 1)]
        return affdim.oracle.maximize_chain_entropy(i, weights, system.matrix)[0]

    def run(self, op) -> OpResult:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        result = OpResult(kind=op.kind, rc=None, elapsed=0.0, start=start)
        try:
            if op.kind in LIBRARY_OPS:
                result.value = getattr(self, "_" + op.kind)(op)
                result.rc = 0
            else:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    result.rc = affdim.cli.main(self.argv(op))
        except SystemExit as exc:  # argparse rejects its arguments
            result.rc = exc.code if isinstance(exc.code, int) and exc.code else 2
            result.error = err.getvalue().strip().splitlines()[-1:] or ["usage error"]
            result.error = result.error[0]
        except Exception as exc:  # an uncaught exception is a failed op
            result.error = f"{type(exc).__name__}: {exc}"
        result.elapsed = time.perf_counter() - start
        result.stdout = out.getvalue()
        if result.rc not in (0, None) and not result.error:
            lines = err.getvalue().strip().splitlines()
            result.error = lines[-1] if lines else f"exit code {result.rc}"
        if op.kind == "sample":
            prefix = result.stdout.split("\n", 1)[0] if result.rc == 0 else ""
            self.last_prefix = (op.system.key, op.args["n"], prefix) if prefix else None
        return result


def warm_up_ops(ops) -> list[int]:
    """The smallest op of each kind (a score op with the sample it scores),
    run once before timing so that first-call costs stay out of the timed
    phase."""
    smallest = {}
    for i, op in enumerate(ops):
        if op.kind not in smallest or op.size < ops[smallest[op.kind]].size:
            smallest[op.kind] = i
    picks = set(smallest.values())
    picks |= {i - 1 for i in picks if ops[i].kind == "score"}
    return sorted(picks)


def run_ops(runner: Runner, ops, count: int, *, limit: float | None = None,
            probe: SpeedProbe | None = None):
    """Closed loop over the first ``count`` ops of the list (it wraps round
    if the list is shorter), stopping early once ``limit`` seconds have
    passed; returns ([(index, OpResult)], wall).  With a probe, every op's
    time is also scaled to the reference speed."""
    records = []
    start = time.perf_counter()
    for i in range(count):
        if limit is not None and time.perf_counter() - start > limit:
            break
        if probe is not None:
            probe.tick()
        index = i % len(ops)
        records.append((index, runner.run(ops[index])))
    wall = time.perf_counter() - start
    if probe is not None:
        probe.tick(force=True)
        probe.tick(force=True)
        for _, result in records:
            result.scaled = probe.scale(result.elapsed, result.start)
    return records, wall


def check_outputs(workload, records, runner: Runner) -> dict[int, OpResult]:
    """Check the first output of every op reached; a repeat of an op must
    reproduce it.  Marks failures on the records in place."""
    from checks import CheckFailure, Checker

    loaded = {}

    def load(system):
        if system.key not in loaded:
            loaded[system.key] = affdim.load_system(runner.path(f"{system.key}.json"))
        return loaded[system.key]

    first: dict[int, OpResult] = {}
    for index, result in records:
        earlier = first.get(index)
        if earlier is None:
            first[index] = result
        elif result.rc == 0 and (result.stdout, result.value) != (earlier.stdout, earlier.value):
            result.check_error = "output differs from an earlier run of the same op"
    checker = Checker(load, workload.files)
    for index, result in first.items():
        if result.rc != 0:
            continue
        try:
            checker.check(workload.ops[index], result, first, index)
        except CheckFailure as exc:
            result.check_error = str(exc)
        except Exception as exc:  # malformed output breaks the check itself
            result.check_error = f"check raised {type(exc).__name__}: {exc}"
    for index, result in records:
        result.check_error = result.check_error or first[index].check_error
    return first


def failure_reasons(records) -> dict[str, dict]:
    """Failed ops grouped by message with the numbers masked, each with
    its count and one unmasked example."""
    reasons: dict[str, dict] = {}
    for _, r in records:
        if not r.ok:
            text = f"{r.kind}: {r.check_error or r.error or f'exit code {r.rc}'}"
            masked = re.sub(r"[0-9]+", "#", text)[:160]
            entry = reasons.setdefault(masked, {"count": 0, "example": text})
            entry["count"] += 1
    return dict(sorted(reasons.items(), key=lambda kv: -kv[1]["count"]))


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, with weights from Beta(p(n+1), (1-p)(n+1)), so the
    timing noise of the one or two ops at the quantile's rank is averaged
    out."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n, k = len(x), 64
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (np.arange(n * k) + 0.5) / (n * k)  # midpoints, k per order statistic
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, k).sum(axis=1)
    return float(weights @ x / weights.sum())


def end_to_end(records, setup: list[tuple[float, float]], rss_mb: float):
    """Throughput divides the ops that succeeded by the time of all ops,
    failed ones included; latencies are those of the ops that succeeded.
    Returns the metrics in scaled time (see speed.py), their sample counts
    and the same figures in raw wall-clock time."""
    results = [r for _, r in records]
    ok = sum(r.ok for r in results)
    if ok < 2:
        raise BenchmarkError(f"only {ok} ops succeeded; no latency percentiles")

    def figures(clock, setup_times):
        ok_times = [clock(r) for r in results if r.ok]
        return {
            "ok_ops_per_s": ok / sum(map(clock, results)),
            "op_p50_s": harrell_davis(ok_times, 0.5),
            "op_p90_s": harrell_davis(ok_times, 0.9),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_times),
        }

    values = figures(lambda r: r.scaled, [scaled for _, scaled in setup])
    raw = figures(lambda r: r.elapsed, [elapsed for elapsed, _ in setup])
    samples = {
        "ok_ops_per_s": f"{len(results)} ops",
        "op_p50_s": f"{ok} ok ops",
        "op_p90_s": f"{ok} ok ops",
        "peak_rss_mb": "1 process",
        "setup_s": f"{len(setup)} starts",
    }
    return values, samples, raw


def traced(runner: Runner, ops, count: int):
    """Untraced and traced replays of the same ops, then a memory pass."""
    from tracing import PeakMemory, Recorder, import_times

    _, wall_plain = run_ops(runner, ops, count)
    with Recorder() as recorder:
        records, wall_traced = run_ops(runner, ops, count)
    metrics = recorder.metrics()
    memory_ops = sorted(
        (i for i in range(count) if ops[i].kind in MEMORY_KINDS),
        key=lambda i: -ops[i].size,
    )[:3]
    with PeakMemory() as memory:
        for i in sorted(set(memory_ops) | {i - 1 for i in memory_ops if ops[i].kind == "score"}):
            runner.run(ops[i])
    metrics.update(memory.peaks)
    metrics.update(import_times(SRC))
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    return records, metrics


def report(name, args, info, records, metrics, units, samples, raw, phases) -> dict:
    attempted = len(records)
    failed = sum(1 for _, r in records if not r.ok)
    reasons = failure_reasons(records)
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"loop=closed clients=1 processes=1")
    for key, value in metrics.items():
        extra = f"  (samples={samples[key]})" if key in samples else ""
        print(f"{key:36s} {value!r:>24} {units[key]}{extra}")
    for key, value in (raw or {}).items():
        print(f"# raw wall-clock {key:20s} {value!r:>24} {units[key]}")
    print("# phase wall times: " + " ".join(f"{k}={v:.1f}s" for k, v in phases.items()))
    print(f"{'failed_frac':36s} {failed / attempted!r:>24} share  ({failed} of {attempted})")
    for reason, entry in reasons.items():
        print(f"#   failed {entry['count']:5d}  {reason}")
    correct = not any(r.check_error for _, r in records)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = dict(result, workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  machine=info, samples=samples, raw_wall_clock=raw, phase_s=phases, failed_frac=failed / attempted,
                  failures=reasons)
    out = os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result


def run_workload(args) -> dict:
    os.environ.pop("AFFDIM_THREADS", None)
    phases, clock = {}, time.perf_counter()

    def phase(label):
        nonlocal clock
        now = time.perf_counter()
        phases[label] = now - clock
        clock = now

    directory = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    setup_probe = SpeedProbe("mixed")
    setup = [time_setup(args.workload, args.seed, directory, setup_probe)
             for _ in range(SETUP_STARTS)]
    phase("setup")

    workload = workloads.build(args.workload, args.seed)
    workloads.write_inputs(workload, directory)
    runner = Runner(directory)
    ops = workload.ops
    for i in warm_up_ops(ops):
        runner.run(ops[i])
    runner.last_prefix = None
    phase("warm_up")

    info = machine()
    raw = None
    if args.trace:
        from tracing import PER_LAYER

        records, metrics = traced(runner, ops, min(TRACE_OPS[args.workload], len(ops)))
        phase("traced")
        check_outputs(workload, records, runner)
        units = dict(PER_LAYER)
        metrics = {k: metrics[k] for k, _ in PER_LAYER}
        samples = {}
    else:
        probe = SpeedProbe(PROBE[args.workload])
        count = max(4, round(args.seconds * OPS_PER_SECOND[args.workload]))
        limit = min(TIME_LIMIT_FACTOR * args.seconds, MAX_TIMED_S)
        records, _ = run_ops(runner, ops, count, limit=limit, probe=probe)
        if len(records) < count:
            print(f"# timed phase stopped after {limit:.0f} s: "
                  f"{len(records)} of {count} ops run", file=sys.stderr)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phase("timed")
        check_outputs(workload, records, runner)
        metrics, samples, raw = end_to_end(records, setup, rss_mb)
        units = dict(END_TO_END)
    phase("check")
    return report(args.workload, args, info, records, metrics, units, samples, raw, phases)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
