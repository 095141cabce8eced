"""Command-line entry point.

Reads and validates a system description from JSON once, runs one of the
subcommands on it, and emits machine-readable reports (JSON, or CSV for
tables).  Every command hands its fields or its table to one writer,
``_writer``, which adds the command name, the resolved configuration and
the library version, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 validation or input error or a stdout pipe closed
by its reader, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys as _sys
from decimal import Decimal, InvalidOperation

from . import __version__, hausdorff, higher_order, measures, minkowski, oracle
from .core import AffineSystem, InvalidSystemError, NumericalError, _read_json, load_system
from .lattice import decompose


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _writer(args: argparse.Namespace, system: AffineSystem):
    """The command's report writer.  The configuration is resolved once: the
    version, the system and the command's options.  ``write(fields)`` emits
    one JSON line of the command name, the configuration and the fields;
    ``write(header, rows)`` prints a comment line of the program, version,
    command and configuration, then the CSV header and rows."""
    config = {"version": __version__, "system": system.to_json_dict()}
    for key in ("kind", "tol", "n", "seed", "samples", "max_n", "format"):
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)

    def write(report, rows=None) -> None:
        if rows is None:
            _emit({"command": args.command, "config": config, **report})
            return
        print("# affdim", __version__, args.command, json.dumps(config, sort_keys=True))
        print(report, *rows, sep="\n")

    return write


def _parse_grid(text: str) -> list[int]:
    grid = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        # Decimal reads the entry exactly, where float() would round past
        # 2**53, and keeps its exponent apart, so 1e999999999 is read at once;
        # it refuses exponents past about 10^18, so one of 10^9 or more is
        # read as 999999999, which leaves the entry as far past the float
        # range, or below 1; no "p/q" form, and Decimal's own refusal of
        # "abc" is not shown
        try:
            value = Decimal(re.sub(r"([eE][+-]?)0*[1-9][0-9]{9,}$", r"\g<1>999999999", part))
        except InvalidOperation:
            value = Decimal("nan")
        if value.is_finite() and math.isinf(float(value)):
            raise InvalidSystemError(f"grid entry {part!r} is past the float range")
        if not value.is_finite() or value < 1 or value != value.to_integral_value():
            raise InvalidSystemError(f"grid entries must be positive integers, got {part!r}")
        grid.append(int(value))
    if not grid:
        raise InvalidSystemError("empty size grid")
    return grid


def cmd_dim(args, system: AffineSystem, write) -> None:
    results = {}
    if args.kind in ("minkowski", "both"):
        results["minkowski"] = minkowski.dimension(system, args.tol).to_dict()
    if args.kind in ("hausdorff", "both"):
        report = hausdorff.dimension(system, args.tol)
        results["hausdorff"] = report.to_dict()
    if args.format == "json":
        write({"results": results})
        return
    write(
        "kind,value,case,truncation_index,tail_bound,tolerance",
        [
            f"{kind},{rep['value']!r},{rep['case']},{rep['truncation_index']},"
            f"{rep['tail_bound']!r},{rep['tolerance']!r}"
            for kind, rep in results.items()
        ],
    )


def cmd_decompose(args, system: AffineSystem, write) -> None:
    dec = decompose(args.n, system)
    for chain in dec.chains:
        _emit(
            {
                "start": chain.start,
                "positions": list(chain.positions),
                "full_length": "truncated" if chain.truncated else chain.full_length,
            }
        )
    census = dec.census()
    write(
        {
            "census": {
                "L": sorted([i, j, c] for (i, j), c in census.L.items()),
                "D": sorted([j, c] for j, c in census.D.items()),
                "truncated": sorted([j, c] for j, c in census.truncated.items()),
            },
        }
    )


def _printable_log_ratio(n: int, system) -> float:
    """log_m of the window-n pattern count over n, refusing before the count
    is built when Python would not print it; the spare digit covers the
    float error of the estimate."""
    log_ratio = minkowski.empirical_dimension(n, system)
    digits = log_ratio * n * math.log10(system.m)
    # CPython before 3.10.7 has no digit limit, nor the function reading it
    limit = getattr(_sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit + 1:
        raise InvalidSystemError(
            f"the count at n = {n} has about {digits:.4g} decimal digits, "
            f"past the {limit}-digit limit of int-to-string conversion"
        )
    return log_ratio


def cmd_count(args, system: AffineSystem, write) -> None:
    log_ratio = _printable_log_ratio(args.n, system)
    write({"count": minkowski.pattern_count_exact(args.n, system), "log_m_count_over_n": log_ratio})


def cmd_verify(args, system: AffineSystem, write) -> None:
    # refuse what the closed form refuses, or would not print, before the
    # enumeration runs
    _printable_log_ratio(args.max_n, system)
    top = minkowski.pattern_count_exact(args.max_n, system)
    oracle_counts = oracle.brute_force_counts_upto(args.max_n, system)
    formula_counts = minkowski.pattern_counts_upto(args.max_n, system)
    # the running product must reach the census route's count at the top window
    if formula_counts[-1] != top:
        raise NumericalError("running pattern counts disagree with the census count")
    rows = []
    all_equal = True
    for n, formula in enumerate(formula_counts, 1):
        equal = formula == oracle_counts[n - 1]
        all_equal = all_equal and equal
        rows.append(
            {
                "n": n,
                "oracle_count": oracle_counts[n - 1],
                "formula_count": formula,
                "equal": equal,
            }
        )
    # the report is written before a mismatch is raised
    write({"rows": rows, "all_equal": all_equal})
    if not all_equal:
        raise NumericalError("pattern-count formula disagrees with enumeration")


def cmd_sample(args, system: AffineSystem, write) -> None:
    import numpy as np

    if system.m > 10:
        raise InvalidSystemError(
            f"sample prints one digit per letter, so it needs m <= 10, got m = {system.m}"
        )
    pm = measures.PrefixMeasure(system, args.n)
    letters, neg_log2 = pm.sample(np.random.default_rng(args.seed))
    print((letters + ord("0")).astype(np.uint8).tobytes().decode())  # m <= 10: one digit each
    write({"neg_log_prob_per_n": neg_log2 / (args.n * float(np.log2(system.m)))})


def cmd_billingsley(args, system: AffineSystem, write) -> None:
    mean, stderr = measures.empirical_local_dimension(system, args.n, args.seed, args.samples)
    write({"mean": mean, "stderr": stderr})


def cmd_sweep(args, system: AffineSystem, write) -> None:
    grid = _parse_grid(args.n_grid)
    if args.kind == "hausdorff":
        raise InvalidSystemError(
            "sweep compares empirical pattern counts, which estimate the "
            "Minkowski dimension; use --kind minkowski"
        )
    closed = minkowski.dimension(system, args.tol).value
    header = "n,empirical,closed_form,gap"
    rows = []
    for n in grid:
        emp = minkowski.empirical_dimension(n, system)
        rows.append((n, emp, closed, abs(emp - closed)))
    if args.format == "json":
        write({"rows": [dict(zip(header.split(","), row)) for row in rows]})
        return
    write(header, [",".join(map(repr, row)) for row in rows])


def cmd_higher_order(args, system: AffineSystem, write) -> None:
    data = _read_json(args.forbidden, "forbidden-word")
    if not isinstance(data, dict) or not isinstance(data.get("words"), list):
        raise InvalidSystemError('forbidden-word file must be {"words": [...]} ')
    for w in data["words"]:
        # one ASCII digit per letter; str.isdigit would also take other scripts' digits
        if not (isinstance(w, str) and re.fullmatch("[0-9]+", w)):
            raise InvalidSystemError(
                f"forbidden word {json.dumps(w, ensure_ascii=False)} in {args.forbidden} "
                "is not a string of the digits 0-9"
            )
    words = frozenset(tuple(map(int, w)) for w in data["words"])
    maps = tuple(higher_order.parse_growth(text) for text in args.f or [])
    hos = higher_order.HigherOrderSystem(base=system, forbidden=words, growth_maps=maps)
    rows = []
    # every row is computed before any is printed, so a refusal prints none
    for n in _parse_grid(args.n_grid):
        measured, bound = higher_order.affected_density(n, hos)
        gap = repr(higher_order.dim_gap_empirical(n, hos)) if n <= args.max_enumeration else ""
        rows.append(f"{n},{measured!r},{bound!r},{gap}")
    write("n,measured,bound,empirical_gap", rows)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing neither changes
    it nor shares state between calls."""
    parser = argparse.ArgumentParser(
        prog="affdim",
        description="Minkowski and Hausdorff dimensions of affine multiplicative subshifts",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("system", help="JSON system description")
        return p

    p = add("dim", cmd_dim, help="dimension report")
    p.add_argument("--kind", choices=("minkowski", "hausdorff", "both"), default="both")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("decompose", cmd_decompose, help="chain decomposition as JSON lines")
    p.add_argument("--n", type=int, required=True)

    p = add("count", cmd_count, help="exact window pattern count")
    p.add_argument("--n", type=int, required=True)

    p = add("verify", cmd_verify, help="enumeration vs formula for all small windows")
    p.add_argument("--max-n", dest="max_n", type=int, default=14)

    p = add("sample", cmd_sample, help="draw an admissible prefix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("billingsley", cmd_billingsley, help="Monte Carlo local dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = add("sweep", cmd_sweep, help="empirical vs closed form over window sizes (CSV)")
    p.add_argument("--kind", choices=("minkowski", "hausdorff"), default="minkowski")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--n-grid", dest="n_grid", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("higher-order", cmd_higher_order, help="vanishing-density table (CSV)")
    p.add_argument("--f", action="append", help="growth map such as k^2 (repeatable)")
    p.add_argument("--forbidden", required=True, help='JSON file {"words": ["110", ...]}')
    p.add_argument("--n-grid", dest="n_grid", required=True)
    p.add_argument(
        "--max-enumeration",
        dest="max_enumeration",
        type=int,
        default=20,
        help="largest n for which the exact count gap is computed",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        system = load_system(args.system)
        args.fn(args, system, _writer(args, system))
        _sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is left in the buffer goes to the
        # null device when the interpreter flushes it at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        return 1
    except (InvalidSystemError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except MemoryError:
        print("error: the window needs more memory than is available", file=_sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
