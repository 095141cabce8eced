"""Rewrite the golden reports from the manifest.

Run as ``python tests/golden/rerecord.py``, with no options.  It runs every
entry of ``manifest.txt`` through ``affdim.cli.main`` on this checkout's
sources, from the repository root, and rewrites each ``<name>.out`` whose
bytes moved; an unchanged tree rewrites nothing.

For each dimension report in a ``dim`` JSON report whose value moved, it
prints the old value, the new value and |new - old|, and whether that
distance lies within the old tail_bound plus rounding_bound plus the new
ones: the rule a stated spec change follows.
The reports leave rounding_bound out, so the library's current
rounding_bound for the report's system and tolerance stands in for both.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]


def entries() -> list[tuple[str, list[str]]]:
    """(name, argument list) of each manifest line, split on whitespace as
    bash's ``read -r name args`` splits it; blank lines and comments are
    skipped."""
    lines = (GOLDEN / "manifest.txt").read_text().splitlines()
    return [(fields[0], fields[1:]) for fields in map(str.split, lines)
            if fields and not fields[0].startswith("#")]


def run(args: list[str]) -> tuple[int, str]:
    """The exit code and stdout of ``affdim args``, run in process from the
    repository root."""
    from affdim.cli import main  # after the script has put this checkout's src first

    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(args)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def dimension_reports(report: str) -> dict[str, tuple[dict, dict]]:
    """The dimension report of each kind in a ``dim`` JSON report, with the
    report's configuration."""
    try:
        payload = json.loads(report)
    except ValueError:  # CSV and multi-line reports hold no dimension report
        return {}
    return {kind: (result, payload["config"]) for kind, result in payload.get("results", {}).items()}


def rounding_bound(report: dict, config: dict) -> float:
    from affdim import hausdorff, minkowski, validate_system

    s = config["system"]
    system = validate_system(s["p"], s["q"], s["a"], s["b"], s["matrix"])
    module = {"minkowski": minkowski, "hausdorff": hausdorff}[report["kind"]]
    return module.dimension(system, config["tol"]).rounding_bound


def moved_values(name: str, old: str, new: str) -> None:
    before = dimension_reports(old)
    for kind, (report, config) in dimension_reports(new).items():
        previous = before.get(kind, (report,))[0]
        if previous["value"] == report["value"]:
            continue
        distance = abs(report["value"] - previous["value"])
        allowed = previous["tail_bound"] + report["tail_bound"] + 2 * rounding_bound(report, config)
        print(f"  {name} {kind}: {previous['value']!r} -> {report['value']!r}, "
              f"|new - old| = {distance:.3g}, old and new tail_bound + rounding_bound = "
              f"{allowed:.3g}: {'within' if distance <= allowed else 'NOT within'}")


def main() -> int:
    failed = 0
    for name, args in entries():
        code, out = run(args)
        if code != 0:
            print(f"{name}: affdim {' '.join(args)} exited {code}; {name}.out kept")
            failed += 1
            continue
        path = GOLDEN / f"{name}.out"
        old = path.read_text() if path.exists() else ""
        if out == old:
            continue
        path.write_bytes(out.encode())
        print(f"rewrote {path.relative_to(ROOT)}")
        moved_values(name, old, out)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
