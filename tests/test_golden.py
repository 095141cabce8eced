"""Every pinned CLI report, byte for byte.

Each entry of ``tests/golden/manifest.txt`` runs in process through
``cli.main`` and must exit 0 with the stdout held in
``tests/golden/<name>.out``; a mismatch prints a unified diff.  CI runs the
same manifest with the installed ``affdim`` script.  After a stated spec
change, ``python tests/golden/rerecord.py`` rewrites the files.
"""

import difflib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "golden"))
from rerecord import GOLDEN, entries, run  # noqa: E402

ENTRIES = entries()


@pytest.mark.parametrize(("name", "args"), ENTRIES, ids=[name for name, _ in ENTRIES])
def test_report_bytes(name, args):
    code, out = run(args)
    assert code == 0
    expected = (GOLDEN / f"{name}.out").read_bytes()
    if out.encode() != expected:
        diff = difflib.unified_diff(expected.decode().splitlines(keepends=True),
                                    out.splitlines(keepends=True), f"{name}.out", "stdout")
        pytest.fail("".join(diff), pytrace=False)


def test_manifest_names_each_file_once():
    names = [name for name, _ in ENTRIES]
    arg_lists = {tuple(args) for _, args in ENTRIES}
    assert len(set(names)) == len(names)
    assert len(arg_lists) == len(ENTRIES)
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == sorted(names)
