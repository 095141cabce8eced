import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import affdim
from affdim import load_system
from affdim.cli import main
from affdim.minkowski import pattern_count_exact
from conftest import wide_irreducible

GOLDEN = ((1, 1), (1, 0))
PRIMITIVE4 = ((0, 1, 1, 0), (1, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 1))


@pytest.fixture()
def golden_12(tmp_path):
    path = tmp_path / "golden_12.json"
    path.write_text(
        json.dumps({"m": 2, "matrix": [[1, 1], [1, 0]], "p": 1, "q": 2, "a": 0, "b": 0})
    )
    return str(path)


@pytest.fixture()
def golden_23(tmp_path):
    path = tmp_path / "golden_23.json"
    path.write_text(
        json.dumps({"m": 2, "matrix": [[1, 1], [1, 0]], "p": 2, "q": 3, "a": 0, "b": 0})
    )
    return str(path)


def system_file(tmp_path, pqab, matrix=GOLDEN) -> str:
    p, q, a, b = pqab
    path = tmp_path / f"system_{p}{q}{a}{b}_{len(matrix)}.json"
    path.write_text(
        json.dumps({"m": len(matrix), "matrix": [list(row) for row in matrix], "p": p, "q": q, "a": a, "b": b})
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_any(capsys, *argv):
    """Like ``run``, but an argparse exit counts as an exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDim:
    def test_both_kinds(self, capsys, golden_12):
        code, out, _ = run(capsys, "dim", "--kind", "both", "--tol", "1e-8", golden_12)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["minkowski"]["value"] == pytest.approx(0.8242936, abs=1e-5)
        assert payload["results"]["hausdorff"]["value"] == pytest.approx(0.8113705, abs=1e-5)
        assert payload["config"]["version"]

    def test_divisible_general_contributions(self, capsys, golden_23):
        code, out, _ = run(capsys, "dim", "--kind", "hausdorff", golden_23)
        assert code == 0
        payload = json.loads(out)
        contribs = payload["results"]["hausdorff"]["contributions"]
        assert contribs[0]["i"] == 2
        # pair potential: golden row sums (2, 1) to the power S2/S1 = (1/9)/(1/6)
        assert contribs[0]["t_phi"] == pytest.approx(2 ** (2 / 3) + 1, abs=1e-10)
        assert all(c["contribution"] > 0 for c in contribs)

    def test_byte_identical_reports(self, capsys, golden_23):
        _, first, _ = run(capsys, "dim", golden_23)
        _, second, _ = run(capsys, "dim", golden_23)
        assert first == second

    def test_validation_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"m": 2, "matrix": [[1, 1], [1, 0]], "p": 4, "q": 2, "a": 0, "b": 0}))
        code, _, err = run(capsys, "dim", str(bad))
        assert code == 1
        assert "p < q" in err

    @pytest.mark.parametrize("kind", ["minkowski", "hausdorff"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exit_code(self, capsys, golden_23, kind, tol):
        code, out, err = run(capsys, "dim", "--kind", kind, "--tol", tol, golden_23)
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        ("pqab", "argv"),
        [((2, 4, 0, 1), ["--tol", "nan"]), ((1, 2, 0, 0), ["--kind", "hausdorff", "--tol", "inf"])],
    )
    def test_non_finite_tolerance_without_a_series(self, capsys, tmp_path, pqab, argv):
        # a closed form and a fixed point: no series loop sees the tolerance
        code, out, err = run(capsys, "dim", *argv, system_file(tmp_path, pqab))
        assert code == 1
        assert out == ""
        assert "positive and finite" in err

    def test_malformed_json_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "dim", str(bad))
        assert code == 1
        assert "malformed" in err

    def test_unknown_field_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "extra.json"
        bad.write_text(
            json.dumps({"m": 2, "matrix": [[1, 1], [1, 0]], "p": 1, "q": 2, "a": 0, "b": 0, "x": 5})
        )
        code, _, err = run(capsys, "dim", str(bad))
        assert code == 1
        assert "unknown" in err


class TestMalformedInput:
    @pytest.mark.parametrize(
        ("system", "forbidden"),
        [
            ("[[1]]", None),
            ("null", None),
            ("5", None),
            ('{"m": 2, "matrix": [1, 1], "p": 1, "q": 2, "a": 0, "b": 0}', None),
            ("directory", None),
            ('{"m": 2, "matrix": [[1, 1], [1, 0]], "p": 1, "q": 2, "a": 0, "b": 0}', '{"words": 5}'),
            ('{"m": 2, "matrix": [[1, 1], [1, 0]], "p": 1, "q": 2, "a": 0, "b": 0}', "directory"),
            ("long-name", None),
            ("under-a-file", None),
            ('{"m": 2, "matrix": [[1, 1], [1, 0]], "p": 1, "q": 2, "a": 0, "b": 0}', "long-name"),
        ],
        ids=[
            "list", "null", "number", "flat-matrix", "directory", "words-number",
            "forbidden-directory", "long-name", "under-a-file", "forbidden-long-name",
        ],
    )
    def test_exits_one_without_traceback(self, tmp_path, system, forbidden):
        def input_path(spec, name):
            # a directory, a 5,000-character file name, a path below a file,
            # or a file holding spec
            if spec == "directory":
                return tmp_path
            if spec == "long-name":
                return tmp_path / ("a" * 5000)
            path = tmp_path / name
            if spec == "under-a-file":
                path.write_text("{}")
                return path / "x"
            path.write_text(spec)
            return path

        path = input_path(system, "system.json")
        if forbidden is None:
            unreadable, argv = path, ["dim", str(path)]
        else:
            unreadable = input_path(forbidden, "words.json")
            argv = ["higher-order", "--forbidden", str(unreadable), "--n-grid", "16", str(path)]
        proc = assert_refused_in_child(*argv)
        if "long-name" in (system, forbidden) or system == "under-a-file":
            assert str(unreadable) in proc.stderr

    def test_sample_refuses_more_than_ten_letters(self, tmp_path):
        # letters >= 10 would print two digits and the prefix line could not
        # be read back
        path = system_file(tmp_path, (1, 2, 0, 0), tuple((1,) * 11 for _ in range(11)))
        assert_refused_in_child("sample", "--n", "20", "--seed", "3", path)

    @pytest.mark.parametrize("pqab", [(10**400, 2 * 10**400, 0, 0), (2 * 10**400, 4 * 10**400, 0, 1),
                                      (1, 10**400, 0, 0), (2, 2 * 10**400, 0, 0)],
                             ids=["degenerate", "non-divisible", "classical-huge-q", "degenerate-huge-q"])
    def test_p_past_the_float_range_reports_one(self, tmp_path, pqab):
        # both dimensions are 1 - O(1/p) or 1 - O(1/q1), which rounds to 1.0;
        # the series reads r = p1/q1 as 0.0 past the float range
        p, q, a, b = pqab
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"m": 2, "matrix": GOLDEN, "p": p, "q": q, "a": a, "b": b}))
        proc = run_in_child("dim", "--kind", "both", str(path))
        assert (proc.returncode, proc.stderr) == (0, "")
        results = json.loads(proc.stdout)["results"]
        assert {kind: r["value"] for kind, r in results.items()} == {"hausdorff": 1.0, "minkowski": 1.0}

    @pytest.mark.parametrize("argv", [["sample", "--n", "100000000000"],
                                      ["billingsley", "--n", "100000000000", "--samples", "2"]],
                             ids=["sample", "billingsley"])
    def test_window_past_the_memory_exits_one(self, golden_23, argv):
        # the child alone is capped at 1 GiB of address space; one BLAS
        # thread keeps numpy's own start-up inside it
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = assert_refused_in_child(*argv, golden_23, env={"OPENBLAS_NUM_THREADS": "1"},
                                       preexec_fn=cap, timeout=120)
        assert "more memory than is available" in proc.stderr

    def test_sample_prints_one_digit_per_letter_on_ten_letters(self, capsys, tmp_path):
        path = system_file(tmp_path, (1, 2, 0, 0), tuple((1,) * 10 for _ in range(10)))
        code, out, _ = run(capsys, "sample", "--n", "20", "--seed", "3", path)
        assert code == 0
        assert len(out.splitlines()[0]) == 20


def run_in_child(*argv, env=(), **kwargs) -> subprocess.CompletedProcess:
    """The CLI in a child process, so that an escaping exception shows as a
    traceback; ``env`` adds variables and ``kwargs`` go to subprocess.run,
    where they may replace the captured stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(affdim.__file__).parents[1]), **dict(env))
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, "-m", "affdim.cli", *argv], text=True, env=env, **options)


def assert_refused_in_child(*argv, **kwargs) -> subprocess.CompletedProcess:
    """Exit 1 with an ``error:`` line, no traceback and no stdout, in a child
    process."""
    proc = run_in_child(*argv, **kwargs)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    return proc


IMPORT_PROBE = """
import contextlib, io, json, sys
from affdim.cli import main
system, words = sys.argv[1:3]
calls = [
    ["dim", "--kind", "both", system],
    ["count", "--n", "500", system],
    ["verify", "--max-n", "10", system],
    ["sweep", "--n-grid", "100,10000", system],
    ["decompose", "--n", "30", system],
    ["higher-order", "--f", "k^2", "--forbidden", words, "--n-grid", "16,1000", system],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
loaded = sorted({"numpy", "mpmath"} & set(sys.modules))
with contextlib.redirect_stdout(io.StringIO()) as out:
    sample_code = main(["sample", "--n", "50", "--seed", "2", system])
import affdim
from affdim import measures
print(json.dumps({"codes": codes, "loaded": loaded, "sample": [sample_code, out.getvalue()],
                  "measures": [affdim.measures is measures, measures.__name__]}))
"""


class TestWideAlphabet:
    """One system per case tag on random irreducible matrices with 48 and
    128 letters: infinite chains read their laws from the level stream, so
    billingsley runs wherever the series does.  At 512 letters the sampler
    stores each stream level's laws once, so it fits a small memory cap."""

    @pytest.mark.parametrize("m", [48, 128])
    @pytest.mark.parametrize("pqab", [(1, 2, 0, 0), (2, 4, 0, 0), (2, 3, 0, 0), (2, 4, 0, 1)])
    def test_dim_and_billingsley(self, capsys, tmp_path, m, pqab):
        path = system_file(tmp_path, pqab, wide_irreducible(m).rows)
        code, out, _ = run(capsys, "dim", "--kind", "both", path)
        assert code == 0
        results = json.loads(out)["results"]
        h, mk = results["hausdorff"]["value"], results["minkowski"]
        assert h <= mk["value"] + mk["tail_bound"]
        code, out, _ = run(capsys, "billingsley", "--n", "1000", "--samples", "4", "--seed", "1", path)
        assert code == 0
        assert abs(json.loads(out)["mean"] - h) <= 0.02
        # sample prints one digit per letter
        code, _, err = run(capsys, "sample", "--n", "50", "--seed", "1", path)
        assert code == 1 and "m <= 10" in err

    def test_wide_window_under_a_memory_limit(self, capsys, tmp_path):
        # the child alone is capped at 768 MiB of address space, and one BLAS
        # thread keeps numpy's own start-up inside it; a law table with one
        # m x m block per (family, level) pair needs more at m = 512, one
        # block per stream level does not
        path = system_file(tmp_path, (2, 3, 0, 0), wide_irreducible(512).rows)
        code, out, _ = run(capsys, "dim", "--kind", "hausdorff", path)
        assert code == 0
        h = json.loads(out)["results"]["hausdorff"]["value"]

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))

        proc = run_in_child("billingsley", "--n", "1000", "--samples", "4", "--seed", "1", path,
                            env={"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=cap, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["mean"] - h) <= 0.02


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [["billingsley", "--n", "1000", "--samples", "2", "--seed", "1"], ["decompose", "--n", "20000"]],
        ids=["billingsley", "decompose"],
    )
    def test_closed_stdout_exits_one_quietly(self, golden_23, argv):
        # the pipe's read end is closed before the child starts, so its
        # writes fail whatever the timing, as when piped into `head -c 0`
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_in_child(*argv, golden_23, stdout=write, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestImports:
    def test_arithmetic_commands_load_neither_numpy_nor_mpmath(self, tmp_path, golden_23):
        words = tmp_path / "words.json"
        words.write_text(json.dumps({"words": ["110", "111"]}))
        env = dict(os.environ, PYTHONPATH=str(Path(affdim.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, golden_23, str(words)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0] * 6
        assert result["loaded"] == []
        code, printed = result["sample"]
        assert code == 0 and len(printed.splitlines()[0]) == 50
        assert result["measures"] == [True, "affdim.measures"]


class TestDecomposeAndCount:
    def test_decompose_lines(self, capsys, golden_23):
        code, out, _ = run(capsys, "decompose", "--n", "9", golden_23)
        assert code == 0
        lines = out.strip().splitlines()
        chains = [json.loads(line) for line in lines[:-1]]
        assert {tuple(c["positions"]) for c in chains} == {
            (1,), (2, 3), (4, 6, 9), (5,), (7,), (8,)
        }
        census = json.loads(lines[-1])["census"]
        assert census["D"] == [[1, 4], [2, 1], [3, 1]]

    def test_count(self, capsys, golden_12):
        code, out, _ = run(capsys, "count", "--n", "3", golden_12)
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 6

    def test_truncated_marker(self, capsys, tmp_path):
        path = tmp_path / "deg.json"
        path.write_text(
            json.dumps({"m": 2, "matrix": [[1, 1], [1, 0]], "p": 2, "q": 4, "a": 0, "b": 0})
        )
        code, out, _ = run(capsys, "decompose", "--n", "8", str(path))
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()[:-1]]
        assert any(c["full_length"] == "truncated" for c in lines)

    @pytest.mark.parametrize("n", ["100000000000", "1" + "0" * 30])
    def test_count_past_the_digit_limit_exits_one(self, capsys, golden_23, n):
        # the count would not print; it is refused before it is built
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--n", n, golden_23)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "digit" in err and "Traceback" not in err

    def test_count_without_the_digit_limit_function(self, capsys, golden_23, monkeypatch):
        # CPython before 3.10.7 has no sys.get_int_max_str_digits
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        code, out, err = run(capsys, "count", "--n", "1000", golden_23)
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["count"] == pattern_count_exact(1000, load_system(golden_23))

    def test_count_at_the_digit_limit_prints(self, capsys, golden_23):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("no int-to-string digit limit in this interpreter")
        system = load_system(golden_23)
        lo, hi = 1, 64 * limit  # count(lo) < 10**limit <= count(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pattern_count_exact(mid, system) < 10**limit:
                lo = mid
            else:
                hi = mid
        code, out, _ = run(capsys, "count", "--n", str(lo), golden_23)
        assert code == 0
        assert len(str(json.loads(out)["count"])) == limit


class TestVerify:
    def test_all_equal(self, capsys, golden_23):
        code, out, _ = run(capsys, "verify", "--max-n", "12", golden_23)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] is True
        assert len(payload["rows"]) == 12
        assert all(r["equal"] for r in payload["rows"])

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_window_below_one_exits_one(self, capsys, golden_23, max_n):
        # an empty window list used to print "all_equal": true and exit 0
        code, out, err = run(capsys, "verify", "--max-n", max_n, golden_23)
        assert (code, out) == (1, "")
        assert "window size must be >= 1" in err

    def test_mismatch_prints_the_report_then_exits_two(self, capsys, golden_23, monkeypatch):
        counts = affdim.oracle.brute_force_counts_upto

        def one_more_at_five(n, system):
            result = counts(n, system)
            result[4] += 1
            return result

        monkeypatch.setattr(affdim.oracle, "brute_force_counts_upto", one_more_at_five)
        code, out, err = run(capsys, "verify", "--max-n", "12", golden_23)
        assert code == 2
        [line] = out.splitlines()
        report = json.loads(line)
        assert report["all_equal"] is False
        assert [row["n"] for row in report["rows"] if not row["equal"]] == [5]
        assert err == "numerical failure: pattern-count formula disagrees with enumeration\n"

    def test_refusals_come_before_the_enumeration(self, capsys, tmp_path, monkeypatch):
        def enumerate_(*args):
            raise AssertionError("the enumeration ran")

        monkeypatch.setattr(affdim.oracle, "brute_force_counts_upto", enumerate_)
        # a non-increasing first pair (3, 3) at k = 1, refused by the chain census
        code, out, err = run(capsys, "verify", "--max-n", "12", system_file(tmp_path, (2, 3, 1, 0)))
        assert (code, out) == (1, "")
        assert "non-increasing constraint pair" in err
        if not 0 < sys.get_int_max_str_digits() < 4514:
            pytest.skip("2^15000 prints under this interpreter's int-to-string digit limit")
        # the all-ones matrix admits all 2^15000 words, a count of 4516 digits
        ones = system_file(tmp_path, (1000, 1001, 0, 0), ((1, 1), (1, 1)))
        code, out, err = run(capsys, "verify", "--max-n", "15000", ones)
        assert (code, out) == (1, "")
        assert re.search(r"the count at n = 15000 has about 4515 decimal digits, past the \d+-digit limit", err)
        assert "Traceback" not in err


class TestSampleAndBillingsley:
    def test_sample_deterministic(self, capsys, golden_12):
        code, out1, _ = run(capsys, "sample", "--n", "64", "--seed", "9", golden_12)
        assert code == 0
        _, out2, _ = run(capsys, "sample", "--n", "64", "--seed", "9", golden_12)
        assert out1 == out2
        stream, sidecar = out1.strip().splitlines()
        assert len(stream) == 64 and set(stream) <= {"0", "1"}
        assert json.loads(sidecar)["neg_log_prob_per_n"] > 0

    def test_billingsley(self, capsys, golden_12):
        code, out, _ = run(capsys, "billingsley", "--n", "2000", "--samples", "6", "--seed", "4", golden_12)
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mean"] - 0.8113705) < 0.05
        assert payload["stderr"] >= 0

    @pytest.mark.parametrize("pqab", [(1, 3, 0, 0), (2, 4, 0, 0)])
    def test_periodic_matrix(self, capsys, tmp_path, pqab):
        # the fixed point and the stationary sampler accept a periodic matrix
        path = system_file(tmp_path, pqab, ((0, 1), (1, 0)))
        for argv in (
            ["dim", "--kind", "both", "--tol", "1e-10"],
            ["sample", "--n", "64", "--seed", "9"],
            ["billingsley", "--n", "2000", "--samples", "4", "--seed", "4"],
        ):
            code, out, err = run(capsys, *argv, path)
            assert code == 0, (argv, err)
        # on the swap matrix a chain's first letter forces the rest, so each
        # sample scores the share of chain starts, near the dimension 1 - 1/q
        assert json.loads(out)["mean"] == pytest.approx(1 - 1 / pqab[1], abs=1e-3)

    @pytest.mark.parametrize(("pqab", "n"), [((2, 10**18 + 1, 0, 0), "100"), ((2, 3, 0, 10**19), "10")])
    def test_window_past_int64_exits_one(self, capsys, tmp_path, pqab, n):
        code, out, err = run(capsys, "sample", "--n", n, "--seed", "1", system_file(tmp_path, pqab))
        assert code == 1
        assert out == "" and "int64" in err


class TestSweep:
    def test_csv_shape(self, capsys, golden_12):
        code, out, _ = run(capsys, "sweep", "--kind", "minkowski", "--n-grid", "1e3,1e4", golden_12)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,empirical,closed_form,gap"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["1000", "10000"]
        assert float(rows[1][3]) < 0.02

    def test_rejects_hausdorff_kind(self, capsys, golden_12):
        code, _, err = run(capsys, "sweep", "--kind", "hausdorff", "--n-grid", "1e3", golden_12)
        assert code == 1
        assert "minkowski" in err

    def test_output_ignores_thread_variable(self, capsys, golden_12, monkeypatch):
        monkeypatch.delenv("AFFDIM_THREADS", raising=False)
        outputs = [run(capsys, "sweep", "--n-grid", "1e3,1e4,1e5", golden_12)]
        for value in ("4", "lots"):
            monkeypatch.setenv("AFFDIM_THREADS", value)
            outputs.append(run(capsys, "sweep", "--n-grid", "1e3,1e4,1e5", golden_12))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_grid_entries_parsed_exactly(self, capsys, golden_12):
        code, out, _ = run(capsys, "sweep", "--n-grid", "1e23,123456789012345678901", golden_12)
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["100000000000000000000000", "123456789012345678901"]
        for entry in ("1.5", "0", "6/2", "1e-3", "nan", "inf", "0x10", "abc"):
            code, _, err = run(capsys, "sweep", "--n-grid", entry, golden_12)
            assert code == 1
            assert "positive integers" in err

    def test_window_past_the_float_range_exits_one(self, capsys, golden_23):
        code, out, err = run(capsys, "sweep", "--n-grid", "1e300,1e400", golden_23)
        assert code == 1 and out == ""
        assert "float range" in err
        code, out, _ = run(capsys, "sweep", "--n-grid", "1e300", golden_23)
        assert code == 0
        assert math.isfinite(float(out.strip().splitlines()[-1].split(",")[1]))

    def test_grid_entries_that_would_take_long_to_build_refused_in_child(self, golden_23, tmp_path):
        # Fraction builds 10^999999999 exactly, which does not finish
        words = tmp_path / "words.json"
        words.write_text(json.dumps({"words": ["111"]}))
        higher_order = ["higher-order", "--f", "k^2", "--forbidden", str(words)]
        for argv, message in [
            (["sweep", "--n-grid", "1e999999999"], "float range"),
            (["sweep", "--n-grid=-1e999999999"], "float range"),
            (["sweep", "--n-grid", "1e-999999999"], "positive integers"),
            # exponents past Decimal's limit of about 10^18
            (["sweep", "--n-grid", "1e1000000000000000000000"], "float range"),
            (["sweep", "--n-grid=-1e1000000000000000000000"], "float range"),
            (["sweep", "--n-grid", "1e-1000000000000000000000"], "positive integers"),
            ([*higher_order, "--n-grid", "1e400"], "float range"),
            ([*higher_order, "--n-grid", "inf"], "positive integers"),
        ]:
            proc = assert_refused_in_child(*argv, golden_23, timeout=10)
            assert message in proc.stderr, argv

    def test_json_format(self, capsys, golden_12):
        code, out, _ = run(capsys, "sweep", "--n-grid", "1e3,1e4", "--format", "json", golden_12)
        assert code == 0
        payload = json.loads(out)
        assert [row["n"] for row in payload["rows"]] == [1000, 10000]


class TestDimCsv:
    def test_csv_rows(self, capsys, golden_12):
        code, out, _ = run(capsys, "dim", "--format", "csv", golden_12)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "kind,value,case,truncation_index,tail_bound,tolerance"
        kinds = {line.split(",")[0] for line in lines[2:]}
        assert kinds == {"minkowski", "hausdorff"}


class TestHigherOrderCommand:
    def test_csv(self, capsys, golden_12, tmp_path):
        words = tmp_path / "words.json"
        words.write_text(json.dumps({"words": ["110", "111"]}))
        code, out, _ = run(
            capsys,
            "higher-order",
            "--f",
            "k^2",
            "--forbidden",
            str(words),
            "--n-grid",
            "16,1e3,1e6",
            golden_12,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,measured,bound,empirical_gap"
        first = lines[2].split(",")
        assert first[0] == "16" and first[3] == "0.0"
        last = lines[4].split(",")
        assert last[3] == ""  # enumeration infeasible at 1e6
        assert float(last[2]) < float(lines[3].split(",")[2])

    def test_refusal_prints_no_partial_table(self, capsys, tmp_path):
        # n = 16 has a row, n = 3 is refused: no header and no row is printed
        words = tmp_path / "words.json"
        words.write_text(json.dumps({"words": ["111"]}))
        code, out, err = run(capsys, "higher-order", "--f", "k^2", "--forbidden", str(words),
                             "--n-grid", "16,3", system_file(tmp_path, (2, 5, -3, 4)))
        assert (code, out) == (1, "")
        assert "need n >= q1 = 5" in err

    @pytest.mark.parametrize("word", ["1a1", None, [1, 1, 0], 110, "\u0663\u0663\u0663", ""])
    def test_word_that_is_not_a_digit_string_exits_one(self, capsys, tmp_path, word):
        # each character used to be read with int(): "1a1", null and a list
        # ended in int()'s own message, a number was read as its decimal
        # digits, and Arabic-Indic digits were read as the word 333
        words = tmp_path / "words.json"
        words.write_text(json.dumps({"words": ["111", word]}))
        code, out, err = run(capsys, "higher-order", "--f", "k^2", "--forbidden", str(words),
                             "--n-grid", "16", system_file(tmp_path, (2, 3, 0, 0), PRIMITIVE4))
        assert (code, out) == (1, "")
        assert err == (f"error: forbidden word {json.dumps(word, ensure_ascii=False)} in {words} "
                       "is not a string of the digits 0-9\n")

    @pytest.mark.parametrize("growth", ["k^52", "k^320", "k^1000", "2*k^52.5"])
    def test_exponent_past_the_float_range_in_child(self, golden_23, tmp_path, growth):
        # f(10^6) / 10^(6 s) overflowed floats from s = 52 on
        words = tmp_path / "words.json"
        words.write_text(json.dumps({"words": ["111"]}))
        proc = run_in_child("higher-order", "--f", growth, "--forbidden", str(words),
                            "--n-grid", "16,64", golden_23)
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout.splitlines()[1] == "n,measured,bound,empirical_gap"

    @pytest.mark.parametrize("growth", ["k^" + "9" * 400, "k^1000000000"])
    def test_exponent_too_large_to_evaluate_refused_in_child(self, golden_23, tmp_path, growth):
        # the first parses to an infinite float, the second needs f(10^6) of 2e10 bits
        words = tmp_path / "words.json"
        words.write_text(json.dumps({"words": ["111"]}))
        assert_refused_in_child("higher-order", "--f", growth, "--forbidden", str(words),
                                "--n-grid", "16,64", golden_23)


class TestRepeatedCalls:
    def test_calls_in_one_process_repeat_their_output(self, capsys, golden_12, golden_23, tmp_path):
        pairs, triples = tmp_path / "pairs.json", tmp_path / "triples.json"
        pairs.write_text(json.dumps({"words": ["11"]}))
        triples.write_text(json.dumps({"words": ["110", "111"]}))
        # without --f a forbidden word has length 2, with one --f length 3
        plain = ["higher-order", "--forbidden", str(pairs), "--n-grid", "16,1e3", golden_12]
        calls = [
            ["dim", golden_23],
            plain,
            ["higher-order", "--f", "k^2", "--forbidden", str(triples), "--n-grid", "16,1e3", golden_12],
            plain,
            ["dim", "--tol", "tiny", golden_23],
            ["dim", "--kind", "both", golden_23],
            ["dim", "--format", "csv", golden_12],
            ["count", "--n", "50", golden_23],
            ["dim", "--help"],
            ["--version"],
        ]
        first = [run_any(capsys, *argv) for argv in calls]
        assert [run_any(capsys, *argv) for argv in calls] == first
        # the --f list does not carry over into the next call
        assert first[1][0] == first[2][0] == 0 and first[3] == first[1]
        # a good call after an argparse error
        assert first[4][0] == 2 and "invalid float value" in first[4][2]
        assert first[5] == first[0] and first[0][0] == 0

