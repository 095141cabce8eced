import json

import pytest

from affdim.cli import main


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


def run(capsys, *argv):
    code = main(list(argv))
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


class TestVerify:
    def test_all_equal(self, capsys, golden_23):
        code, out, _ = run(capsys, "verify", "--max-n", "12", golden_23)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] is True
        assert len(payload["rows"]) == 12
        assert all(r["equal"] for r in payload["rows"])


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

    def test_thread_cap_env(self, capsys, golden_12, monkeypatch):
        monkeypatch.setenv("AFFDIM_THREADS", "4")
        code, out, _ = run(capsys, "sweep", "--n-grid", "1e3,1e4,1e5", golden_12)
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["1000", "10000", "100000"]

    def test_thread_cap_rejects_garbage(self, capsys, golden_12, monkeypatch):
        monkeypatch.setenv("AFFDIM_THREADS", "lots")
        code, _, err = run(capsys, "sweep", "--n-grid", "1e3", golden_12)
        assert code == 1
        assert "AFFDIM_THREADS" in err

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
