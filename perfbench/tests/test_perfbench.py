"""Tests of the benchmark itself: deterministic inputs, checks that reject
corrupted outputs, and smoke runs that print every metric.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402
from affdim import validate_system  # noqa: E402
from workloads import GOLDEN, Op, System, Workload  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        first, again = workloads.build(name, 7), workloads.build(name, 7)
        assert first.ops == again.ops and first.files == again.files
        other = workloads.build(name, 8)
        assert other.ops != first.ops


def test_workloads_span_case_tags_and_known_defects():
    census = workloads.build("census", 1)
    systems = [op.system.affine for op in census.ops]
    assert any(not workloads.first_pair_increasing(s) for s in systems)
    assert any(s.a > s.b for s in systems)
    assert len({s.case_tag for s in systems}) == 4
    verify = workloads.build("verify", 1)
    assert max(op.args["n"] for op in verify.ops if op.kind == "count") > 50_000
    entropy = [op for op in verify.ops if op.kind == "entropy"]
    assert {op.args["length"] for op in entropy} == set(workloads.ENTROPY_LENGTHS)
    assert any(op.args["length"] == 6 and op.system.m == 5 for op in entropy)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _system(p, q, a, b, matrix=GOLDEN):
    return System(f"t{p}{q}{a}{b}_{len(matrix)}", validate_system(p, q, a, b, matrix))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of one small op of every kind, all passing their checks."""
    g23 = _system(2, 3, 0, 0)
    ops = [
        Op("sweep", g23, 12_000, {"n_grid": [10_000, 12_000]}),
        Op("sample", g23, 1_000, {"n": 1_000, "seed": 5}),
        Op("score", g23, 1_000, {"n": 1_000}),
        Op("billingsley", g23, 500, {"n": 500, "samples": 4, "seed": 3}),
        Op("dim", g23, 0, {"tol": 1e-8}),
        Op("verify", g23, 16, {"max_n": 16}),
        Op("count", g23, 15, {"n": 15}),
        Op("count", g23, 900, {"n": 900}),
        Op("higher-order", _system(1, 2, 0, 0, ((1, 1), (1, 1))), 10,
           {"f": "k^2", "forbidden": "words.json", "n_grid": [10, 1000],
            "max_enumeration": 10}),
        Op("entropy", g23, 4, {"length": 4}),
        Op("sweep", g23, 70_000, {"n_grid": [60_000, 70_000]}),
    ]
    files = {f"{op.system.key}.json": json.dumps(op.system.affine.to_json_dict()) for op in ops}
    files["words.json"] = json.dumps({"words": ["010", "111"]})
    workload = Workload("test", 0, ops, files)
    directory = str(tmp_path_factory.mktemp("inputs"))
    workloads.write_inputs(workload, directory)
    runner = run.Runner(directory)
    records = [(i, runner.run(op)) for i, op in enumerate(ops)]
    first = run.check_outputs(workload, records, runner)
    for index, result in first.items():
        assert result.ok, (ops[index].kind, result.error, result.check_error)
    return workload, runner, first


def _recheck(outputs, index, stdout=None, value=None):
    workload, runner, first = outputs
    original = first[index]
    corrupt = run.OpResult(kind=original.kind, rc=0, elapsed=0.0,
                           stdout=original.stdout if stdout is None else stdout,
                           value=original.value if value is None else value)
    results = dict(first)
    results[index] = corrupt
    from checks import Checker

    checker = Checker(lambda s: __import__("affdim").load_system(
        runner.path(f"{s.key}.json")), workload.files)
    checker.check(workload.ops[index], corrupt, results, index)


def _replace_json(stdout, edit):
    data = json.loads(stdout)
    edit(data)
    return json.dumps(data)


def test_checks_accept_the_real_outputs(outputs):
    for index in outputs[2]:
        _recheck(outputs, index)


def test_sample_check_rejects_one_flipped_letter(outputs):
    workload, _, first = outputs
    prefix, sidecar = first[1].stdout.splitlines()
    word = list(prefix)
    for k in range(1, 1000):
        u, v = 2 * k, 3 * k
        if v <= len(word) and word[u - 1] == "1" and word[v - 1] == "0":
            word[v - 1] = "1"  # golden matrix forbids 1 -> 1
            break
    with pytest.raises(CheckFailure, match="violates"):
        _recheck(outputs, 1, stdout="".join(word) + "\n" + sidecar + "\n")


def test_sample_check_rejects_a_wrong_sidecar(outputs):
    prefix, sidecar = outputs[2][1].stdout.splitlines()
    bad = _replace_json(
        sidecar, lambda d: d.update(neg_log_prob_per_n=d["neg_log_prob_per_n"] * 1.001)
    )
    with pytest.raises(CheckFailure, match="sidecar"):
        _recheck(outputs, 1, stdout=prefix + "\n" + bad + "\n")


def test_score_check_rejects_an_infinite_score(outputs):
    with pytest.raises(CheckFailure):
        _recheck(outputs, 2, value=float("inf"))


def test_billingsley_check_rejects_a_negative_mean(outputs):
    bad = _replace_json(outputs[2][3].stdout, lambda d: d.update(mean=-0.5))
    with pytest.raises(CheckFailure):
        _recheck(outputs, 3, stdout=bad)


@pytest.mark.parametrize("index, route", [(0, "chain-walk"), (10, "census")])
def test_sweep_check_rejects_a_wrong_empirical_value(outputs, index, route):
    lines = outputs[2][index].stdout.splitlines()
    n, emp, closed, gap = lines[2].split(",")
    shifted = float(emp) + 1e-9  # still a valid dimension
    lines[2] = ",".join([n, repr(shifted), closed, repr(abs(shifted - float(closed)))])
    with pytest.raises(CheckFailure, match=route):
        _recheck(outputs, index, stdout="\n".join(lines))
    lines[2] = ",".join([n, "1.5", closed, repr(abs(1.5 - float(closed)))])
    with pytest.raises(CheckFailure, match="outside"):
        _recheck(outputs, index, stdout="\n".join(lines))


def test_dim_check_rejects_hausdorff_above_minkowski(outputs):
    def edit(d):
        mk = d["results"]["minkowski"]
        d["results"]["hausdorff"]["value"] = mk["value"] + mk["tail_bound"] + 1e-6

    with pytest.raises(CheckFailure, match="ordering"):
        _recheck(outputs, 4, stdout=_replace_json(outputs[2][4].stdout, edit))


def test_dim_check_rejects_a_wrong_minkowski_value(outputs):
    def edit(d):
        d["results"]["minkowski"]["value"] += 1e-6

    with pytest.raises(CheckFailure, match="float series"):
        _recheck(outputs, 4, stdout=_replace_json(outputs[2][4].stdout, edit))


def test_verify_check_rejects_a_count_the_oracle_disagrees_with(outputs):
    def edit(d):
        row = d["rows"][9]
        row["formula_count"] += 1
        row["oracle_count"] += 1

    with pytest.raises(CheckFailure, match="count at n=10"):
        _recheck(outputs, 5, stdout=_replace_json(outputs[2][5].stdout, edit))


@pytest.mark.parametrize("index", [6, 7])
def test_count_check_rejects_an_off_by_one_count(outputs, index):
    def edit(d):
        d["count"] += 1

    with pytest.raises(CheckFailure):
        _recheck(outputs, index, stdout=_replace_json(outputs[2][index].stdout, edit))


def test_higher_order_check_rejects_a_wrong_gap(outputs):
    lines = outputs[2][8].stdout.splitlines()
    n, measured, bound, gap = lines[2].split(",")
    lines[2] = ",".join([n, measured, bound, repr(float(gap) + 1e-3)])
    with pytest.raises(CheckFailure, match="gap"):
        _recheck(outputs, 8, stdout="\n".join(lines))


def test_entropy_check_rejects_a_wrong_optimum(outputs):
    with pytest.raises(CheckFailure, match="optimum"):
        _recheck(outputs, 9, value=outputs[2][9].value + 1e-3)


def test_repeated_op_must_reproduce_its_output(outputs):
    workload, runner, first = outputs
    again = run.OpResult(kind="dim", rc=0, elapsed=0.0, stdout=first[4].stdout + " ")
    run.check_outputs(workload, [(4, first[4]), (4, again)], runner)
    assert "differs" in again.check_error and not again.ok


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(name, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    monkeypatch.setattr(run, "TRACE_OPS", dict.fromkeys(workloads.WORKLOADS, 4))
    for trace, names in ((0, run.END_TO_END), (1, tracing.PER_LAYER)):
        argv = ["--workload", name, "--seed", "1", "--seconds", "3", "--trace", str(trace)]
        assert run.main(argv) == 0
        out = capsys.readouterr().out.strip().splitlines()
        result = json.loads(out[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        if not trace:  # a fixed, seeded op count, whatever the machine's speed
            assert result["attempted"] == round(3 * run.OPS_PER_SECOND[name])
        assert sorted(k for k, _ in names) == sorted(result["metrics"])
        for key, unit in names:
            assert any(line.split()[:1] == [key] and line.split()[2] == unit for line in out)
        assert any(line.startswith("failed_frac") for line in out)


def test_exits_nonzero_without_the_library(tmp_path):
    skip = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.xfail(reason="known defect: the entropy optimizer stalls on this input, an "
                          "entropy op of the verify workload", strict=False)
def test_entropy_optimizer_converges_on_the_stall_found_by_the_benchmark():
    from affdim import lattice, oracle, validate_system

    rows = [[1, 1, 1, 1, 1], [1, 1, 0, 1, 1], [1, 1, 1, 1, 0], [1, 1, 1, 1, 0], [1, 0, 1, 0, 1]]
    system = validate_system(2, 3, 0, 1, rows)
    weights = [lattice.chain_density(6, j, system) for j in range(1, 7)]
    oracle.maximize_chain_entropy(6, weights, system.matrix)
