"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
(about two minutes; every worker runs a full batch).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    """A temporary directory inside the benchmark's own ignored output area."""
    path = run.OUT / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_and_answers(workload):
    first, second = inputs.make_batch(workload, 11), inputs.make_batch(workload, 11)
    assert first == second
    assert len(first["ops"]) >= 100
    a, b = run.run_worker(first, False), run.run_worker(second, False)
    assert a["failed"] == b["failed"] == 0, a["failures"] + b["failures"]
    assert a["digest"] == b["digest"]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert inputs.make_batch(workload, 11)["ops"] != inputs.make_batch(workload, 12)["ops"]


def test_class_labels_match_known_class_counts():
    # Number of conjugacy classes of A_n, n = 2..16 (OEIS A000702).
    known = [1, 3, 4, 5, 7, 9, 14, 18, 24, 31, 43, 55, 72, 94, 123]
    assert [len(inputs.class_labels(n)) for n in range(2, 17)] == known


def test_wrong_reference_answer_raises_failed_ratio(scratch):
    reference = inputs.load_reference()
    batch = inputs.make_batch("class-queries", 11, reference)
    target = next(op for op in batch["ops"] if op["kind"] == "frobenius_count")
    edited = copy.deepcopy(reference)
    n = str(sum(inputs.parse_parts(target["args"][0])))
    rows = [row for row in edited["frobenius"][n] if row[:3] == target["args"]]
    for row in rows:
        row[3] += 1
    path = scratch / "reference.json"
    path.write_text(json.dumps(edited))
    wrong = inputs.make_batch("class-queries", 11, inputs.load_reference(path))
    result = run.run_worker(wrong, False)
    attempted = len(result["latencies_s"])
    assert result["failed"] == sum(op["args"] == target["args"] for op in wrong["ops"]) >= 1
    _, lines = run.end_to_end([result], [result["setup_s"]])
    assert f"failed_ratio {result['failed'] / attempted:12.6f}" in "\n".join(lines)
    assert result["failed"] / attempted > 0


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_metrics_are_complete_and_counts_repeat(workload):
    batch = inputs.make_batch(workload, 11)
    untraced = [run.run_worker(batch, False)]
    first = run.per_layer([run.run_worker(batch, True)], untraced)
    second = run.per_layer([run.run_worker(batch, True)], untraced)
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(first) == names
    for metric in BENCHMARK["per_layer"]:
        if metric["unit"] == "count":
            assert first[metric["name"]] == second[metric["name"]], metric["name"]
        assert first[metric["name"]][1] == metric["unit"]


def test_last_line_follows_the_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witnesses", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3 * 100
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }


def test_fails_without_the_program(scratch):
    """With only BENCHMARK.json and perfbench/, the run must fail and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "class-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=scratch, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
