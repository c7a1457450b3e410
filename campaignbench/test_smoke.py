"""Tiny-size smoke run of the campaign benchmark.

Checks the result line's schema against BENCHMARK.json, that every
output check passes, that the checks reject wrong outputs, and which
run directories the clean-up removes. Asserts no timings.

    python3 -m pytest campaignbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "campaignbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema_and_checks(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(type(m["value"]) in (int, float) for m in result["metrics"].values())


def write_run(tmp_path, execs=100, edges=3, events=("recipe_promoted",)):
    (tmp_path / "queue").mkdir()
    (tmp_path / "queue" / "a").write_bytes(b"abc")
    (tmp_path / "queue" / "b").write_bytes(b"abd")
    (tmp_path / "fuzzer_stats").write_text(
        f"execs_done        : {execs}\nedges_found       : {edges}\n"
    )
    (tmp_path / "coverage.csv").write_text("t_sec,edges_found\n")
    (tmp_path / "events.jsonl").write_text(
        "".join(json.dumps({"kind": k}) + "\n" for k in events)
    )
    return tmp_path


def test_checks_accept_reference_outputs(tmp_path):
    # "abc" and "abd" hold three distinct byte pairs.
    run.check_outputs("bigram-growing", write_run(tmp_path), 100)


@pytest.mark.parametrize("workload, kwargs", [
    ("bigram-growing", {"edges": 4}),
    ("bigram-growing", {"execs": 99}),
    ("parser-saturated", {"edges": run.PARSER_EDGES - 1}),
    ("staircase-gate", {"edges": run.STAIRCASE_EDGES - 1}),
    ("staircase-gate", {"edges": run.STAIRCASE_EDGES, "events": ("promotion_skipped",)}),
])
def test_checks_reject_wrong_outputs(tmp_path, workload, kwargs):
    with pytest.raises(run.CheckFailed):
        run.check_outputs(workload, write_run(tmp_path, **kwargs), 100)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "campaignbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_clean_up_keeps_directories_until_they_age(tmp_path):
    fresh, old, failed = (tmp_path / name for name in ("fresh", "old", "failed"))
    for run_dir in (fresh, old, failed):
        (run_dir / "001-campaign" / "queue").mkdir(parents=True)
        (run_dir / "001-campaign" / "queue" / "id_000000").write_bytes(b"x")
    run.delete_files(fresh)
    run.delete_files(old)
    assert (fresh / "001-campaign" / "queue").is_dir()
    assert not any((fresh / "001-campaign" / "queue").iterdir())
    for run_dir in (old, failed):
        os.utime(run_dir, (0, 0))
    run.sweep_skeletons(tmp_path, run.SKELETON_AGE_S)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["failed", "fresh"]
