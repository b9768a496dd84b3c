"""Self-tests of the pipeline benchmark on 500-fragment inputs.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(
    *args: str, cwd: Path = ROOT, copy: Path = ROOT
) -> subprocess.CompletedProcess:
    """The benchmark under ``copy`` run in ``cwd``, tiny mode, seed 0."""
    return subprocess.run(
        [sys.executable, str(copy / "perfbench" / "run.py"), "--seed", "0",
         "--seconds", "0.5", "--tiny", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace))
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in declared
    }
    report = proc.stdout.splitlines()[:-1]
    for m in declared + [{"name": "failed_frac", "unit": "ratio"}]:
        assert any(
            line.split()[:1] == [m["name"]] and m["unit"] in line.split()
            for line in report
        ), m["name"]
    if not trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert all(v > 0 for v in values.values()), values


def copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH_DIR, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_tampered_reference_digest_fails_every_run(tmp_path):
    copy_benchmark(tmp_path)
    tampered = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(tampered.read_text())
    entry = reference["tiny"]["ckpt_resume"]
    entry["digest"] = "0" * len(entry["digest"])
    tampered.write_text(json.dumps(reference))
    proc = bench("--workload", "ckpt_resume", copy=tmp_path)
    result = result_line(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert any(
        line.split()[:2] == ["failed_frac", "1.0000"]
        for line in proc.stdout.splitlines()
    )


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    copy_benchmark(tmp_path)
    proc = bench("--workload", "ckpt_resume", cwd=tmp_path, copy=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
