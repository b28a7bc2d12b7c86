"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
and that the output checks fire on a corrupted copy of real outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(REPO / "src"))

import workloads  # noqa: E402  (needs src/ on the path)

TINY_TRIALS = 2


def run_bench(workload: str, trace: int, work_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--trials", str(TINY_TRIALS), "--work-dir", str(work_dir)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section, tmp_path):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert workload in {w["name"] for w in spec["workloads"]}
    result = run_bench(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def _drop_last_row(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _flip_first_digit(path: Path) -> None:
    text = path.read_text()
    header, body = text.split("\n", 1)
    digit = next(ch for ch in body if ch.isdigit())
    path.write_text(header + "\n" + body.replace(digit, str((int(digit) + 1) % 10), 1))


def _shift_first_error(path: Path) -> None:
    header, first, rest = path.read_text().split("\n", 2)
    cells = first.split(",")
    cells[2] = f"{float(cells[2]) + 1.0:.6f}"
    path.write_text("\n".join([header, ",".join(cells), rest]))


def _retype_first_failure(path: Path) -> None:
    text, replaced = workloads.EXPECTED_FAILURE.subn("singular geometry", path.read_text(), count=1)
    assert replaced == 1
    path.write_text(text)


@pytest.mark.parametrize(
    "cls,seed,target,corrupt",
    [
        (workloads.Replicate, workloads.GOLDEN_SEED, "summary.csv", _flip_first_digit),
        (workloads.Replicate, 3, "fixes_two-led_rotation.csv", _drop_last_row),
        (workloads.Survey, 3, "locate_two-led/fixes.csv", _drop_last_row),
        (workloads.Survey, 3, "stats_three-led/errors_three-led.csv", _shift_first_error),
        (workloads.FieldDropout, 3, "locate_three-led/fixes.csv", _retype_first_failure),
    ],
)
def test_output_check_fires_on_corrupted_outputs(cls, seed, target, corrupt, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    workload = cls(seed, TINY_TRIALS, tmp_path / "work")
    workload.setup()
    out = tmp_path / "work" / "iter"
    _, _, problems = workload.run(out)
    assert problems == [] and workload.check(out).problems == []

    bad = tmp_path / "corrupt"
    shutil.copytree(out, bad)
    corrupt(bad / target)
    assert workload.check(bad).problems
    assert workloads.csv_digest(bad) != workloads.csv_digest(out)
