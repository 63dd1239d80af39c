"""Self-tests of the benchmark code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run  # pins BLAS threads and puts this checkout's src/ on sys.path
from workloads import GENERATED, SHIPPED_OPS, WORKLOADS, generate

from ultradiff import cli
from ultradiff.spectral import box_quadrature, default_order


def structural_counts(files: dict) -> list:
    counts = []
    for name, data in sorted(files.items()):
        scenario = cli.scenario_from_dict(json.loads(data))
        _, basis, _, actuators = cli.build_objects(scenario)
        order = default_order(basis)
        points = sum(box_quadrature(box, order)[1].size
                     for act in actuators.actuators for box in act.support.boxes)
        counts.append((name, len(basis.modes), actuators.m, points))
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_scenarios(workload):
    for index in (0, 1):
        assert generate(workload, 7, index, run.ROOT) == \
            generate(workload, 7, index, run.ROOT)


@pytest.mark.parametrize("workload", sorted(GENERATED))
def test_other_seed_changes_targets_and_windows_not_counts(workload):
    files_a, ops_a = generate(workload, 1, 0, run.ROOT)
    files_b, ops_b = generate(workload, 2, 0, run.ROOT)
    assert ops_a == ops_b and files_a.keys() == files_b.keys()
    for name in files_a:
        a, b = json.loads(files_a[name]), json.loads(files_b[name])
        assert a["window"] != b["window"]
        assert a["target"]["values"] != b["target"]["values"]
    assert structural_counts(files_a) == structural_counts(files_b)


def test_every_benchmark_metric_is_printed_with_its_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
             "--workload", "shipped", "--seed", "0", "--seconds", "1",
             "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[kind]}


def test_wrong_expectation_is_counted_as_failed():
    files, _ = generate("shipped", 0, 0, run.ROOT)
    right = SHIPPED_OPS[0]
    assert right.key == "analyze:whole-domain-negative"
    wrong = dataclasses.replace(right, expect_exit=0)
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
        pass_dir = run.write_pass(Path(scratch), files)
        tally = run.Tally()
        run.run_pass([right, wrong], pass_dir, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert list(tally.problems) == [
        "analyze:whole-domain-negative: exit 2, expected 0"]
