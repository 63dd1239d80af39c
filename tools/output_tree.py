"""Write the CLI outputs of one checkout into a tree, for byte-identity checks.

Usage: python3 tools/output_tree.py SRC OUT

SRC is a checkout of this repository and OUT a directory that does not exist
yet.  Every run below is a fresh `python3 -m ultradiff.cli` process on
SRC/src with one BLAS thread:

* the shipped workload's operations (`perfbench/workloads.py`), default
  `reproduce-example` among them;
* modal-k-sweep seeds 1-3 and near-classical seed 1, passes 0-1;
* `simulate` on each scenario under SRC/scenarios;
* `reproduce-example --cutoff 5 --epsilon 0.01`;
* `selftest`.

Each run gets OUT/<run>/ with its exit code, stdout and stderr (the two
paths are written as "OUT" and "SRC" in both), `report.json` and its CSV tables;
`report.timing.json` holds wall times and is dropped.  The generated
scenario files land under OUT/scenarios/.  Two checkouts give the same
outputs when `diff -r` of their trees is empty.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every run, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib.util
import subprocess
import sys
from pathlib import Path

GENERATED = (("modal-k-sweep", (1, 2, 3)), ("near-classical", (1,)))
PASSES = (0, 1)


def _workloads(src: Path):
    spec = importlib.util.spec_from_file_location(
        "output_tree_workloads", src / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _runs(src: Path, out: Path):
    """(run name, CLI argv) pairs, writing the generated scenarios."""
    workloads = _workloads(src)
    for op in workloads.SHIPPED_OPS:
        run = out / f"shipped-{op.key.replace(':', '-')}"
        yield run, op.argv(src / "scenarios", run)
    for workload, seeds in GENERATED:
        for seed in seeds:
            for pass_index in PASSES:
                tag = f"{workload}-s{seed}-p{pass_index}"
                files, ops = workloads.generate(workload, seed, pass_index, src)
                scenarios = out / "scenarios" / tag
                scenarios.mkdir(parents=True)
                for name, data in files.items():
                    (scenarios / name).write_bytes(data)
                for op in ops:
                    run = out / f"{tag}-{op.key.replace(':', '-')}"
                    yield run, op.argv(scenarios, run)
    for path in sorted((src / "scenarios").glob("*.json")):
        run = out / f"simulate-{path.stem}"
        yield run, ["simulate", "--scenario", str(path), "--out", str(run)]
    run = out / "reproduce-example-cutoff5-eps0.01"
    yield run, ["reproduce-example", "--cutoff", "5", "--epsilon", "0.01",
                "--out", str(run)]
    yield out / "selftest", ["selftest"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 1
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "ULTRADIFF_LOG_LEVEL"}
    env["PYTHONPATH"] = str(src / "src")
    count = 0
    for run, cli_argv in _runs(src, out):
        run.mkdir(parents=True, exist_ok=True)
        done = subprocess.run([sys.executable, "-m", "ultradiff.cli", *cli_argv],
                              cwd=run, env=env, capture_output=True, text=True)
        (run / "report.timing.json").unlink(missing_ok=True)
        (run / "exit_code.txt").write_text(f"{done.returncode}\n")
        for name, text in (("stdout.txt", done.stdout), ("stderr.txt", done.stderr)):
            (run / name).write_text(
                text.replace(str(out), "OUT").replace(str(src), "SRC"))
        count += 1
    print(f"{count} runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
