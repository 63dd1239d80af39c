"""Fresh-process peak RSS and wall time of one CLI verb on the modal probe.

Usage: python3 tools/peak_rss.py {analyze,synthesize} K [--src SRC]

The modal probe is `perfbench/workloads.modal_scenario` on the unit square:
K^2 whole-square `mode` actuators, the whole square as the region, window
[1, 4] and target `default_rng(1).standard_normal(K^2)`, at order alpha = 0.7.
The verb runs as a fresh `python3 -m ultradiff.cli` process on
SRC/src (this checkout by default) with one BLAS thread; its peak resident
set comes from the kernel's accounting of that child alone (`os.wait4`), and
its wall time spans the spawn to the exit, interpreter start-up included.
The numbers are informational: nothing here compares them with a bound.
Exits 0 if the verb exits 0 or 2 (a verdict), else 1; the verb's stderr
passes through.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
VERBS = ("analyze", "synthesize")
ALPHA = 0.7


def _modal_scenario(src: Path, cutoff: int) -> dict:
    spec = importlib.util.spec_from_file_location(
        "peak_rss_workloads", src / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads    # dataclasses look their module up
    spec.loader.exec_module(workloads)
    target = np.random.default_rng(1).standard_normal(cutoff * cutoff)
    return workloads.modal_scenario(f"modal-probe-k{cutoff}", cutoff, ALPHA,
                                    workloads.SQUARE, 4.0, target)


def _run(argv: list[str], env: dict, cwd: Path) -> tuple[int, float, float]:
    """(exit code, peak RSS in MiB, wall seconds) of one child process."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024.0, wall   # ru_maxrss in KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("cutoff", type=int, metavar="K")
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ runs (default: this one)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    env = {k: v for k, v in os.environ.items() if k != "ULTRADIFF_LOG_LEVEL"}
    env.update(PYTHONPATH=str(src / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        tmp = Path(tmp)
        scenario = tmp / "scenario.json"
        scenario.write_text(json.dumps(_modal_scenario(src, args.cutoff)))
        code, rss, wall = _run(
            [sys.executable, "-m", "ultradiff.cli", args.verb,
             "--scenario", str(scenario), "--out", str(tmp / "out")], env, tmp)
    print(f"{args.verb} K={args.cutoff}: exit {code}, "
          f"peak RSS {rss:.1f} MiB, wall {wall:.2f} s")
    return 0 if code in (0, 2) else 1


if __name__ == "__main__":
    sys.exit(main())
