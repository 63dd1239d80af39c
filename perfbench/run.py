#!/usr/bin/env python3
"""ultradiff benchmark: time to a verified answer per CLI verb.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench -q          # self-tests of this code

Each operation is one in-process call of `ultradiff.cli.main([verb, ...])`,
made in a closed loop by one client in this process, with BLAS pinned to one
thread.  A pass is one run of the workload's fixed list of operations; passes
repeat until the next one would overrun `--seconds` (at least one pass runs).
Every operation's exit code, messages and reports are checked.

With `--trace 0` the end-to-end metrics are measured: a fresh interpreter's
set-up time, the wall time of a pass and of each verb in it, and the peak
resident memory.  Set-up is the median of five set-ups spread over the run.
The result line reports each other time as the fastest pass of the run: on a
shared 2-core host, contention only ever adds time, and over ten seeds the
shipped workload's per-pass median spread by ~20% of its value where its
fastest pass spread by 5-17%.  The full record keeps the median, the tail and
the sample count.

With `--trace 1` each pass runs once untraced and once traced, alternating
which goes first, on the same scenarios; the traced copy gives the per-layer
metrics (see replay.py) and the difference between the two is the tracing
overhead.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}.  The line before it holds the full record: every metric
with its percentiles and sample count, the exact counts, the checks that
failed, the accuracy gates and the provenance.  Scenario files and reports go
to a temporary directory under .perfbench-work/ at the root of the checkout,
which also keeps the counts of each seed and the spans of traced runs.
"""

from __future__ import annotations

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"      # must precede the numpy import
NUMPY_WAS_LOADED = "numpy" in sys.modules

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from workloads import WORKLOADS, generate  # noqa: E402

VERBS = ("analyze", "synthesize", "simulate", "reproduce-example")
SETUP_REPEATS = 5

# metrics of the result line, name -> unit (BENCHMARK.json lists the same)
END_TO_END = {
    "setup_s": "s", "run_s": "s", "analyze_s": "s", "synthesize_s": "s",
    "peak_rss_mb": "MB",
}
# these read 0 on some workload (a verb it lacks, no failed operation), so
# they go to the full record only
END_TO_END_RECORD = {"simulate_s": "s", "reproduce_s": "s", "fail_ratio": "ratio"}

LAYER_SPANS = (
    "spectral.basis", "spectral.actuator_coefficients", "spectral.gradient_gram",
    "mittag_leffler.table", "controllability.assemble_gramian",
    "controllability.verdict", "controllability.strategic_test",
    "hum.solve_hum", "hum.energy", "hum.g_norm", "hum.verify_minimality",
    "solver.forced_solution", "cli.parse",
)
PER_LAYER = {f"{name}_s": "s" for name in LAYER_SPANS}
PER_LAYER.update({
    "cli.overhead_s": "s",
    "spectral.coupling_points": "count",
    "spectral.coupling_mflop_computed": "Mflop",
    "mittag_leffler.table_entries": "count",
    "mittag_leffler.entries_per_s": "1/s",
    "controllability.kernel_nodes": "count",
    "hum.residual_max": "ratio",
    "hum.pinv_gap_max": "ratio",
    "hum.gates_passed_ratio": "ratio",
    "cli.report_bytes": "count",
})
# layers only some workloads reach, so these go to the full record only
PER_LAYER_RECORD = {"solver.free_solution_s": "s", "cli.reproduce_example_s": "s"}

# acceptance-test gates every synthesize must meet
GATES = {"residual_relative": 1e-6, "energy_identity_rel_gap": 1e-6}

SETUP_CODE = """\
import sys
from ultradiff import cli
for path in sys.argv[1:]:
    cli.build_objects(cli.reproduction_scenario() if path == "-"
                      else cli.parse_scenario(path))
print(cli.__file__)
"""


class ProvenanceError(RuntimeError):
    pass


def provenance(seed: int) -> dict:
    """Where the measured code came from; refuses a copy not in this checkout."""
    if NUMPY_WAS_LOADED:
        raise ProvenanceError("numpy was imported before BLAS threads were pinned")
    try:
        import ultradiff
    except ImportError as err:
        raise ProvenanceError(f"ultradiff is not importable from {SRC}: {err}")
    where = Path(ultradiff.__file__).resolve().parent
    if where != (SRC / "ultradiff").resolve():
        raise ProvenanceError(f"ultradiff was imported from {where}, "
                              f"not from {SRC / 'ultradiff'}")
    import scipy

    digest = hashlib.sha256()
    for path in sorted(where.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "ultradiff_path": str(where), "ultradiff_src_sha256": digest.hexdigest(),
        "git_commit": commit, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- operations and their checks -------------------------------------------------


@dataclass
class OpResult:
    op: object
    code: int
    seconds: float
    stdout: str
    stderr: str
    report: bytes | None
    op_id: int | None = None
    counts: Counter = field(default_factory=Counter)


def run_op(op, pass_dir: Path, tracer=None, op_id: int | None = None) -> OpResult:
    """One CLI call, timed; with a tracer, an `op` span plus its layer replays."""
    from ultradiff import cli

    out_dir = pass_dir / "out" / op.key.replace(":", "-")
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = op.argv(pass_dir, out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span("op", op_id) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with span as op_span:
            started = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
            seconds = time.perf_counter() - started
    report_path = out_dir / "report.json"
    result = OpResult(op, code, seconds, stdout.getvalue(), stderr.getvalue(),
                      report_path.read_bytes() if report_path.exists() else None,
                      op_id)
    scenario = (cli.parse_scenario(str(pass_dir / op.scenario)) if op.scenario
                else cli.reproduction_scenario())
    result.counts.update(n_modes=scenario.cutoff ** len(scenario.domain),
                         m=len(scenario.actuators),
                         report_bytes=len(result.report or b""))
    if tracer is not None:
        import replay
        refused = code == 1 and result.stderr.startswith("refused:")
        result.counts.update(replay.replay(tracer, op_span, op, pass_dir, refused))
    return result


def check_op(result: OpResult, first_reports: dict) -> tuple[list, list]:
    """(behaviour problems, accuracy-gate misses) of one finished operation."""
    op, problems, gates = result.op, [], []
    if result.code != op.expect_exit:
        problems.append(f"exit {result.code}, expected {op.expect_exit}")
    if op.refusal and not result.stderr.startswith("refused:"):
        problems.append("stderr does not start with 'refused:'")
    if op.expect_exit != 1 and result.report is None:
        problems.append("no report.json")
    if op.expect_fail_checks is not None:
        failed = sorted(line.split()[1].rstrip(":")
                        for line in result.stdout.splitlines()
                        if line.startswith("FAIL"))
        if failed != sorted(op.expect_fail_checks):
            problems.append(f"FAIL lines {failed}, expected "
                            f"{sorted(op.expect_fail_checks)}")
    if op.repeats_exactly and result.report is not None:
        first = first_reports.setdefault(op.key, result.report)
        if result.report != first:
            problems.append("report.json differs from the first pass")
    if op.verb == "synthesize" and result.report is not None:
        report = json.loads(result.report)
        for key, bound in GATES.items():
            if not report[key] <= bound:
                gates.append(f"{key} {report[key]:.3g} > {bound:g}")
        if not report["minimality"]["passed"]:
            gates.append("minimality failed (rel_pinv_gap "
                         f"{report['minimality']['rel_pinv_gap']:.3g})")
    return problems, gates


# -- a run ---------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0                  # behaviour problems: the result line
    failed_any: int = 0              # behaviour problems or gate misses
    synthesized: int = 0
    gates_passed: int = 0
    residual_max: float = 0.0
    pinv_gap_max: float = 0.0
    problems: dict = field(default_factory=dict)     # message -> count
    first_reports: dict = field(default_factory=dict)

    def add(self, result: OpResult) -> None:
        problems, gates = check_op(result, self.first_reports)
        self.attempted += 1
        self.failed += bool(problems)
        self.failed_any += bool(problems or gates)
        for message in problems + gates:
            key = f"{result.op.key}: {message}"
            self.problems[key] = self.problems.get(key, 0) + 1
        if result.op.verb == "synthesize" and result.report is not None:
            report = json.loads(result.report)
            self.synthesized += 1
            self.gates_passed += not gates
            self.residual_max = max(self.residual_max, report["residual_relative"])
            self.pinv_gap_max = max(self.pinv_gap_max,
                                    report["minimality"]["rel_pinv_gap"])


def write_pass(run_dir: Path, files: dict) -> Path:
    pass_dir = run_dir / "pass"
    pass_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (pass_dir / name).write_bytes(data)
    return pass_dir


def run_pass(ops, pass_dir: Path, tally: Tally, tracer=None,
             next_id: int = 0) -> list[OpResult]:
    results = [run_op(op, pass_dir, tracer, next_id + k)
               for k, op in enumerate(ops)]
    for result in results:
        tally.add(result)
    return results


def pass_counts(results) -> dict:
    total = Counter()
    for result in results:
        total.update(result.counts)
    return dict(sorted(total.items()))


def setup_probe(workload: str, seed: int, run_dir: Path):
    """A function that times one fresh-interpreter set-up: import ultradiff.cli,
    then parse and build every scenario of the workload."""
    files, ops = generate(workload, seed, 0, ROOT)
    setup_dir = write_pass(run_dir / "setup", files)
    paths = sorted({str(setup_dir / op.scenario) if op.scenario else "-"
                    for op in ops})
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def sample() -> float:
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, *paths],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        seconds = time.perf_counter() - started
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()[-500:]}")
        if Path(done.stdout.strip()).resolve().parent != (SRC / "ultradiff").resolve():
            raise RuntimeError(f"set-up imported ultradiff from {done.stdout.strip()}")
        return seconds
    return sample


def verb_seconds(results) -> dict:
    out = {f"{verb.split('-')[0]}_s": 0.0 for verb in VERBS}
    for result in results:
        out[f"{result.op.verb.split('-')[0]}_s"] += result.seconds
    out["run_s"] = sum(result.seconds for result in results)
    return out


def layer_values(tracer, results) -> dict:
    op_ids = [r.op_id for r in results]
    self_s = tracer.self_seconds(op_ids)
    counts = pass_counts(results)
    values = {f"{name}_s": self_s.get(name, 0.0)
              for name in LAYER_SPANS + ("solver.free_solution",
                                         "cli.reproduce_example")}
    values["cli.overhead_s"] = self_s.get("op", 0.0)
    values["spectral.coupling_points"] = counts.get("coupling_points", 0)
    values["spectral.coupling_mflop_computed"] = 2e-6 * sum(
        r.counts["n_modes"] * r.counts["coupling_points"] for r in results)
    values["mittag_leffler.table_entries"] = counts.get("table_entries", 0)
    table_s = values["mittag_leffler.table_s"]
    values["mittag_leffler.entries_per_s"] = (
        values["mittag_leffler.table_entries"] / table_s if table_s > 0 else 0.0)
    values["controllability.kernel_nodes"] = counts.get("kernel_nodes", 0)
    values["cli.report_bytes"] = counts["report_bytes"]
    return values


def summarize(samples, fastest: bool = False) -> dict:
    """The reported value (the minimum if `fastest`, else the median), the
    median, the highest percentile with >= 10 samples beyond it, and n."""
    ordered = sorted(samples)
    median = statistics.median(ordered)
    out = {"value": ordered[0] if fastest else median, "median": median,
           "min": ordered[0], "n": len(ordered)}
    if len(ordered) <= 20:
        out["samples"] = list(samples)
    for pct in (99.9, 99.0, 90.0, 75.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = statistics.quantiles(
                ordered, n=1000, method="inclusive")[round(pct * 10) - 1]
            break
    return out


def check_counts(workload: str, seed: int, trace: int, per_pass: list,
                 source: str) -> list:
    """Counts must repeat across passes (report sizes aside) and across runs of
    the same sources with the same seed; the first such run records them."""
    problems = []
    structure = [{k: v for k, v in c.items() if k != "report_bytes"}
                 for c in per_pass]
    if any(s != structure[0] for s in structure):
        problems.append("counts differ between passes of this run")
    record = (WORK / "counts" /
              f"{workload}-seed{seed}-trace{trace}-{source[:12]}.json")
    if record.exists():
        earlier = json.loads(record.read_text(encoding="utf-8"))
        shared = min(len(earlier), len(per_pass))
        if earlier[:shared] != per_pass[:shared]:
            problems.append(f"counts differ from an earlier run with seed {seed}")
        per_pass = max(earlier, per_pass, key=len)
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(per_pass) + "\n", encoding="utf-8")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool,
            run_dir: Path) -> dict:
    import replay

    tally, tracer = Tally(), replay.Tracer()
    plain, traced, overhead, per_pass_counts = [], [], [], []
    # set-ups are spread over the run, so that they see the same host as passes
    probe = None if trace else setup_probe(workload, seed, run_dir)
    setup = []
    started, pass_walls, index = time.perf_counter(), [], 0
    while True:
        while probe and len(setup) < SETUP_REPEATS and (
                time.perf_counter() - started >= len(setup) * seconds / SETUP_REPEATS):
            setup.append(probe())
        pass_started = time.perf_counter()
        files, ops = generate(workload, seed, index, ROOT)
        pass_dir = write_pass(run_dir, files)
        if trace:
            order = (None, tracer) if index % 2 == 0 else (tracer, None)
            both = {t: run_pass(ops, pass_dir, tally, t, index * len(ops))
                    for t in order}
            traced.append(layer_values(tracer, both[tracer]))
            plain.append(verb_seconds(both[None]))
            overhead.append(tracer.op_seconds(r.op_id for r in both[tracer])
                            - plain[-1]["run_s"])
            per_pass_counts.append(pass_counts(both[tracer]))
        else:
            results = run_pass(ops, pass_dir, tally)
            plain.append(verb_seconds(results))
            per_pass_counts.append(pass_counts(results))
        pass_walls.append(time.perf_counter() - pass_started)
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(pass_walls) > seconds:
            break
    while probe and len(setup) < SETUP_REPEATS:
        setup.append(probe())
    spans = None
    if trace:
        spans = WORK / "traces" / f"{workload}-seed{seed}.json"
        tracer.dump(spans)
    return {"tally": tally, "plain": plain, "traced": traced,
            "overhead": overhead, "counts": per_pass_counts, "spans": spans,
            "setup": setup,
            "measured_s": time.perf_counter() - started}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        prov = provenance(args.seed)
    except ProvenanceError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    import logging
    # the CLI's log lines go nowhere, at its default level, so that stderr
    # holds only what the checks read
    logging.basicConfig(level=logging.WARNING,
                        stream=open(os.devnull, "w", encoding="utf-8"))
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tally = run["tally"]
    problems = check_counts(args.workload, args.seed, args.trace, run["counts"],
                            prov["ultradiff_src_sha256"])
    for message in problems:
        tally.problems[message] = 1
    correct = tally.failed == 0 and not problems
    gates_ratio = (tally.gates_passed / tally.synthesized
                   if tally.synthesized else 1.0)

    units = {**END_TO_END, **END_TO_END_RECORD, **PER_LAYER, **PER_LAYER_RECORD,
             "tracing_overhead_s": "s"}
    record = {}
    for name in ("run_s", "analyze_s", "synthesize_s", "simulate_s",
                 "reproduce_s"):
        record[name] = summarize([p[name] for p in run["plain"]], fastest=True)
    if not args.trace:
        record["setup_s"] = summarize(run["setup"])
        record["peak_rss_mb"] = {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "n": 1}
    record["fail_ratio"] = {"value": tally.failed_any / tally.attempted, "n": 1}
    if args.trace:
        for name in run["traced"][0]:
            record[name] = summarize([t[name] for t in run["traced"]],
                                     fastest=units[name] == "s")
        record["hum.residual_max"] = {"value": tally.residual_max, "n": 1}
        record["hum.pinv_gap_max"] = {"value": tally.pinv_gap_max, "n": 1}
        record["hum.gates_passed_ratio"] = {"value": gates_ratio, "n": 1}
        record["tracing_overhead_s"] = summarize(run["overhead"])
    for name, entry in record.items():
        entry["unit"] = units[name]

    shown = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": record[name]["value"], "unit": unit}
               for name, unit in shown.items()}
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(run["plain"]), "measured_s": run["measured_s"],
        "operations": {"attempted": tally.attempted, "failed": tally.failed,
                       "failed_or_gate_missed": tally.failed_any,
                       "synthesize": tally.synthesized,
                       "synthesize_gates_passed": tally.gates_passed},
        "problems": tally.problems, "counts": run["counts"][0],
        "metrics": record, "provenance": prov,
        "spans_file": run["spans"] and str(run["spans"].relative_to(ROOT)),
    }
    print(json.dumps(full, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
