"""Traced runs: an `op` span per CLI call, then child spans that replay its layers.

The CLI has no spans of its own, so after each traced operation the benchmark
replays the public calls the verb makes, in the verb's order and with the same
inputs, each inside a span named after its layer.  Replays run after the
operation, not inside it; they are its children by attribution.  A span's self
time is its duration minus the durations of its children, so the self times of
an operation and its replays add up to the operation's wall time, and the
`op` span's self time is the CLI's own overhead (parsing, validation, report
writing) that no replay covers.

Counts are taken at the same boundaries: quadrature points of the actuator
couplings, the Gramian's kernel nodes and its Mittag-Leffler table entries.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ultradiff import cli
from ultradiff._quadrature import kernel_rule
from ultradiff.controllability import (approx_controllability_verdict,
                                       assemble_gramian, strategic_test)
from ultradiff.hum import (RESIDUAL_NODES, HumProblem, energy, g_norm,
                           solve_hum, verify_minimality)
from ultradiff.logtime import LogTimeWindow
from ultradiff.mittag_leffler import ml_on_negative_axis
from ultradiff.solver import EnergyDivergenceError, forced_solution, free_solution
from ultradiff.spectral import (actuator_coefficients, box_quadrature,
                                default_order, gradient_gram)


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; `dump` writes them out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        span = Span(len(self.spans), name, op, parent, time.perf_counter())
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def self_seconds(self, op_ids) -> Counter:
        """Summed self time per span name over the spans of the given ops."""
        op_ids = set(op_ids)
        spans = [s for s in self.spans if s.op in op_ids]
        children = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                children[s.parent] += s.seconds
        out = Counter()
        for s in spans:
            out[s.name] += s.seconds - children[s.id]
        return out

    def op_seconds(self, op_ids) -> float:
        op_ids = set(op_ids)
        return sum(s.seconds for s in self.spans
                   if s.op in op_ids and s.name == "op")

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dataclasses.asdict(s) for s in self.spans])
                        + "\n", encoding="utf-8")


class _Replay:
    def __init__(self, tracer: Tracer, op_span: Span) -> None:
        self.tracer, self.op_span = tracer, op_span
        self.counts = Counter()

    def call(self, name, fn, *args, parent: Span | None = None, **kwargs):
        parent_id = (parent or self.op_span).id
        with self.tracer.span(name, self.op_span.op, parent_id):
            return fn(*args, **kwargs)

    def couplings(self, actuators, basis, order):
        coeffs = self.call("spectral.actuator_coefficients",
                           actuator_coefficients, actuators, basis, order)
        self.counts["coupling_points"] += sum(
            box_quadrature(box, order)[1].size
            for act in actuators.actuators for box in act.support.boxes)
        return coeffs

    def gramian(self, scenario, basis, region, actuators):
        window = LogTimeWindow(*scenario.window)
        order = default_order(basis)
        coeffs = self.couplings(actuators, basis, order)
        gram = self.call("spectral.gradient_gram", gradient_gram, basis, region,
                         order)
        tracer, op = self.tracer, self.op_span.op
        with tracer.span("controllability.assemble_gramian", op,
                         self.op_span.id) as assemble:
            gramian = assemble_gramian(basis, region, actuators, scenario.alpha,
                                       window, epsilon=scenario.epsilon_cutoff,
                                       coefficient_matrix=coeffs, gram=gram)
        # the Gramian's E_{a,a} table, replayed on its own kernel nodes
        alpha = gramian.alpha
        taus, _ = kernel_rule(alpha, 2.0 * (alpha - 1.0), n=gramian.kernel_nodes,
                              eps=gramian.epsilon_cutoff or 0.0,
                              length=window.length)
        z = -np.outer(basis.lams, taus ** alpha).ravel()
        self.call("mittag_leffler.table", ml_on_negative_axis, alpha, alpha, z,
                  parent=assemble)
        self.counts["kernel_nodes"] += gramian.kernel_nodes
        self.counts["table_entries"] += z.size
        self.call("controllability.verdict", approx_controllability_verdict,
                  gramian, scenario.threshold)
        return gramian


def replay(tracer: Tracer, op_span: Span, op, pass_dir: Path,
           refused: bool) -> Counter:
    """Replay the layers of one finished operation; returns its counts."""
    r = _Replay(tracer, op_span)
    if op.verb == "reproduce-example":
        base = cli.reproduction_scenario()
        r.call("cli.reproduce_example", cli.reproduce_example, base.cutoff,
               family=base.family, epsilon=base.epsilon_cutoff)
        return r.counts
    scenario = r.call("cli.parse", cli.parse_scenario, str(pass_dir / op.scenario))
    if op.epsilon is not None:
        scenario = dataclasses.replace(scenario, epsilon_cutoff=op.epsilon)
    _, basis, region, actuators = r.call("spectral.basis", cli.build_objects,
                                         scenario)
    window = LogTimeWindow(*scenario.window)
    if refused:
        # the refusal is raised before any table is built
        try:
            r.call("controllability.assemble_gramian", assemble_gramian, basis,
                   region, actuators, scenario.alpha, window,
                   epsilon=scenario.epsilon_cutoff)
        except EnergyDivergenceError:
            pass
        return r.counts

    if op.verb == "simulate":
        n_modes = len(basis.modes)
        y0 = np.zeros(n_modes) if scenario.y0 is None else np.array(scenario.y0)
        n_samples = 33
        times = window.a * (window.b / window.a) ** (np.arange(n_samples)
                                                     / (n_samples - 1))
        times[-1] = window.b

        def evolve():
            for t in times:
                free_solution(y0, basis, scenario.alpha, window, t)
            return free_solution(y0, basis, scenario.alpha, window, window.b)
        r.call("solver.free_solution", evolve)
        r.call("spectral.gradient_gram", gradient_gram, basis, region)
        return r.counts

    gramian = r.gramian(scenario, basis, region, actuators)
    if op.verb == "analyze":
        r.call("controllability.strategic_test", strategic_test, basis, region,
               actuators, alpha=scenario.alpha, window=window,
               gram=gramian.gram, coefficient_matrix=gramian.coefficient_matrix)
        return r.counts

    target = cli._target_coefficients(scenario, len(basis.modes))
    y0 = None if scenario.y0 is None else np.array(scenario.y0)
    problem = HumProblem(basis, region, actuators, scenario.alpha, window, target,
                         y0_coefficients=y0,
                         epsilon_cutoff=scenario.epsilon_cutoff)
    with tracer.span("hum.solve_hum", op_span.op, op_span.id) as solve:
        solution = solve_hum(problem, threshold=scenario.threshold,
                             gramian=gramian)
    # solve_hum re-simulates the controlled state and prices the control
    r.call("solver.forced_solution", forced_solution, actuators, basis,
           solution.control, scenario.alpha, window, window.b,
           nodes=RESIDUAL_NODES, coefficient_matrix=gramian.coefficient_matrix,
           epsilon=scenario.epsilon_cutoff, parent=solve)
    r.call("hum.energy", energy, solution.control, nodes=gramian.kernel_nodes,
           parent=solve)
    r.call("hum.g_norm", g_norm, solution.g_coefficients, solution.gramian)
    r.call("hum.verify_minimality", verify_minimality, solution, trials=12,
           seed=scenario.seed)
    return r.counts
