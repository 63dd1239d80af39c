"""Scenario-driven command line: parse a JSON scenario, run it, emit reports.

Verbs
-----
simulate            free evolution of the initial coefficients; state tables
analyze             Gramian verdict + strategic actuator test (exit 2 on NOT)
synthesize          minimum-energy control for the scenario target
reproduce-example   built-in worked-example checks with golden comparisons
selftest            quick internal consistency battery; takes no options

Every other verb takes --out and --cutoff; all but reproduce-example (which
runs its built-in scenario) --scenario, and all but simulate --epsilon.

Scenario schema (JSON object; every length in domain units, every time > 0):

    name             str, report/artifact prefix
    task             "simulate" | "analyze" | "synthesize" | "reproduce-example"
    domain           [[lo, hi], ...]            one pair per axis
    family           "canonical" | "whole-wave"
    cutoff           int >= 1, per-axis mode count K (K^ndim modes total)
    alpha            float in (0, 1]
    window           [a, b], 0 < a < b          log-time horizon
    region           [box, ...], box = [[lo, hi], ...]   observation region
    actuators        [{support: [box, ...], profile: str,
                       coefficients: [...], label: str}, ...]
    target           null | {kind: "coefficients", values: [...]}
                          | {kind: "random-span", seed: int, scale: float}
    y0               null (zero state) | [K^ndim floats]
    epsilon_cutoff   null | float in (0, log(b/a))
    threshold        float > 0, verdict threshold (default 1e-10)
    seed             int (default 0)
    out              null | str, default output directory

Actuator profiles: "constant" takes [c]; "polynomial" takes flat groups of
1 + ndim numbers (coefficient, then one non-negative integer power per axis);
"product-of-sines" takes [amplitude, k_1, ..., k_ndim] for
amp * prod sin(k_i pi (x_i - lo_i) / len_i); "mode" takes [p] and resolves to
the p-th basis eigenfunction (0-based, in the basis ordering).

Reports: report.json (sorted keys, no timestamps — byte-identical across
runs of the same scenario), CSV tables per task, and report.timing.json as a
sidecar so wall-clock numbers never break determinism; for synthesize it also
holds a numerics block (W's kept rank, the solve's condition number).  The
environment variable ULTRADIFF_LOG_LEVEL sets the log level (default WARNING);
every main() call reads it, and an unknown name exits 1.

Exit codes: 0 success, 1 error, 2 negative controllability verdict from
`analyze` (and a reproduce-example run whose golden checks did not all pass).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .controllability import (VERDICT_THRESHOLD, approx_controllability_verdict,
                              assemble_gramian, strategic_test,
                              worked_example_pairing_table)
from .hum import RESIDUAL_NODES, HumProblem, energy, solve_hum, verify_minimality
from .logtime import LogTimeWindow
from .solver import (DEFAULT_CONTROL_NODES, KERNEL_NODES, ControlSignal,
                     EnergyDivergenceError, free_solution)
from .spectral import (Actuator, ActuatorSet, RectDomain, Region,
                       SeparableProfile, SpectralBasis, actuator_coefficients,
                       default_order, gradient_gram, overlapping_pairs)

logger = logging.getLogger(__name__)

TASKS = ("simulate", "analyze", "synthesize", "reproduce-example")
FAMILIES = ("canonical", "whole-wave")
PROFILES = ("constant", "polynomial", "product-of-sines", "mode")


class ScenarioError(ValueError):
    """Carries every schema violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scenario:\n" +
                         "\n".join(f"  - {v}" for v in self.violations))


@dataclass(frozen=True)
class ActuatorSpec:
    support: tuple            # tuple of boxes, box = ((lo, hi), ...)
    profile: str
    coefficients: tuple
    label: str = ""


@dataclass(frozen=True)
class TargetSpec:
    kind: str                 # "coefficients" | "random-span"
    values: tuple | None = None
    seed: int = 0
    scale: float = 1.0


@dataclass(frozen=True)
class Scenario:
    name: str
    task: str
    domain: tuple             # ((lo, hi), ...)
    family: str
    cutoff: int
    alpha: float
    window: tuple             # (a, b)
    region: tuple             # tuple of boxes
    actuators: tuple          # tuple of ActuatorSpec
    target: TargetSpec | None = None
    y0: tuple | None = None
    epsilon_cutoff: float | None = None
    threshold: float = VERDICT_THRESHOLD
    seed: int = 0
    out: str | None = None


# -- parsing ------------------------------------------------------------------


def _numbers(raw, path, bad, expected="a list of finite numbers", length=None):
    """`raw` as a tuple of floats, or None with a violation appended: it must
    be a list (of `length` entries, if given) of finite JSON numbers."""
    if isinstance(raw, (list, tuple)) and length in (None, len(raw)) and not any(
            issubclass(kind, (str, bytes, bool)) for kind in set(map(type, raw))):
        try:
            values = tuple(map(float, raw))
        except (TypeError, OverflowError):      # a list, or an int past float range
            values = (math.nan,)
        if all(map(math.isfinite, values)):
            return values
    bad.append(f"{path}: expected {expected}")
    return None


def _scalar(raw, path, bad, expected="a finite number"):
    """`raw` as a float under `_numbers`' rule, or None with a violation."""
    values = _numbers([raw], path, bad, expected)
    return None if values is None else values[0]


def _integer(raw, path, bad):
    """`raw` as a non-negative int (a seed), or None with a violation."""
    value = _scalar(raw, path, [])
    if value is not None and value >= 0 and value.is_integer():
        return int(raw)
    bad.append(f"{path}: expected a non-negative integer")
    return None


def _pair(raw, path, bad, *, positive=False):
    pair = _numbers(raw, path, bad, "a [lo, hi] pair of finite numbers", 2)
    if pair is None:
        return None
    lo, hi = pair
    if positive and lo <= 0:
        bad.append(f"{path}: left endpoint must be positive")
        return None
    if hi <= lo:
        bad.append(f"{path}: right endpoint must exceed the left")
        return None
    return pair


def _box(raw, path, ndim, domain, bad):
    if not isinstance(raw, (list, tuple)) or len(raw) != ndim:
        bad.append(f"{path}: expected {ndim} [lo, hi] pairs")
        return None
    out = []
    for axis, pair_raw in enumerate(raw):
        pair = _pair(pair_raw, f"{path}[{axis}]", bad)
        if pair is None:
            return None
        if domain is not None and (pair[0] < domain[axis][0] - 1e-12 or
                                   pair[1] > domain[axis][1] + 1e-12):
            bad.append(f"{path}[{axis}]: lies outside the domain "
                       f"[{domain[axis][0]:g}, {domain[axis][1]:g}]")
            return None
        out.append(pair)
    return tuple(out)


def _disjoint(boxes, path, bad) -> tuple:
    """The parsed boxes (None marks one that failed to parse), with a
    violation appended for each pair whose interiors meet."""
    kept = [i for i, box in enumerate(boxes) if box is not None]
    for i, j in overlapping_pairs([boxes[i] for i in kept]):
        bad.append(f"{path}: boxes {kept[i]} and {kept[j]} overlap")
    return tuple(boxes[i] for i in kept)


_KNOWN_KEYS = {spec: frozenset(field.name for field in dataclasses.fields(spec))
               for spec in (ActuatorSpec, TargetSpec, Scenario)}


def _unknown_keys(raw: dict, spec, prefix: str, bad) -> None:
    """One violation per key of `raw` that names no field of `spec`."""
    known = _KNOWN_KEYS[spec]
    bad.extend(f"{prefix}{key}: unknown key" for key in raw if key not in known)


def _parse_actuator(raw, idx, ndim, domain, bad) -> ActuatorSpec | None:
    path = f"actuators[{idx}]"
    if not isinstance(raw, dict):
        bad.append(f"{path}: expected an object")
        return None
    _unknown_keys(raw, ActuatorSpec, f"{path}.", bad)
    support_raw = raw.get("support")
    boxes = ()
    if not isinstance(support_raw, (list, tuple)) or not support_raw:
        bad.append(f"{path}.support: expected a non-empty list of boxes")
    else:
        boxes = _disjoint([_box(b, f"{path}.support[{j}]", ndim, domain, bad)
                           for j, b in enumerate(support_raw)],
                          f"{path}.support", bad)
    profile = raw.get("profile")
    if profile not in PROFILES:
        bad.append(f"{path}.profile: expected one of {', '.join(PROFILES)}")
        profile = "constant"
    coeffs = _numbers(raw.get("coefficients", [1.0]), f"{path}.coefficients", bad)
    if coeffs is None:
        coeffs = (1.0,)
    if profile == "polynomial" and (not coeffs or len(coeffs) % (1 + ndim)):
        bad.append(f"{path}.coefficients: polynomial profile needs flat groups "
                   f"of {1 + ndim} numbers (coefficient + {ndim} powers)")
    elif profile == "polynomial" and any(p != int(p) or p < 0 for j, p in
                                         enumerate(coeffs) if j % (1 + ndim)):
        bad.append(f"{path}.coefficients: polynomial powers must be "
                   f"non-negative integers")
    if profile == "product-of-sines" and len(coeffs) != 1 + ndim:
        bad.append(f"{path}.coefficients: product-of-sines profile needs "
                   f"[amplitude, k_1..k_{ndim}]")
    if profile == "mode" and (len(coeffs) != 1 or coeffs[0] != int(coeffs[0])
                              or coeffs[0] < 0):
        bad.append(f"{path}.coefficients: mode profile needs one "
                   f"non-negative integer index")
    return ActuatorSpec(boxes, profile, coeffs,
                        str(raw.get("label", "")))


def _parse_target(raw, n_modes, bad) -> TargetSpec | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        bad.append("target: expected an object or null")
        return None
    _unknown_keys(raw, TargetSpec, "target.", bad)
    kind = raw.get("kind")
    if kind == "coefficients":
        values = _numbers(raw.get("values"), "target.values", bad)
        if values is None:
            return None
        if n_modes is not None and len(values) != n_modes:
            bad.append(f"target.values: expected {n_modes} coefficients "
                       f"(cutoff^ndim), got {len(values)}")
        return TargetSpec("coefficients", values=values)
    if kind == "random-span":
        seed = _integer(raw.get("seed", 0), "target.seed", bad)
        scale = _scalar(raw.get("scale", 1.0), "target.scale", bad)
        if seed is None or scale is None:
            return None
        return TargetSpec("random-span", seed=seed, scale=scale)
    bad.append("target.kind: expected \"coefficients\" or \"random-span\"")
    return None


def scenario_from_dict(data: dict) -> Scenario:
    bad: list[str] = []
    if not isinstance(data, dict):
        raise ScenarioError(["top level: expected a JSON object"])
    _unknown_keys(data, Scenario, "", bad)

    name = str(data.get("name", "scenario"))
    task = data.get("task")
    if task not in TASKS:
        bad.append(f"task: expected one of {', '.join(TASKS)}")
        task = "analyze"

    domain_raw = data.get("domain")
    domain = None
    if not isinstance(domain_raw, (list, tuple)) or not domain_raw:
        bad.append("domain: expected a non-empty list of [lo, hi] pairs")
    else:
        pairs = [_pair(p, f"domain[{i}]", bad) for i, p in enumerate(domain_raw)]
        if all(p is not None for p in pairs):
            domain = tuple(pairs)
    ndim = len(domain) if domain else None

    family = data.get("family", "canonical")
    if family not in FAMILIES:
        bad.append(f"family: expected one of {', '.join(FAMILIES)}")
        family = "canonical"
    if family == "whole-wave" and domain is not None:
        for axis, (lo, hi) in enumerate(domain):
            if lo != int(lo) or hi != int(hi):
                bad.append(f"domain[{axis}]: whole-wave family needs integer "
                           f"endpoints")

    cutoff = data.get("cutoff", 6)
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 1:
        bad.append("cutoff: expected an integer >= 1")
        cutoff = 6
    n_modes = cutoff ** ndim if ndim else None

    alpha = _scalar(data.get("alpha"), "alpha", bad)
    if alpha is not None and not 0.0 < alpha <= 1.0:
        bad.append("alpha: must lie in (0, 1]")

    window_raw = data.get("window")
    window = _pair(window_raw, "window", bad, positive=True) \
        if window_raw is not None else None
    if window_raw is None:
        bad.append("window: required [a, b] with 0 < a < b")

    region = ()
    region_raw = data.get("region")
    if not isinstance(region_raw, (list, tuple)) or not region_raw:
        bad.append("region: expected a non-empty list of boxes")
    elif ndim is not None:
        region = _disjoint([_box(b, f"region[{i}]", ndim, domain, bad)
                            for i, b in enumerate(region_raw)], "region", bad)

    actuators = ()
    actuators_raw = data.get("actuators")
    if not isinstance(actuators_raw, (list, tuple)) or not actuators_raw:
        bad.append("actuators: expected a non-empty list")
    elif ndim is not None:
        specs = [_parse_actuator(a, i, ndim, domain, bad)
                 for i, a in enumerate(actuators_raw)]
        actuators = tuple(s for s in specs if s is not None)
        for i, spec in enumerate(specs):
            if spec is not None and spec.profile == "mode" and n_modes and \
                    spec.coefficients and spec.coefficients[0] >= n_modes:
                bad.append(f"actuators[{i}].coefficients: mode index "
                           f"{int(spec.coefficients[0])} outside the "
                           f"{n_modes}-mode truncation")

    target = _parse_target(data.get("target"), n_modes, bad)
    if task == "synthesize" and target is None:
        bad.append("target: required for the synthesize task")

    y0 = data.get("y0")
    if y0 is not None:
        y0 = _numbers(y0, "y0", bad, "a list of finite numbers or null")
        if y0 is not None and n_modes is not None and len(y0) != n_modes:
            bad.append(f"y0: expected {n_modes} coefficients, got {len(y0)}")

    eps = data.get("epsilon_cutoff")
    if eps is not None:
        eps = _scalar(eps, "epsilon_cutoff", bad, "a finite number or null")
        horizon = math.log(window[1] / window[0]) if window else None
        if eps is not None and (eps <= 0 or (horizon is not None and eps >= horizon)):
            bad.append("epsilon_cutoff: must lie in (0, log(b/a))")

    threshold = _scalar(data.get("threshold", VERDICT_THRESHOLD), "threshold", bad)
    if threshold is not None and not threshold > 0:
        bad.append("threshold: must be positive")
    seed = _integer(data.get("seed", 0), "seed", bad)

    out = data.get("out")
    if out is not None and not isinstance(out, str):
        bad.append("out: expected a string path or null")
        out = None

    if bad:
        raise ScenarioError(bad)
    return Scenario(name, task, domain, family, cutoff, alpha, window, region,
                    actuators, target, y0, eps, threshold, seed, out)


def parse_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ScenarioError([f"file: {err}"]) from err
    except json.JSONDecodeError as err:
        raise ScenarioError([f"file: not valid JSON ({err})"]) from err
    return scenario_from_dict(data)


# -- scenario -> library objects ----------------------------------------------


def _profile_fn(spec: ActuatorSpec, domain: RectDomain,
                basis: SpectralBasis) -> SeparableProfile:
    coeffs, ndim = spec.coefficients, domain.ndim
    if spec.profile == "constant":
        level = coeffs[0] if coeffs else 1.0
        return SeparableProfile(((level, (np.ones_like,) * ndim),))
    if spec.profile == "polynomial":
        return SeparableProfile(
            (coeffs[j], tuple((lambda x, power=power: x ** power)
                              for power in coeffs[j + 1:j + 1 + ndim]))
            for j in range(0, len(coeffs), 1 + ndim))
    if spec.profile == "product-of-sines":
        amp, ks = coeffs[0], coeffs[1:]
        return SeparableProfile(((amp, tuple(
            (lambda x, k=k, lo=lo, hi=hi: np.sin(k * math.pi * (x - lo) / (hi - lo)))
            for k, (lo, hi) in zip(ks, domain.bounds))),))
    return basis.mode_profile(int(coeffs[0]))


def build_objects(scenario: Scenario):
    """Scenario -> (domain, basis, region, actuators) library objects."""
    domain = RectDomain(scenario.domain)
    basis = SpectralBasis(domain, scenario.cutoff, family=scenario.family)
    region = Region(domain, scenario.region)
    regions = {support: Region(domain, support)     # one per distinct support
               for support in dict.fromkeys(spec.support for spec in scenario.actuators)}
    actuators = ActuatorSet(tuple(
        Actuator(regions[spec.support], _profile_fn(spec, domain, basis),
                 spec.label or f"{spec.profile}-{i}")
        for i, spec in enumerate(scenario.actuators)))
    return domain, basis, region, actuators


def _target_coefficients(scenario: Scenario, n_modes: int) -> np.ndarray:
    spec = scenario.target
    if spec is None:
        raise ScenarioError(["target: required for the synthesize task"])
    if spec.kind == "coefficients":
        return np.array(spec.values, dtype=float)
    rng = np.random.default_rng(spec.seed)
    return spec.scale * rng.standard_normal(n_modes)


# -- report plumbing ------------------------------------------------------------


def _encode(obj, write, pad: str = "\n", lead: str = "") -> None:
    """Write `lead` and obj's JSON text in pieces, in one pass, as
    json.dumps(obj, sort_keys=True, indent=2) writes it at the indent `pad`:
    dataclasses as dicts, arrays as lists, keys by str, non-finite floats as
    "inf"/"nan".  A container passes each item's separator, indent and key as
    its `lead`, so a leaf is one piece."""
    if isinstance(obj, (float, np.floating)):       # leaves first
        text = repr(float(obj))
        write(lead + (text if math.isfinite(obj) else f'"{text}"'))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        inner, sep = pad + "  ", lead + "["
        for value in (obj.tolist() if isinstance(obj, np.ndarray) else obj):
            _encode(value, write, inner, sep + inner)
            sep = ","
        write(pad + "]" if sep == "," else sep + "]")
    elif isinstance(obj, str):
        write(lead + encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, (bool, np.bool_)):
        write(lead + ("null" if obj is None else "true" if obj else "false"))
    elif isinstance(obj, (int, np.integer)):
        write(lead + repr(int(obj)))
    else:               # a dict, or a dataclass: dataclasses.fields refuses the rest
        fields = obj if isinstance(obj, dict) else {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        inner, sep = pad + "  ", lead + "{"
        for key, value in sorted({str(k): v for k, v in fields.items()}.items()):
            _encode(value, write, inner, f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            sep = ","
        write(pad + "}" if sep == "," else sep + "}")


def _write_json(path: str, obj) -> None:
    """obj as strict JSON text (`_encode`), written once it is whole."""
    chunks: list[str] = []
    _encode(obj, chunks.append)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(chunks) + "\n")


def write_report(report: dict, out_dir: str, tables: dict) -> None:
    """report.json and one CSV per table (name -> (header, rows)) in out_dir.
    Cells are ints, floats, bools and plain names, written unquoted by str."""
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"), report)
    for table_name, (header, rows) in tables.items():
        path = os.path.join(out_dir, f"{table_name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(",".join(map(str, row)) + "\n"
                             for row in [header, *rows]))


def _base_report(scenario: Scenario, basis: SpectralBasis, kernel_map=None,
                 residual_map=None) -> dict:
    """Report header.  Given the Gramian's and the residual's input maps, the
    quadrature block reports their nodes and ||W_res - W||_F / ||W||_F."""
    quadrature = {"spatial_order": default_order(basis),
                  "kernel_nodes": KERNEL_NODES,
                  "control_nodes": DEFAULT_CONTROL_NODES,
                  "residual_nodes": RESIDUAL_NODES}
    if kernel_map is not None:
        norm = float(np.linalg.norm(kernel_map.matrix))
        change = float(np.linalg.norm(residual_map.matrix - kernel_map.matrix))
        quadrature.update(kernel_nodes=kernel_map.kernel_nodes,
                          residual_nodes=residual_map.kernel_nodes,
                          quadrature_rel_change=change / norm if norm else 0.0)
    return {"tool_version": __version__, "scenario": scenario,
            "quadrature": quadrature}


# -- task runners: scenario -> (exit code, report, tables) ----------------------


def analysis(scenario: Scenario):
    """Scenario -> (basis, region, actuators, Gramian, verdict): the assembly
    and verdict that `analyze` and the worked-example checks share."""
    _, basis, region, actuators = build_objects(scenario)
    gramian = assemble_gramian(basis, region, actuators, scenario.alpha,
                               LogTimeWindow(*scenario.window),
                               epsilon=scenario.epsilon_cutoff)
    verdict = approx_controllability_verdict(gramian, scenario.threshold)
    return basis, region, actuators, gramian, verdict


def run_simulate(scenario: Scenario) -> tuple[int, dict, dict]:
    _, basis, region, _ = build_objects(scenario)
    window = LogTimeWindow(*scenario.window)
    n_modes = len(basis.modes)
    y0 = np.zeros(n_modes) if scenario.y0 is None else np.array(scenario.y0)
    if scenario.y0 is None:
        logger.warning("simulate with y0 = null evolves the zero state")

    n_samples = 33
    ratio = window.b / window.a
    times = window.a * ratio ** (np.arange(n_samples) / (n_samples - 1))
    times[-1] = window.b
    series = free_solution(y0, basis, scenario.alpha, window, times)
    # the state at b is series[-1]; its gradient's norm over the region is |R_Gamma z|
    seminorm = float(np.linalg.norm(gradient_gram(basis, region).factor @ series[-1]))

    report = _base_report(scenario, basis)
    report.update({
        "task": "simulate",
        "final_coefficients": series[-1],
        "final_gradient_seminorm_on_region": seminorm,
        "sample_times": times,
    })
    tables = {
        f"{scenario.name}-state-series": (
            ["t"] + [f"c_{p}" for p in range(n_modes)],
            np.column_stack((times, series)).tolist()),
    }
    return 0, report, tables


def run_analyze(scenario: Scenario) -> tuple[int, dict, dict]:
    basis, region, actuators, gramian, verdict = analysis(scenario)
    strategic = strategic_test(basis, region, actuators, alpha=scenario.alpha,
                               window=LogTimeWindow(*scenario.window),
                               gram=gramian.gram,
                               coefficient_matrix=gramian.coefficient_matrix)
    report = _base_report(scenario, basis, gramian,
                          gramian.with_nodes(RESIDUAL_NODES))
    report.update({
        "task": "analyze",
        **dataclasses.asdict(verdict),
        "strategic": {key: getattr(strategic, key) for key in (
            "verdict", "criterion", "m", "sup_multiplicity", "stacked_rank",
            "required_rank")},
    })
    eigs = gramian.pencil_eigenvalues
    tables = {
        f"{scenario.name}-spectrum": (
            ["index", "coordinate_operator_eigenvalue"],
            [[i, v] for i, v in enumerate(eigs.tolist())]),
    }
    return (0 if verdict.controllable else 2), report, tables


def run_synthesize(scenario: Scenario) -> tuple[int, dict, dict]:
    _, basis, region, actuators = build_objects(scenario)
    window = LogTimeWindow(*scenario.window)
    n_modes = len(basis.modes)
    target = _target_coefficients(scenario, n_modes)
    y0 = None if scenario.y0 is None else np.array(scenario.y0)
    problem = HumProblem(basis, region, actuators, scenario.alpha, window,
                         target, y0_coefficients=y0,
                         epsilon_cutoff=scenario.epsilon_cutoff)
    solution = solve_hum(problem, threshold=scenario.threshold)
    minimality = verify_minimality(solution, trials=12, seed=scenario.seed)

    u = solution.control
    taus = u.tau_grid
    values = u.values
    times = u.times()
    report = _base_report(scenario, basis, solution.gramian, solution.residual_map)
    report.update({
        "task": "synthesize",
        "verdict": solution.verdict.verdict,
        "ill_posed": solution.ill_posed,
        "energy": solution.energy,
        "dual_norm_squared": solution.dual_norm_squared,
        "energy_identity_rel_gap": solution.energy_identity_gap,
        "residual_relative": solution.residual_relative,
        "adjoint_datum": solution.adjoint_datum,
        "dual_coefficients": solution.g_coefficients,
        "minimality": {key: getattr(minimality, key) for key in (
            "mode", "trials_passed", "trials_requested", "rel_pinv_gap", "passed")},
        "epsilon_cutoff": scenario.epsilon_cutoff,
        # main() moves this block to report.timing.json; report.json keeps none
        "numerics": {"kept_rank": solution.kept_rank,
                     "solve_condition_number": solution.solve_condition_number},
    })
    tables = {
        f"{scenario.name}-u-star": (
            ["t", "tau"] + [f"u_{i + 1}" for i in range(u.m)],
            np.vstack((times, taus, values)).T.tolist()),
    }
    return 0, report, tables


# -- worked-example reproduction ------------------------------------------------


def reproduction_scenario() -> Scenario:
    """The shipped worked-example configuration as a Scenario object."""
    square = ((-1.0, 1.0), (-1.0, 1.0))
    quadrant = (((0.0, 1.0), (0.0, 1.0)),)
    return Scenario(
        name="worked-example", task="reproduce-example", domain=square,
        family="whole-wave", cutoff=6, alpha=0.5, window=(2.0, 4.0),
        region=quadrant,
        actuators=(ActuatorSpec(quadrant, "constant", (1.0,), "zone"),),
        epsilon_cutoff=1e-3)


def reproduce_example(cutoff: int = 6, *, family: str = "whole-wave",
                      epsilon: float | None = 1e-3) -> dict:
    """Run the built-in worked-example checks; discrepancies become rows.

    Returns a dict with the scenario that ran, a `checks` list (name, passed,
    measured values), the coefficient pairing table, and the
    truncation-stability comparison.  The golden expectations are asserted as
    recorded; rows that the computed mathematics contradicts are reported FAIL
    with the measured numbers, never silently adjusted.  The example is built
    on the whole-wave family; any other `family` raises ValueError.
    """
    if family != "whole-wave":
        raise ValueError(f"the worked example is built on the whole-wave "
                         f"family, not {family!r}")
    scenario = dataclasses.replace(reproduction_scenario(), cutoff=cutoff,
                                   epsilon_cutoff=epsilon)

    checks = []

    # a constant zone actuator on the whole domain couples to each mode's mean
    whole = dataclasses.replace(scenario, region=(scenario.domain,), actuators=(
        ActuatorSpec((scenario.domain,), "constant", (1.0,), "zone-whole"),))
    _, _, _, gramian_whole, verdict_whole = analysis(whole)
    worst_mean = float(np.max(np.abs(gramian_whole.coefficient_matrix[0])))
    checks.append({"name": "mode-means-vanish-on-domain",
                   "measured": {"max_abs_mean": worst_mean},
                   "required": "<= 1e-10", "passed": worst_mean <= 1e-10})
    checks.append({"name": "whole-domain-not-controllable",
                   "measured": {"verdict": verdict_whole.verdict,
                                "largest_eigenvalue": verdict_whole.largest_eigenvalue},
                   "required": "verdict NOT, largest eigenvalue <= 1e-20",
                   "passed": (not verdict_whole.controllable and
                              verdict_whole.largest_eigenvalue <= 1e-20)})

    basis, region, actuators, gramian_sub, verdict_sub = analysis(scenario)
    checks.append({"name": "subregion-controllable",
                   "measured": {"verdict": verdict_sub.verdict,
                                "relative_margin": verdict_sub.relative_margin},
                   "required": "verdict CONTROLLABLE, relative margin > 1e-08",
                   "passed": (verdict_sub.controllable and
                              verdict_sub.relative_margin > 1e-8)})

    strategic = strategic_test(basis, region, actuators, alpha=scenario.alpha,
                               window=LogTimeWindow(*scenario.window),
                               gram=gramian_sub.gram,
                               coefficient_matrix=gramian_sub.coefficient_matrix)
    checks.append({"name": "eigenvalue-multiplicities-all-one",
                   "measured": {"sup_multiplicity": strategic.sup_multiplicity,
                                "strategic_verdict": strategic.verdict},
                   "required": "every eigenvalue bucket has multiplicity 1 "
                               "and the zone actuator is strategic",
                   "passed": (strategic.sup_multiplicity == 1 and
                              strategic.strategic)})

    pairing = worked_example_pairing_table(basis, region)
    nonzero = all(abs(row.quadrature) > 1e-12 for row in pairing)
    checks.append({"name": "pairing-quadrature-nonzero",
                   "measured": {"stated_parity_rows": len(pairing),
                                "min_abs_quadrature":
                                    min(abs(r.quadrature) for r in pairing)},
                   "required": "every stated-parity pairing integral nonzero",
                   "passed": nonzero})

    verdicts = {f"K={k}": analysis(dataclasses.replace(scenario, cutoff=k))[-1].verdict
                for k in (2, 8)}
    checks.append({"name": "truncation-stable-verdict",
                   "measured": verdicts,
                   "required": "identical verdicts at both truncations",
                   "passed": len(set(verdicts.values())) == 1})

    return {
        "scenario": scenario,
        "family": family,
        "cutoff": cutoff,
        "epsilon_cutoff": epsilon,
        "checks": checks,
        "pairing_table": [dataclasses.asdict(row) for row in pairing],
        "all_passed": all(c["passed"] for c in checks),
    }


def run_reproduce(scenario: Scenario) -> tuple[int, dict, dict]:
    # `scenario` is the built-in one with the --cutoff and --epsilon overrides
    result = reproduce_example(scenario.cutoff, epsilon=scenario.epsilon_cutoff)
    report = {"tool_version": __version__, "task": "reproduce-example", **result}

    for check in result["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        measured = ", ".join(f"{k}={v}" for k, v in sorted(check["measured"].items()))
        print(f"{status}  {check['name']}: {measured}  (required: {check['required']})")

    rows = result["pairing_table"]
    tables = {"worked-example-pairing": (list(rows[0]),
                                         [list(row.values()) for row in rows])}
    return (0 if result["all_passed"] else 2), report, tables


RUNNERS = {"simulate": run_simulate, "analyze": run_analyze,
           "synthesize": run_synthesize, "reproduce-example": run_reproduce}


# -- selftest --------------------------------------------------------------------


def run_selftest() -> int:
    from ._quadrature import kernel_rule
    from .controllability import RANK_RTOL, _kernel_directions, _khatri_rao_qr
    from .mittag_leffler import ml_on_negative_axis

    failures = 0

    def check(name, measured, tol):
        nonlocal failures
        ok = measured <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {measured:.3e} "
              f"(tolerance {tol:g})")

    z = np.linspace(-20.0, -0.5, 41)
    alpha = 0.6
    lhs = ml_on_negative_axis(alpha, 0.7, z)
    rhs = 1.0 / math.gamma(0.7) + z * ml_on_negative_axis(
        alpha, 0.7 + alpha, z)
    check("propagator-recurrence", float(np.max(np.abs(lhs - rhs))), 1e-9)

    # E_{0.7,0.7} at -0.5, -8.5, -45: 750-digit series values (mpmath)
    stored = np.array([0.3866108008225271027858930, 0.003861774666549242066723197,
                       0.0001197252388580868582368205])
    contour = ml_on_negative_axis(0.7, 0.7, [-0.5, -8.5, -45.0])
    check("contour-oracle", float(np.max(np.abs(contour - stored))), 1e-12)

    taus, weights = kernel_rule(0.7, -0.3, n=64, length=2.0)
    check("kernel-quadrature-moment",
          abs(float(np.sum(weights)) - 2.0 ** 0.7 / 0.7), 1e-10)

    window = LogTimeWindow(1.0, math.e)
    u1 = ControlSignal.constant([1.0], window, 0.7)
    check("constant-control-energy",
          abs(energy(u1) - (window.b - window.a)), 1e-9)

    # integration by parts: over the whole box the Gram factor's R^T R is diag(lam)
    square = RectDomain.rectangle((0.0, 1.0), (0.0, 1.0))
    basis = SpectralBasis(square, 4)
    factor = gradient_gram(basis, Region.whole(square)).factor
    check("gradient-gram-factor",
          float(np.max(np.abs(factor.T @ factor - np.diag(basis.lams))))
          / float(basis.lams.max()), 1e-12)

    # a constant profile on two boxes couples through 1-D integrals, per axis
    # <1_[c,d], sqrt(2) sin(k pi x)> = sqrt(2) (cos k pi c - cos k pi d) / (k pi)
    boxes = (((0.1, 0.6), (0.3, 0.9)), ((0.6, 0.9), (0.0, 0.3)))
    constant = SeparableProfile(((1.0, (np.ones_like,) * 2),))
    got = actuator_coefficients(ActuatorSet((Actuator(Region(square, boxes),
                                                      constant),)), basis)[0]
    k = math.pi * basis.modes
    exact = sum(np.prod(math.sqrt(2.0) * (np.cos(k * lo) - np.cos(k * hi)) / k, axis=1)
                for lo, hi in (np.transpose(box) for box in boxes))
    check("separable-couplings", float(np.max(np.abs(got - exact)))
          / float(np.max(np.abs(exact))), 2e-15)

    # 12 channels x 160 nodes: three dtpqrt folds of 640 rows into a zero triangle
    rng = np.random.default_rng(3)
    d, table = rng.standard_normal((12, 30)), rng.standard_normal((160, 30))
    s_map = np.linalg.svd((d[:, None] * table).reshape(-1, 30), compute_uv=False)
    s_qr = np.linalg.svd(_khatri_rao_qr(d, table), compute_uv=False)
    check("khatri-rao-qr", float(np.max(np.abs(s_qr - s_map))) / s_map[0], 1e-12)
    s_cut = np.linalg.svd(_khatri_rao_qr(d, _kernel_directions(table)), compute_uv=False)
    same_rank = np.sum(s_cut > RANK_RTOL * s_cut[0]) == np.sum(s_qr > RANK_RTOL * s_qr[0])
    check("stacked-compression", float(np.max(np.abs(s_cut - s_qr))) / s_qr[0]
          if same_rank else math.inf, 1e-12)

    domain = RectDomain.interval(0.0, 1.0)
    basis = SpectralBasis(domain, 4)
    region = Region.box(domain, (0.2, 0.9))
    acts = ActuatorSet(tuple(
        Actuator(Region.whole(domain), basis.mode_profile(p), f"mode-{p}")
        for p in range(4)))
    target = np.array([0.4, -0.2, 0.1, 0.05])
    problem = HumProblem(basis, region, acts, 0.7, window, target)
    solution = solve_hum(problem)
    check("synthesis-residual", solution.residual_relative, 1e-6)
    minimality = verify_minimality(solution, trials=12, seed=0)
    check("minimality-pinv-gap", minimality.rel_pinv_gap, 1e-4)
    check("minimality-failed-trials",
          minimality.trials_requested - minimality.trials_passed, 0)

    print("selftest:", "all passed" if failures == 0 else f"{failures} failed")
    return 0 if failures == 0 else 1


# -- entry point -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):           # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _positive(kind, expected):
    """argparse type: `kind` of the text, which must be finite and > 0;
    anything else is a usage error.  The scenario-dependent bounds (epsilon
    below log(b/a), mode indices inside the truncation) are checked by
    `scenario_from_dict` once the override is applied."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"expected {expected} > 0, got {text!r}")
        return value
    return convert


@lru_cache(maxsize=None)    # built on the first main() call, kept for the process
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ultradiff",
                     description="Ultra-slow diffusion: regional gradient "
                                 "controllability analysis and synthesis")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in RUNNERS:
        p = sub.add_parser(verb)
        if verb != "reproduce-example":         # which runs its built-in scenario
            p.add_argument("--scenario", help="path to a scenario JSON file")
        p.add_argument("--out", help="output directory (default ./ultradiff-out)")
        p.add_argument("--cutoff", type=_positive(int, "an integer"),
                       help="override the truncation K")
        if verb != "simulate":                  # a free evolution has no kernel integral
            p.add_argument("--epsilon", type=_positive(float, "a finite number"),
                           help="override the endpoint cutoff epsilon")
    sub.add_parser("selftest")              # takes no options
    return parser


def main(argv=None) -> int:
    # the stderr handler is installed once; the level is read on every call
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    level = os.environ.get("ULTRADIFF_LOG_LEVEL", "WARNING")
    try:
        logging.getLogger("ultradiff").setLevel(level.upper())
    except ValueError:
        print(f"ultradiff: ULTRADIFF_LOG_LEVEL={level!r} is not a log level "
              "(DEBUG, INFO, WARNING, ERROR or CRITICAL)", file=sys.stderr)
        return 1
    args = _build_parser().parse_args(argv)

    if args.verb == "selftest":
        return run_selftest()

    try:
        if args.verb == "reproduce-example":
            scenario = reproduction_scenario()
        elif args.scenario is not None:
            scenario = parse_scenario(args.scenario)
        else:
            print(f"ultradiff {args.verb}: --scenario is required",
                  file=sys.stderr)
            return 1
        overrides = {}
        if args.cutoff is not None:
            overrides["cutoff"] = args.cutoff
        if getattr(args, "epsilon", None) is not None:
            overrides["epsilon_cutoff"] = args.epsilon
        if overrides:       # the scenario checker judges the overridden values
            scenario = scenario_from_dict({**dataclasses.asdict(scenario),
                                           **overrides})
        if scenario.task != args.verb:
            logger.info("scenario task %r overridden by the %r verb",
                        scenario.task, args.verb)
            scenario = dataclasses.replace(scenario, task=args.verb)

        out_dir = args.out or scenario.out or "./ultradiff-out"
        started = time.perf_counter()
        code, report, tables = RUNNERS[args.verb](scenario)
        numerics = report.pop("numerics", None)
        write_report(report, out_dir, tables)
        timing = {"wall_seconds": time.perf_counter() - started,
                  "verb": args.verb}
        if numerics is not None:
            timing["numerics"] = numerics
        _write_json(os.path.join(out_dir, "report.timing.json"), timing)
        return code
    except ScenarioError as err:
        print(str(err), file=sys.stderr)
        return 1
    except EnergyDivergenceError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    except Exception as err:           # propagated module errors, with context
        logger.exception("run failed")
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
