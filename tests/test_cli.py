"""Command-line behavior: scenario schema, exit codes, report determinism.

The single-mode synthesize numbers were frozen from a 60-digit tanh-sinh
quadrature of the scalar kernel factor (series kernel with a precomputed
reciprocal-gamma table); the control samples are the same oracle pushed
through the closed synthesis formula.
"""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _probes import zone_probe_dict
from ultradiff import cli
from ultradiff.cli import (ScenarioError, _encode, _target_coefficients,
                           analysis, build_objects, main, parse_scenario,
                           reproduction_scenario, run_analyze, run_simulate,
                           scenario_from_dict, write_report)
from ultradiff.hum import HumProblem, solve_hum
from ultradiff.logtime import LogTimeWindow
from ultradiff.solver import free_solution
from ultradiff.spectral import (Actuator, ActuatorSet, Region, RectDomain,
                                SeparableProfile, SpectralBasis,
                                actuator_coefficients)

SRC = Path(__file__).resolve().parents[1] / "src"
ONE_1D = SeparableProfile(((1.0, (np.ones_like,)),))

SHIPPED = ("scenarios/divergence-guard.json", "scenarios/hum-demo.json",
           "scenarios/subregion-positive.json",
           "scenarios/whole-domain-negative.json")

# single mode on [0,1], alpha=0.7, window (1, 2.5), constant actuator,
# target coefficient 0.8: scalar kernel factor and its synthesis chain
ORACLE_W = 0.0659028442715960190274437824365
ORACLE_DATUM = 12.1390815349800955547510892013
ORACLE_ENERGY = 9.71126522798407644380087136106
ORACLE_TAUS = np.array([0.1, 0.25, 0.45, 0.65, 0.85])
ORACLE_U = np.array([
    0.766090645810989507264571835541,
    0.193533983357841423732184056165,
    0.0817258293121452928308525186411,
    0.0511176802329922841481810860326,
    0.0384107460230567032767071747795,
])


def _single_mode_dict(**overrides):
    data = {
        "name": "single-mode",
        "task": "synthesize",
        "domain": [[0.0, 1.0]],
        "family": "canonical",
        "cutoff": 1,
        "alpha": 0.7,
        "window": [1.0, 2.5],
        "region": [[[0.0, 1.0]]],
        "actuators": [{"support": [[[0.0, 1.0]]], "profile": "constant",
                       "coefficients": [1.0], "label": "zone"}],
        "target": {"kind": "coefficients", "values": [0.8]},
    }
    data.update(overrides)
    return data


def single_mode_scenario(tmp_path, **overrides):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_single_mode_dict(**overrides)))
    return path


def test_shipped_scenarios_round_trip():
    for path in SHIPPED:
        scenario = parse_scenario(path)
        as_json = json.loads(json.dumps(dataclasses.asdict(scenario)))
        assert scenario_from_dict(as_json) == scenario


def _json_text(obj):
    """The text `_write_json` writes of obj, without its final newline."""
    chunks = []
    _encode(obj, chunks.append)
    return "".join(chunks)


def test_report_echoes_the_scenario_as_asdict_would():
    # reports carry the Scenario itself; the encoder reads it field by field
    scenarios = [parse_scenario(path) for path in
                 sorted((SRC.parent / "scenarios").glob("*.json"))]
    for scenario in [*scenarios, reproduction_scenario()]:
        expected = json.dumps(_jsonable_reference(dataclasses.asdict(scenario)),
                              sort_keys=True, indent=2)
        assert _json_text(scenario) == _json_text(dataclasses.asdict(scenario))
        assert _json_text(scenario) == expected


def _jsonable_reference(obj):
    """The report converter as it was before it tested the common leaves
    first: every node paid the dataclass check."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable_reference(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_reference(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable_reference(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclasses.dataclass
class _Leaf:
    x: float
    flags: tuple


@dataclasses.dataclass
class _Node:
    name: str
    leaf: _Leaf
    items: list
    table: np.ndarray
    extra: dict


def test_report_text_is_unchanged_by_the_leaf_order():
    scenarios = [parse_scenario(path) for path in
                 sorted((SRC.parent / "scenarios").glob("*.json"))]
    built = _Node("n", _Leaf(np.float64(-np.inf), (True, np.bool_(False), None)),
                  [np.int64(7), (1, 2.5, np.float32(0.25)), math.nan, "text"],
                  np.array([[1.0, np.inf], [-0.0, 3.0]]),
                  {1: np.float64(2.0), "k": [math.inf, -math.inf], "b": False,
                   "i": np.int32(-3), "nested": _Leaf(1e-300, ())})
    analyzed = run_analyze(parse_scenario(str(SRC.parent / SHIPPED[1])))[1]
    for obj in [*scenarios, reproduction_scenario(), built, analyzed]:
        expected = json.dumps(_jsonable_reference(obj), sort_keys=True, indent=2)
        assert _json_text(obj) == expected


@dataclasses.dataclass
class _Empty:
    pass


@pytest.mark.parametrize("obj", [
    {"label": "zone \u00e9t\u00e9 \u2192 \U0001d4b3", "quote\"back\\slash\n": "\t"},
    [[], (), {}, _Empty(), np.zeros(0), {"empty": []}],
    [-0.0, 0.0, 1e16, 1e-05, 1e-300, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3],
    [np.float32(0.1), np.float32(-0.0), np.float16(1.5), np.float64(1e-05)],
    [np.bool_(True), np.bool_(False), True, False, None],
    [0, -7, 2 ** 70, np.int8(-3), np.uint64(2 ** 63), np.int64(1)],
    {1: "int", "1": "str", 2.5: "float", None: "none", True: "bool", "b": 0, "a": 1},
    _Node("outer", _Leaf(0.5, (_Leaf(-1.0, ()),)), [_Leaf(2.0, (None,))],
          np.eye(2), {"leaf": _Leaf(np.inf, (np.nan,))}),
    [math.inf, -math.inf, math.nan, np.float64(-np.inf), np.float32(np.nan),
     {"inf": np.array([np.inf, -np.inf, np.nan])}],
], ids=["non-ascii", "empty", "floats", "numpy-floats", "bools", "ints",
        "colliding-keys", "nested-dataclasses", "non-finite"])
def test_encoder_writes_the_text_of_the_converted_copy(obj):
    """The one-pass encoder writes what json.dumps wrote of the converted
    copy: labels escaped to ASCII, empty containers inline, floats by repr,
    numpy scalars as their Python values, dict keys by str (the last of
    colliding keys wins) and non-finite floats as strings."""
    expected = json.dumps(_jsonable_reference(obj), sort_keys=True, indent=2)
    assert _json_text(obj) == expected
    json.loads(expected, parse_constant=pytest.fail)    # strict JSON


def test_invalid_scenario_reports_every_violation():
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({
            "name": "broken",
            "task": "optimize",
            "domain": [[0.0, 1.0], [0.0, 1.0]],
            "family": "canonical",
            "cutoff": 0,
            "alpha": 1.4,
            "region": [[[0.0, 0.5], [0.0, 1.5]]],
            "actuators": [{"support": [[[0.0, 1.0], [0.0, 1.0]]],
                           "profile": "bumps"}],
            "target": {"kind": "funky"},
            "epsilon_cutoff": -2.0,
        })
    violations = err.value.violations
    joined = "\n".join(violations)
    for needle in ("task:", "cutoff:", "alpha:", "window:", "region[0][1]:",
                   "actuators[0].profile:", "target.kind:", "epsilon_cutoff:"):
        assert needle in joined, f"missing {needle!r} in:\n{joined}"
    assert len(violations) >= 8

    # box checks need the dimension, so a broken domain reports alone
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({"task": "analyze", "domain": [[0.0, 1.0], [1.0, 0.5]],
                            "alpha": 0.7, "window": [1.0, 2.5],
                            "region": [[[0.0, 0.5]]],
                            "actuators": [{"support": [[[0.0, 0.5]]],
                                           "profile": "constant"}]})
    assert any(v.startswith("domain[1]:") for v in err.value.violations)


@pytest.mark.parametrize("rename, needle", [
    (lambda d: d.update(cutof=d.pop("cutoff")), "cutof: unknown key"),
    (lambda d: d["actuators"][0].update(coeficients=d["actuators"][0].pop(
        "coefficients")), "actuators[0].coeficients: unknown key"),
    (lambda d: d["target"].update(sead=d["target"].pop("seed")),
     "target.sead: unknown key"),
], ids=["top-level", "actuator", "target"])
def test_misspelled_keys_are_violations(tmp_path, capsys, rename, needle):
    """A misspelled key once fell back to its default: hum-demo with "cutof"
    ran `analyze` at K=6 and exited 0."""
    data = json.loads(Path("scenarios/hum-demo.json").read_text())
    rename(data)
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario" in err and f"  - {needle}" in err, err
    assert err.count(": unknown key") == 1, err


@pytest.mark.parametrize("field, value, needle", [
    ("window", "14", "window:"),
    ("domain", ["01"], "domain[0]:"),
    ("region", [["01"]], "region[0][0]:"),
    ("actuators", [{"support": [["01"]], "profile": "constant"}],
     "actuators[0].support[0][0]:"),
], ids=["window", "domain", "region", "support"])
def test_string_pairs_are_violations(field, value, needle):
    """A two-character string indexes like a pair: "14" once ran as (1, 4)."""
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(_single_mode_dict(**{field: value}))
    assert any(v.startswith(needle) for v in err.value.violations), \
        err.value.violations


def test_a_support_invalid_twice_is_reported_for_each_actuator():
    """A support is checked once per distinct raw text only when it passed:
    the same invalid support on two actuators gives each its own violation."""
    outside = {"support": [[[0.5, 1.5]]], "profile": "constant"}
    overlapping = {"support": [[[0.0, 0.6]], [[0.4, 1.0]]], "profile": "constant"}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(_single_mode_dict(
            actuators=[outside, dict(outside), overlapping, dict(overlapping)]))
    violations = err.value.violations
    for i in (0, 1):
        assert f"actuators[{i}].support[0][0]: lies outside the domain [0, 1]" \
            in violations, violations
    for i in (2, 3):
        assert f"actuators[{i}].support: boxes 0 and 1 overlap" in violations, \
            violations


def test_a_support_that_repeats_a_valid_one_with_a_bool_is_refused():
    """[0, true] equals [0, 1] as a Python tuple, but only the second is a
    pair of numbers: the reuse of a checked support tells them apart."""
    square = [[0.0, 1.0], [0.0, 1.0]]
    actuator = {"profile": "constant", "coefficients": [1.0]}
    data = _single_mode_dict(domain=square, region=[square], actuators=[
        dict(actuator, support=[[[0, 1], [0, 1]]]),
        dict(actuator, support=[[[0, True], [0, 1]]]),
        dict(actuator, support=[[[0, 1.0], [0, 1]]])])
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.violations == [
        "actuators[1].support[0][0]: expected a [lo, hi] pair of finite numbers"]
    data["actuators"][1]["support"] = [[[0, 1], [0, 1]]]
    scenario = scenario_from_dict(data)
    assert [spec.support for spec in scenario.actuators] == \
        [(((0.0, 1.0), (0.0, 1.0)),)] * 3


@pytest.mark.parametrize("overrides, needle", [
    ({"actuators": [{"support": [[[0.0, 1.0]]], "profile": "constant",
                     "coefficients": "3"}]}, "actuators[0].coefficients:"),
    ({"target": {"kind": "coefficients", "values": "8"}}, "target.values:"),
    ({"y0": "1"}, "y0:"),
    ({"y0": [1e999]}, "y0:"),
    ({"actuators": [{"support": [[[0.0, 1.0]]], "profile": "polynomial",
                     "coefficients": [1.0, 0.5]}]}, "actuators[0].coefficients:"),
], ids=["coefficients", "target-values", "y0", "y0-infinite", "polynomial-power"])
def test_number_lists_must_be_lists_of_finite_numbers(overrides, needle):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(_single_mode_dict(**overrides))
    assert any(v.startswith(needle) for v in err.value.violations), \
        err.value.violations


@pytest.mark.parametrize("index", [math.inf, math.nan], ids=["infinity", "nan"])
def test_non_finite_mode_index_is_a_scenario_error(tmp_path, capsys, index):
    """Python's json reads Infinity and NaN; a mode index of either once
    reached int() and left the CLI with a traceback."""
    scenario = single_mode_scenario(
        tmp_path, task="analyze", target=None,
        actuators=[{"support": [[[0.0, 1.0]]], "profile": "mode",
                    "coefficients": [index]}])
    assert main(["analyze", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario" in err and "actuators[0].coefficients:" in err
    assert "Traceback" not in err and "Error:" not in err


@pytest.mark.parametrize("overrides, needle", [
    ({"alpha": "0.5"}, "alpha:"),
    ({"threshold": "1e-10"}, "threshold:"),
    ({"epsilon_cutoff": "0.001"}, "epsilon_cutoff:"),
    ({"threshold": math.inf}, "threshold:"),
    ({"epsilon_cutoff": math.nan}, "epsilon_cutoff:"),
    ({"seed": math.inf}, "seed:"),
    ({"seed": 1.5}, "seed:"),
    ({"seed": "3"}, "seed:"),
    ({"seed": True}, "seed:"),
    ({"seed": -1}, "seed:"),
    ({"target": {"kind": "random-span", "seed": 1.5}}, "target.seed:"),
    ({"target": {"kind": "random-span", "seed": math.inf}}, "target.seed:"),
    ({"target": {"kind": "random-span", "scale": "2"}}, "target.scale:"),
    ({"target": {"kind": "random-span", "scale": math.nan}}, "target.scale:"),
], ids=["alpha-string", "threshold-string", "epsilon-string", "threshold-infinite",
        "epsilon-nan", "seed-infinite", "seed-fraction", "seed-string", "seed-bool",
        "seed-negative", "target-seed-fraction", "target-seed-infinite",
        "target-scale-string", "target-scale-nan"])
def test_scalar_fields_must_be_finite_json_numbers(tmp_path, capsys, overrides,
                                                   needle):
    """Each bad scalar is a violation line and exit 1: strings once ran as
    numbers, a fractional seed was truncated, and non-finite values left the
    CLI with a traceback or ran to a verdict."""
    scenario = single_mode_scenario(tmp_path, **overrides)
    assert main(["synthesize", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario" in err and f"  - {needle}" in err, err
    assert "Traceback" not in err and "Error:" not in err


@pytest.mark.parametrize("overrides, needle", [
    ({"region": [[[0.0, 0.6]], [[0.4, 1.0]]]}, "region: boxes 0 and 1 overlap"),
    ({"actuators": [{"support": [[[0.0, 0.2]], [[0.5, 1.0]], [[0.1, 0.3]]],
                     "profile": "constant"}]},
     "actuators[0].support: boxes 0 and 2 overlap"),
], ids=["region", "support"])
def test_overlapping_boxes_are_violations(tmp_path, capsys, overrides, needle):
    """Overlapping boxes once passed the parser, and building the region
    then left the CLI with a ValueError and a logged traceback."""
    scenario = single_mode_scenario(tmp_path, **overrides)
    assert main(["synthesize", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario" in err and f"  - {needle}" in err, err
    assert "Traceback" not in err and "Error:" not in err
    # boxes that only share an edge do not overlap
    scenario_from_dict(_single_mode_dict(region=[[[0.0, 0.5]], [[0.5, 1.0]]]))


def test_a_three_axis_domain_is_one_violation(tmp_path):
    """A 3-D domain once passed the checker; analyze then ended in
    RectDomain's ValueError with a traceback.  The refusal is one line, with
    no violation that depends on the number of axes."""
    cube = [[0.0, 1.0]] * 3
    data = _single_mode_dict(
        task="analyze", domain=cube, cutoff=3, region=[[[0.0, 0.5]] * 3],
        actuators=[{"support": [cube], "profile": "constant",
                    "coefficients": [1.0]}], window=[1.0, 4.0], target=None)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.violations == ["domain: expected one or two [lo, hi] pairs"]
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(data))
    result = _fresh_cli("analyze", "--scenario", path, "--out", tmp_path / "out")
    assert result.returncode == 1
    assert "  - domain: expected one or two [lo, hi] pairs" in result.stderr
    assert "Traceback" not in result.stderr and "Error:" not in result.stderr


@pytest.mark.parametrize("name", ["sub/dir", "../escaped", "back\\slash", "nul\0"])
def test_a_name_with_a_path_separator_is_one_violation(name):
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(_single_mode_dict(name=name))
    assert err.value.violations == [
        "name: expected a file name without path separators"]


def _analyze_hum_demo_named(tmp_path, name) -> str:
    """The stderr of a fresh-process `analyze` on hum-demo renamed `name`,
    which must exit 1 and write no file."""
    data = json.loads(Path("scenarios/hum-demo.json").read_text())
    path = tmp_path / "named.json"
    path.write_text(json.dumps({**data, "name": name}))
    result = _fresh_cli("analyze", "--scenario", path, "--out", tmp_path / "out")
    assert result.returncode == 1
    assert list(tmp_path.rglob("*")) == [path]
    return result.stderr


@pytest.mark.parametrize("name", ["sub/dir", "../escaped"])
def test_a_name_cannot_lead_out_of_the_output_directory(tmp_path, name):
    """The name prefixes every CSV file name: "sub/dir" once ended in a
    FileNotFoundError with a traceback after the whole analysis, and
    "../escaped" wrote escaped-spectrum.csv beside --out."""
    assert _analyze_hum_demo_named(tmp_path, name) == (
        "invalid scenario:\n  - name: expected a file name without path "
        "separators\n")


NAME_LINE = "name: expected at most 238 bytes of UTF-8 text"


@pytest.mark.parametrize("name", ["x" * 250, "\ud800"],
                         ids=["250-bytes", "lone-surrogate"])
def test_a_name_that_no_file_can_carry_is_one_violation(tmp_path, name):
    """250 x's once ended in `error: OSError: [Errno 36] File name too long`,
    and a lone surrogate (valid JSON) in a UnicodeEncodeError, both with a
    traceback after the whole analysis and report.json already written.  The
    longest CSV suffix, "-state-series.csv", leaves 238 of a file name's 255
    bytes."""
    assert _analyze_hum_demo_named(tmp_path, name) == \
        f"invalid scenario:\n  - {NAME_LINE}\n"
    for fits in ("x" * 238, "\u00e9" * 119):         # 238 bytes
        assert scenario_from_dict(_single_mode_dict(name=fits)).name == fits
    for too_long in ("x" * 239, "\u00e9" * 120):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(_single_mode_dict(name=too_long))
        assert err.value.violations == [NAME_LINE]


@pytest.mark.parametrize("verb", ["simulate", "analyze", "synthesize"])
def test_a_window_whose_ratio_overflows_is_one_violation(tmp_path, capsys, verb):
    """log(b/a) is the horizon, infinite once b/a overflows: hum-demo on
    [1e-300, 1e300] or [1e-10, 1e300] once ended in an OverflowError in
    kernel_rule (analyze, synthesize) or a ValueError on t = inf (simulate).
    An epsilon cutoff is then judged against no horizon.  b/a is finite
    exactly when e^L is, so [1, 1e307] runs."""
    data = json.loads(Path("scenarios/hum-demo.json").read_text())
    path = tmp_path / "window.json"
    for window in ([1e-300, 1e300], [1e-10, 1e300]):
        path.write_text(json.dumps({**data, "window": window,
                                    "epsilon_cutoff": 1.0}))
        assert main([verb, "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "invalid scenario:\n  - window: b/a must be finite\n"
        assert not (tmp_path / "out").exists()
    assert scenario_from_dict({**data, "window": [1.0, 1e307]}).window == \
        (1.0, 1e307)


@pytest.mark.parametrize("verb", ["analyze", "simulate"])
def test_a_verb_that_reads_no_target_runs_a_synthesize_file_without_one(
        tmp_path, capsys, verb):
    """The verb is the task that runs, and only synthesize reads a target:
    hum-demo (task synthesize) with target null once made analyze and
    simulate exit 1 with `target: required for the synthesize task`."""
    data = json.loads(Path("scenarios/hum-demo.json").read_text())
    path = tmp_path / "no-target.json"
    path.write_text(json.dumps({**data, "target": None}))
    assert main([verb, "--scenario", str(path), "--out", str(tmp_path / "out")]) in (0, 2)
    assert "target" not in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["task"] == report["scenario"]["task"] == verb
    assert report["scenario"]["target"] is None


def test_synthesize_needs_a_target_whatever_the_file_says(tmp_path, capsys):
    path = "scenarios/whole-domain-negative.json"
    assert json.loads(Path(path).read_text())["task"] == "analyze"
    assert main(["synthesize", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "invalid scenario:\n  - target: required for the synthesize task\n"
    assert not (tmp_path / "out").exists()


def test_the_given_task_replaces_the_files_checked_one():
    data = _single_mode_dict(task="analyze", target=None)
    assert scenario_from_dict(data).task == "analyze"
    assert scenario_from_dict(data, "simulate").task == "simulate"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data, "synthesize")
    assert err.value.violations == ["target: required for the synthesize task"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict({**data, "task": "transmogrify"}, "analyze")
    assert err.value.violations == [
        "task: expected one of simulate, analyze, synthesize, reproduce-example"]


@pytest.mark.parametrize("option, value", [
    ("--cutoff", "0"), ("--cutoff", "-3"), ("--epsilon", "nan"),
    ("--epsilon", "0"), ("--epsilon", "-0.01"), ("--epsilon", "inf"),
])
def test_overrides_must_be_positive(tmp_path, capsys, option, value):
    """--cutoff 0 and a non-positive or non-finite --epsilon once skipped the
    scenario checks and ended in a ValueError with a traceback."""
    scenario = single_mode_scenario(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "--scenario", str(scenario), option, value,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument {option}: expected" in err, err
    assert "Traceback" not in err and "ValueError" not in err


EPSILON_LINE = "epsilon_cutoff: must lie in (0, log(b/a))"
MODE_LINE = "actuators[4].coefficients: mode index 4 outside the 4-mode truncation"


@pytest.mark.parametrize("verb, option, value, violation", [
    ("analyze", "--epsilon", "100", EPSILON_LINE),
    ("reproduce-example", "--epsilon", "100", EPSILON_LINE),
    ("analyze", "--cutoff", "2", MODE_LINE),
    ("synthesize", "--cutoff", "2", MODE_LINE),
    ("simulate", "--cutoff", "2", MODE_LINE),
])
def test_overrides_meet_the_scenario_checks(tmp_path, capsys, verb, option, value,
                                            violation):
    """An --epsilon past log(b/a), or a --cutoff that leaves hum-demo's mode
    actuators 4..35 outside the truncation, once ended in the generic error
    path with a traceback.  The scenario checker judges the overridden values
    as it judges the file's own: exit 1, one line per violation, and the
    same lines as a file that holds those values."""
    argv = [verb, option, value]
    if verb != "reproduce-example":
        argv += ["--scenario", "scenarios/hum-demo.json"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario:\n") and f"  - {violation}\n" in err, err
    assert not any(line.startswith("error:") for line in err.splitlines())
    assert not (tmp_path / "out").exists()
    if verb != "reproduce-example":
        data = json.loads(Path("scenarios/hum-demo.json").read_text())
        data[{"--epsilon": "epsilon_cutoff", "--cutoff": "cutoff"}[option]] = \
            json.loads(value)
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        assert main([verb, "--scenario", str(edited),
                     "--out", str(tmp_path / "file")]) == 1
        assert capsys.readouterr().err == err


def test_missing_scenario_inputs(tmp_path, capsys):
    assert main(["analyze", "--out", str(tmp_path)]) == 1
    assert "--scenario is required" in capsys.readouterr().err
    assert main(["analyze", "--scenario", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 1
    assert "invalid scenario" in capsys.readouterr().err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_in_process_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    """The parser is built on the first main() call and reused; a usage
    error, a run and the same usage error again leave the same stderr."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    usage_error = ["analyze", "--scenario", "scenarios/subregion-positive.json",
                   "--cutoff", "0", "--out", str(tmp_path / "bad")]
    with pytest.raises(SystemExit) as exc:
        main(usage_error)
    assert exc.value.code == 1
    first = capsys.readouterr().err
    assert first.startswith("usage:")
    assert main(["analyze", "--scenario", "scenarios/subregion-positive.json",
                 "--out", str(tmp_path / "ok")]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(usage_error)
    assert exc.value.code == 1
    assert capsys.readouterr().err == first
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--scenario", "scenarios/subregion-positive.json",
              "--epsilon", "nan", "--out", str(tmp_path / "nan")])
    assert exc.value.code == 1
    # one tree: the top-level parser and one subparser per verb, built once
    assert built.count("ultradiff") == 1
    assert len(built) == len(set(built)) == 1 + len(cli.RUNNERS) + 1
    assert not (tmp_path / "bad").exists()


def test_cli_import_builds_no_parser():
    assert _fresh_stdout("import ultradiff.cli as c; "
                         "print(c._build_parser.cache_info().currsize)") == "0"


def test_log_level_is_read_on_every_call(tmp_path, capsys, caplog, monkeypatch):
    """ULTRADIFF_LOG_LEVEL once counted only on a process's first call, and an
    unknown name ended in a traceback."""
    argv = ["analyze", "--scenario", "scenarios/subregion-positive.json",
            "--out", str(tmp_path / "out")]
    stacked = "stacked strategic rank"
    monkeypatch.delenv("ULTRADIFF_LOG_LEVEL", raising=False)
    assert main(argv) == 2
    assert stacked not in caplog.text
    monkeypatch.setenv("ULTRADIFF_LOG_LEVEL", "INFO")
    assert main(argv) == 2
    assert stacked in caplog.text
    caplog.clear()
    monkeypatch.setenv("ULTRADIFF_LOG_LEVEL", "WARNING")
    assert main(argv) == 2
    assert stacked not in caplog.text
    capsys.readouterr()
    monkeypatch.setenv("ULTRADIFF_LOG_LEVEL", "verbose")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "ULTRADIFF_LOG_LEVEL" in err and "'verbose'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["selftest", "--out", "DIR"],
    ["analyze", "--scenario", "scenarios/hum-demo.json", "--out", "DIR",
     "--format", "json"],
    ["reproduce-example", "--scenario", "scenarios/hum-demo.json", "--out", "DIR"],
    ["simulate", "--scenario", "scenarios/hum-demo.json", "--epsilon", "0.1",
     "--out", "DIR"],
])
def test_options_no_verb_reads_are_usage_errors(tmp_path, capsys, argv):
    """selftest takes no options, and no verb takes --format: every run
    writes report.json and its CSV tables.  reproduce-example runs its
    built-in scenario and once read 4 of a file's fields; a free evolution
    integrates no kernel, so simulate's --epsilon only reached the report."""
    argv = [str(tmp_path) if a == "DIR" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ultradiff") and "error: unrecognized arguments" in err
    assert not any(tmp_path.iterdir())


def test_analyze_exit_codes(tmp_path):
    # negative verdict on the whole domain is the documented exit 2
    assert main(["analyze", "--scenario", "scenarios/whole-domain-negative.json",
                 "--out", str(tmp_path / "neg")]) == 2
    report = json.loads((tmp_path / "neg" / "report.json").read_text())
    assert report["verdict"] == "NOT"
    assert report["largest_eigenvalue"] <= 1e-20
    # spectrum table accompanies the report
    rows = list(csv.reader(
        (tmp_path / "neg" / "whole-domain-negative-spectrum.csv")
        .open(newline="")))
    assert rows[0] == ["index", "coordinate_operator_eigenvalue"]
    assert len(rows) == 1 + 36


def test_divergence_guard_refuses_then_runs(tmp_path, capsys):
    assert main(["analyze", "--scenario", "scenarios/divergence-guard.json",
                 "--out", str(tmp_path / "bare")]) == 1
    assert capsys.readouterr().err.startswith("refused:")
    assert main(["analyze", "--scenario", "scenarios/divergence-guard.json",
                 "--epsilon", "0.001", "--out", str(tmp_path / "eps")]) == 0
    report = json.loads((tmp_path / "eps" / "report.json").read_text())
    assert report["controllable"] is True
    assert report["epsilon_cutoff"] == 0.001


def test_analyze_runs_the_classical_order(tmp_path):
    """alpha = 1 is in the schema's (0, 1]: E_{1,1}(-lam tau) = e^(-lam tau),
    so W = (D^T D) o (e^(-s eps) - e^(-s L)) / (b s), s = lam_p + lam_q - 1."""
    data = json.loads(Path("scenarios/hum-demo.json").read_text())
    data["alpha"] = 1.0
    path = tmp_path / "classical.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 0
    gramian = analysis(parse_scenario(str(path)))[3]
    window, d = LogTimeWindow(*data["window"]), gramian.coefficient_matrix
    s = gramian.lams[:, None] + gramian.lams[None, :] - 1.0
    w = (d.T @ d) * (1.0 - np.exp(-s * window.length)) / (window.b * s)
    assert np.max(np.abs(gramian.matrix - w)) <= 1e-14 * np.max(np.abs(w))


def test_synthesize_report_matches_oracle(tmp_path):
    scenario = single_mode_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert_allclose(report["energy"], ORACLE_ENERGY, rtol=1e-8)
    assert_allclose(report["adjoint_datum"], [ORACLE_DATUM], rtol=1e-8)
    assert report["residual_relative"] <= 1e-6
    assert report["energy_identity_rel_gap"] <= 1e-9
    assert report["minimality"]["passed"] is True
    assert report["verdict"] == "CONTROLLABLE"


def _hum_demo_solution():
    """The solution `synthesize` computes for the shipped hum-demo."""
    scenario = parse_scenario("scenarios/hum-demo.json")
    _, basis, region, actuators = build_objects(scenario)
    problem = HumProblem(basis, region, actuators, scenario.alpha,
                         LogTimeWindow(*scenario.window),
                         _target_coefficients(scenario, len(basis.modes)),
                         epsilon_cutoff=scenario.epsilon_cutoff)
    return solve_hum(problem, threshold=scenario.threshold)


def test_synthesize_timing_sidecar_holds_the_solve_numerics(tmp_path):
    """report.timing.json carries W's kept rank and the solve's condition
    number; report.json does not."""
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", "scenarios/hum-demo.json",
                 "--out", str(out)]) == 0
    numerics = json.loads((out / "report.timing.json").read_text())["numerics"]
    assert "numerics" not in json.loads((out / "report.json").read_text())
    solution = _hum_demo_solution()
    assert numerics["kept_rank"] == solution.kept_rank == 36
    assert numerics["solve_condition_number"] == solution.solve_condition_number
    assert round(numerics["solve_condition_number"], 2) == 7.77


def test_synthesize_reports_the_solutions_energy_identity(tmp_path):
    """The report's dual norm and energy-identity gap are the solution's own
    fields, bit for bit: the CLI computes neither."""
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", "scenarios/hum-demo.json",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    solution = _hum_demo_solution()
    assert report["dual_norm_squared"] == solution.dual_norm_squared
    assert report["energy_identity_rel_gap"] == solution.energy_identity_gap
    assert report["energy_identity_rel_gap"] <= 1e-9


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_reports_are_strict_json_when_the_synthesis_keeps_no_direction(tmp_path):
    """hum-demo with every actuator coupling to nothing keeps no direction of
    W, so the solve's condition number is infinite: both report.json and
    report.timing.json stay strict JSON, the sidecar holding "inf"."""
    data = json.loads(Path("scenarios/hum-demo.json").read_text())
    for actuator in data["actuators"]:
        actuator.update(profile="constant", coefficients=[0.0])
    path = tmp_path / "zero-coupling.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 0
    report, timing = (json.loads((out / name).read_text(),
                                 parse_constant=_reject_constant)
                      for name in ("report.json", "report.timing.json"))
    assert report["verdict"] == "NOT" and report["energy"] == 0.0
    assert timing["numerics"] == {"kept_rank": 0, "solve_condition_number": "inf"}


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--scenario", "scenarios/hum-demo.json"], 0),
    (["analyze", "--scenario", "scenarios/subregion-positive.json"], 2),
    (["synthesize", "--scenario", "scenarios/hum-demo.json"], 0),
    (["reproduce-example"], 2),
], ids=["simulate", "analyze", "synthesize", "reproduce-example"])
def test_every_verb_writes_strict_json(tmp_path, capsys, argv, code):
    """Each verb's report.json and report.timing.json parse with NaN and
    Infinity refused."""
    assert main([*argv, "--out", str(tmp_path)]) == code
    for name in ("report.json", "report.timing.json"):
        json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)


def test_zone_probe_minimality_checks_the_solved_problem(tmp_path):
    """zone12-4: the solve keeps W's eigenvalues above 1e-12 lam_max and drops
    the rest, so the target is out of reach (residual ~0.73).  u* is still the
    minimum-norm control of the problem solved, and the checks, which read W
    under the same rule, must say so."""
    path = tmp_path / "zone12-4.json"
    path.write_text(json.dumps(zone_probe_dict(12, 4)))
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", str(path), "--out", str(out)]) == 0
    minimality = json.loads((out / "report.json").read_text())["minimality"]
    assert minimality["mode"] == "kernel+pinv"
    assert minimality["trials_passed"] == minimality["trials_requested"] == 12
    assert minimality["rel_pinv_gap"] <= 1e-6
    assert minimality["passed"] is True


def test_synthesized_control_matches_oracle_samples():
    basis = SpectralBasis(RectDomain.interval(0.0, 1.0), 1)
    whole = Region.whole(basis.domain)
    acts = ActuatorSet((Actuator(whole, ONE_1D, "z"),))
    sol = solve_hum(HumProblem(basis, whole, acts, 0.7,
                               LogTimeWindow(1.0, 2.5), [0.8]))
    assert_allclose(sol.gramian.matrix[0, 0], ORACLE_W, rtol=1e-8)
    assert_allclose(sol.control.evaluate_tau(ORACLE_TAUS)[0], ORACLE_U,
                    rtol=1e-8)


def test_synthesize_csv_table(tmp_path):
    scenario = single_mode_scenario(tmp_path)
    out = tmp_path / "out"
    assert main(["synthesize", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    rows = list(csv.reader((out / "single-mode-u-star.csv").open(newline="")))
    assert rows[0] == ["t", "tau", "u_1"]
    assert len(rows) == 1 + 256
    ts = np.array([float(r[0]) for r in rows[1:]])
    taus = np.array([float(r[1]) for r in rows[1:]])
    us = np.array([float(r[2]) for r in rows[1:]])
    assert_allclose(ts, 2.5 * np.exp(-taus), rtol=1e-12)
    assert np.all(np.isfinite(us))
    # serialized floats round-trip against an in-process solve
    basis = SpectralBasis(RectDomain.interval(0.0, 1.0), 1)
    whole = Region.whole(basis.domain)
    acts = ActuatorSet((Actuator(whole, ONE_1D, "z"),))
    sol = solve_hum(HumProblem(basis, whole, acts, 0.7,
                               LogTimeWindow(1.0, 2.5), [0.8]))
    assert_allclose(us, sol.control.values[0], rtol=1e-13)
    assert_allclose(taus, sol.control.tau_grid, rtol=0, atol=0)


def test_write_report_tables_match_csv_writer(tmp_path):
    """Every table holds plain header names, ints, bools and floats, which
    csv.writer writes unquoted with str (repr for a float)."""
    header = ["index", "value", "flag"]
    floats = [0.1, 1e-05, 1e16, -0.0, 5e-324, 1.7976931348623157e308]
    rows = [[i, v, i % 2 == 0] for i, v in enumerate(floats)] + [[-3, 2, False]]
    write_report({}, str(tmp_path), {"table": (header, rows)})
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert (tmp_path / "table.csv").read_bytes() == expected.getvalue().encode()


def test_reports_are_byte_identical_across_runs(tmp_path):
    scenario = single_mode_scenario(tmp_path)
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main(["synthesize", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "report.json").read_bytes() == \
        (outs[1] / "report.json").read_bytes()
    assert (outs[0] / "single-mode-u-star.csv").read_bytes() == \
        (outs[1] / "single-mode-u-star.csv").read_bytes()
    # wall-clock numbers live in the sidecar, never in the report
    assert "wall_seconds" not in (outs[0] / "report.json").read_text()
    assert (outs[0] / "report.timing.json").exists()


def test_simulate_free_evolution(tmp_path):
    y0 = [0.6, -0.3]
    scenario = single_mode_scenario(
        tmp_path, name="sim", task="simulate", cutoff=2, y0=y0, target=None)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    basis = SpectralBasis(RectDomain.interval(0.0, 1.0), 2)
    window = LogTimeWindow(1.0, 2.5)
    expected = free_solution(np.array(y0), basis, 0.7, window, window.b)
    assert_allclose(report["final_coefficients"], expected, rtol=1e-12)
    assert report["sample_times"][-1] == window.b
    rows = list(csv.reader((out / "sim-state-series.csv").open(newline="")))
    assert rows[0] == ["t", "c_0", "c_1"]
    assert len(rows) == 1 + 33


def test_simulate_series_is_one_table_of_per_time_free_solutions():
    # simulate evaluates its 33 samples as one kernel table; every row is,
    # to the bit, the free solution at its own time computed on its own
    scenario = dataclasses.replace(
        parse_scenario("scenarios/hum-demo.json"),
        y0=tuple(np.random.default_rng(4).standard_normal(36).tolist()))
    _, basis, _, _ = build_objects(scenario)
    window = LogTimeWindow(*scenario.window)
    code, report, tables = run_simulate(scenario)
    (_, rows), = tables.values()
    assert code == 0 and len(rows) == 33
    for t, *coefficients in rows:
        assert np.array_equal(coefficients, free_solution(
            scenario.y0, basis, scenario.alpha, window, t))
    assert np.array_equal(report["final_coefficients"], rows[-1][1:])


def test_mode_profile_refuses_an_index_past_the_cutoff():
    # a mode profile looks its mode up when it is built: an index outside the
    # truncation fails there, with the index and the cutoff in the message
    domain = RectDomain.interval(0.0, 1.0)
    basis = SpectralBasis(domain, 2)
    for index in (2, 4, -1):
        with pytest.raises(IndexError, match=f"mode index {index} .* cutoff 2"):
            basis.mode_profile(index)
    acts = ActuatorSet((Actuator(Region.whole(domain), basis.mode_profile(1)),))
    assert_allclose(actuator_coefficients(acts, basis), [[0.0, 1.0]], atol=1e-14)


def test_polynomial_and_sine_profiles_couple_in_closed_form():
    # canonical unit interval, modes sqrt(2) sin(k pi x): the profile
    # 2 sin(k pi x) couples to mode k alone, and the profile x to every mode
    # with int x sqrt(2) sin(k pi x) dx = sqrt(2) (-1)^(k+1) / (k pi)
    scenario = scenario_from_dict({
        "name": "profiles", "task": "analyze", "domain": [[0.0, 1.0]],
        "cutoff": 6, "alpha": 0.7, "window": [1.0, 2.5],
        "region": [[[0.0, 1.0]]],
        "actuators": [
            {"support": [[[0.0, 1.0]]], "profile": "product-of-sines",
             "coefficients": [2.0, 3.0]},
            {"support": [[[0.0, 1.0]]], "profile": "polynomial",
             "coefficients": [1.0, 1.0]},
        ]})
    _, basis, _, actuators = build_objects(scenario)
    d = actuator_coefficients(actuators, basis)
    ks = basis.modes[:, 0]
    assert_allclose(d[0], np.where(ks == 3, math.sqrt(2.0), 0.0),
                    rtol=1e-13, atol=1e-14)
    assert_allclose(d[1], math.sqrt(2.0) * (-1.0) ** (ks + 1) / (ks * math.pi),
                    rtol=1e-13)


def _src_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _fresh_stdout(probe: str) -> str:
    """The stripped stdout of `python -c <probe>` in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


def _fresh_cli(*argv, **env) -> subprocess.CompletedProcess:
    """`python -m ultradiff.cli *argv` in a fresh interpreter, with `env`
    added to _src_env()."""
    return subprocess.run([sys.executable, "-m", "ultradiff.cli", *map(str, argv)],
                          env={**_src_env(), **env}, capture_output=True, text=True)


def _scipy_loaded_after(code: str) -> set[str]:
    """The scipy modules a fresh interpreter holds after running `code`."""
    last = _fresh_stdout(
        f"{code}\nimport sys\nprint('loaded:', *sorted("
        "m for m in sys.modules if m.split('.')[0] == 'scipy'))").splitlines()[-1]
    return set(last.split()[1:])


def test_import_loads_no_scipy():
    """Importing the package and every module of it, the CLI among them,
    loads no scipy module."""
    modules = sorted(f"ultradiff.{path.stem}" for path in
                     (SRC / "ultradiff").glob("*.py") if path.stem != "__init__")
    assert "ultradiff.spectral" in modules and "ultradiff.cli" in modules
    assert _scipy_loaded_after(f"import ultradiff, {', '.join(modules)}") == set()


def test_cli_import_leaves_scipy_interpolate_unloaded():
    assert "scipy.interpolate" not in _scipy_loaded_after("import ultradiff.cli")


def test_no_submodule_loads_scipy_interpolate():
    modules = sorted(f"ultradiff.{path.stem}" for path in
                     (SRC / "ultradiff").glob("*.py") if path.stem != "__init__")
    assert "ultradiff.spectral" in modules
    assert "scipy.interpolate" not in _scipy_loaded_after(f"import {', '.join(modules)}")


@pytest.mark.parametrize("verb, scenario", [
    ("simulate", "hum-demo"), ("synthesize", "hum-demo"), ("analyze", "hum-demo"),
    ("analyze", "subregion-positive"), ("reproduce-example", None),
    ("selftest", None),
], ids=["simulate", "synthesize", "analyze", "analyze-subregion-positive",
        "reproduce-example", "selftest"])
def test_only_the_stacked_rank_loads_scipy(verb, scenario, tmp_path):
    """numpy factors a stacked map of at most 640 rows, so the shipped calls
    load no scipy module; selftest's larger maps load scipy.linalg's LAPACK
    fold.  No verb loads scipy.special."""
    argv = [verb]
    if verb != "selftest":
        argv += ["--out", str(tmp_path)]
    if scenario is not None:
        argv += ["--scenario", str(SRC.parent / "scenarios" / f"{scenario}.json")]
    loaded = _scipy_loaded_after(f"from ultradiff.cli import main\nmain({argv!r})")
    assert not any(m.startswith("scipy.special") for m in loaded)
    if verb == "selftest":
        assert "scipy.linalg" in loaded
    else:
        assert loaded == set()


def _modal12(tmp_path) -> Path:
    """hum-demo at K=12 with its 144 modes as whole-square mode actuators,
    written to a file."""
    data = json.loads((SRC.parent / "scenarios" / "hum-demo.json").read_text())
    data["cutoff"] = 12
    data["actuators"] = [dict(data["actuators"][0], coefficients=[float(p)],
                              label=f"mode-{p}") for p in range(144)]
    path = tmp_path / "modal12.json"
    path.write_text(json.dumps(data))
    return path


def test_a_stacked_map_over_one_row_group_loads_the_lapack_fold(tmp_path):
    """Modal K=12 (144 mode actuators) stacks thousands of rows, and a 704-row
    map is past the 640-row group: both fold through scipy.linalg's dtpqrt,
    where the 640-row map stays in numpy."""
    argv = ["analyze", "--scenario", str(_modal12(tmp_path)),
            "--out", str(tmp_path / "out")]
    assert "scipy.linalg" in _scipy_loaded_after(
        f"from ultradiff.cli import main\nmain({argv!r})")
    factor = ("import numpy as np\nfrom ultradiff.controllability import "
              "_khatri_rao_qr\n_khatri_rao_qr(np.ones(({}, 3)), np.ones((64, 3)))")
    assert _scipy_loaded_after(factor.format(10)) == set()
    assert "scipy.linalg" in _scipy_loaded_after(factor.format(11))


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Couplings are memoized by factor identity and supports by their text;
    a report that moved with PYTHONHASHSEED would show an order-dependent
    memo.  Modal K=12 `analyze` and hum-demo `synthesize` each run in fresh
    processes under seeds 0 and 1 and write the same report.json bytes."""
    hum_demo = SRC.parent / "scenarios" / "hum-demo.json"
    for verb, scenario in (("analyze", _modal12(tmp_path)), ("synthesize", hum_demo)):
        reports = []
        for seed in ("0", "1"):
            out = tmp_path / verb / seed
            result = _fresh_cli(verb, "--scenario", scenario, "--out", out,
                                PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1], verb


def test_analyze_reads_rank_zero_when_every_kernel_row_underflows(tmp_path, capsys):
    """alpha = 1 on [0, 1e-3]^2: every eigenvalue exceeds 1e7, so each sampled
    kernel e^(-lam tau), tau >= 1e-4, underflows to 0 and the stacked map has
    no rows.  analyze reports stacked rank 0 and verdict NOT, exit 2."""
    box = [[0.0, 1e-3], [0.0, 1e-3]]
    data = _single_mode_dict(
        task="analyze", domain=box, cutoff=6, alpha=1.0, window=[1.0, math.e],
        region=[[[0.0, 5e-4], [0.0, 5e-4]]],
        actuators=[{"support": [box], "profile": "constant",
                    "coefficients": [1.0], "label": "zone"}], target=None)
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    strategic = json.loads((tmp_path / "out" / "report.json").read_text())["strategic"]
    assert strategic["stacked_rank"] == 0
    assert strategic["verdict"] == "NOT"


def test_reproduce_example_reports_honest_rows(tmp_path, capsys):
    code = main(["reproduce-example", "--out", str(tmp_path)])
    stdout = capsys.readouterr().out
    assert code == 2
    assert "PASS  mode-means-vanish-on-domain" in stdout
    assert "PASS  whole-domain-not-controllable" in stdout
    assert "FAIL  subregion-controllable" in stdout
    assert "FAIL  eigenvalue-multiplicities-all-one" in stdout
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is False
    assert len(report["pairing_table"]) == 36
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["pairing-quadrature-nonzero"]["passed"] is True
    assert by_name["truncation-stable-verdict"]["passed"] is True
    assert by_name["subregion-controllable"]["measured"]["verdict"] == "NOT"


def test_reproduce_example_report_names_the_overrides_it_ran(tmp_path, capsys):
    code = main(["reproduce-example", "--cutoff", "5", "--epsilon", "0.01",
                 "--out", str(tmp_path)])
    capsys.readouterr()
    assert code in (0, 2)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["cutoff"] == report["scenario"]["cutoff"] == 5
    assert report["epsilon_cutoff"] == report["scenario"]["epsilon_cutoff"] == 0.01


def test_reproduce_example_reports_the_scenario_it_ran(tmp_path, capsys):
    # the run is the built-in quadrant example with the --epsilon override
    code = main(["reproduce-example", "--epsilon", "0.002",
                 "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code in (0, 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    built_in = dataclasses.asdict(dataclasses.replace(
        reproduction_scenario(), epsilon_cutoff=0.002))
    assert report["scenario"] == json.loads(json.dumps(built_in))
    assert report["scenario"]["region"] == [[[0.0, 1.0], [0.0, 1.0]]]
    assert report["scenario"]["alpha"] == 0.5


def test_reproduce_example_refuses_a_family_other_than_whole_wave():
    """The worked example is built on the whole-wave family; a canonical run
    once returned all_passed with no check run."""
    with pytest.raises(ValueError, match="whole-wave"):
        cli.reproduce_example(6, family="canonical", epsilon=1e-3)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    assert "FAIL" not in out
