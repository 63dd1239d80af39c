"""Generated schema-valid scenarios through `analyze` and `synthesize`.

A hypothesis strategy draws scenario dicts that the checker's schema allows:
1-D with K <= 8 and 2-D with K <= 4, alpha over (0, 1] (with an epsilon
cutoff whenever alpha <= 1/2), windows, boxes, one to five actuators of all
four profiles, a random-span target, and a name from arbitrary text.  Each
one runs through both verbs in process, and two contracts must hold:

* (i) the exit code is 0, 1 or 2, and an exit 1 is a refusal (`refused:`)
  or a scenario violation (`invalid scenario`), never the generic `error:`
  path or a traceback;
* (ii) `report.json` and `report.timing.json` are strict JSON (no NaN or
  Infinity), and every file the call writes lies under `--out`.

The search is derandomized and keeps no example database, so every run
draws the same scenarios.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from ultradiff.cli import PROFILES, TASKS, main

VERBS = ("analyze", "synthesize")
FRACTIONS = st.integers(0, 16).map(lambda i: i / 16)


@st.composite
def _box(draw, domain):
    """A box inside the domain, its edges on a 1/16 grid of each axis."""
    box = []
    for lo, hi in domain:
        left, right = sorted(draw(st.lists(FRACTIONS, min_size=2, max_size=2,
                                           unique=True)))
        box.append([lo + (hi - lo) * left, lo + (hi - lo) * right])
    return box


@st.composite
def _actuator(draw, domain, n_modes):
    ndim = len(domain)
    profile = draw(st.sampled_from(PROFILES))
    if profile == "constant":
        coefficients = [draw(st.floats(-3.0, 3.0))]
    elif profile == "polynomial":
        coefficients = []
        for _ in range(draw(st.integers(1, 3))):
            coefficients += [draw(st.floats(-3.0, 3.0))]
            coefficients += draw(st.lists(st.integers(0, 3), min_size=ndim,
                                          max_size=ndim))
    elif profile == "product-of-sines":
        coefficients = [draw(st.floats(-3.0, 3.0))]
        coefficients += draw(st.lists(st.integers(1, 6), min_size=ndim,
                                      max_size=ndim))
    else:
        coefficients = [draw(st.integers(0, n_modes - 1))]
    return {"support": [draw(_box(domain))], "profile": profile,
            "coefficients": coefficients}


@st.composite
def scenarios(draw):
    ndim = draw(st.integers(1, 2))
    cutoff = draw(st.integers(1, 8 if ndim == 1 else 4))
    family = draw(st.sampled_from(("canonical", "whole-wave")))
    if family == "whole-wave":       # integer endpoints
        domain = [[lo, lo + draw(st.integers(1, 4))]
                  for lo in draw(st.lists(st.integers(-3, 3), min_size=ndim,
                                          max_size=ndim))]
    else:
        domain = [[lo, lo + draw(st.floats(1e-2, 10.0))]
                  for lo in draw(st.lists(st.floats(-5.0, 5.0), min_size=ndim,
                                          max_size=ndim))]
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True))
    a = draw(st.sampled_from((1e-3, 0.5, 1.0, 2.0, 100.0)))
    b = a * draw(st.floats(1.01, 1e4))
    horizon = math.log(b / a)
    epsilon = None
    if alpha <= 0.5 or draw(st.booleans()):
        epsilon = horizon * draw(st.floats(1e-4, 0.5))
    n_modes = cutoff ** ndim
    return {
        "name": draw(st.text()),
        "task": draw(st.sampled_from(TASKS)),
        "domain": domain,
        "family": family,
        "cutoff": cutoff,
        "alpha": alpha,
        "window": [a, b],
        "region": [draw(_box(domain))],
        "actuators": draw(st.lists(_actuator(domain, n_modes), min_size=1,
                                   max_size=5)),
        "target": {"kind": "random-span", "seed": draw(st.integers(0, 2 ** 32)),
                   "scale": draw(st.floats(1e-3, 1e3))},
        "epsilon_cutoff": epsilon,
        "seed": draw(st.integers(0, 100)),
    }


def _run(verb: str, data: dict) -> None:
    """One in-process call under contracts (i) and (ii)."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp, "scenario.json")
        scenario.write_text(json.dumps(data), encoding="utf-8")
        out = Path(tmp, "out", "run")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([verb, "--scenario", str(scenario), "--out", str(out)])
        stderr = err.getvalue()
        assert code in (0, 1, 2), (code, stderr)
        assert "Traceback" not in stderr and "error:" not in stderr, stderr
        if code == 1:
            assert stderr.startswith(("refused:", "invalid scenario")), stderr
        written = {Path(root, f) for root, _, files in os.walk(tmp) for f in files}
        assert all(out in path.parents for path in written - {scenario}), written
        if code != 1:
            for name in ("report.json", "report.timing.json"):
                json.loads((out / name).read_text(encoding="utf-8"),
                           parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise AssertionError(f"non-standard JSON constant {name}")


_CUBE = [[0.0, 1.0]] * 3
_HUM_DEMO = json.loads((Path(__file__).resolve().parents[1] / "scenarios"
                        / "hum-demo.json").read_text(encoding="utf-8"))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=scenarios())
# a 3-D domain, a name that points out of --out, names no file can carry (too
# long, or no UTF-8), a window whose b/a overflows, and a synthesize-task file
# without a target (which analyze does not read)
@example(data={"name": "three-axis", "task": "analyze", "domain": _CUBE,
               "cutoff": 3, "alpha": 0.7, "window": [1.0, 4.0],
               "region": [[[0.0, 0.5]] * 3],
               "actuators": [{"support": [_CUBE], "profile": "constant",
                              "coefficients": [1.0]}]})
@example(data={**_HUM_DEMO, "name": "../escaped"})
@example(data={**_HUM_DEMO, "name": "x" * 250})
@example(data={**_HUM_DEMO, "name": "\ud800"})
@example(data={**_HUM_DEMO, "window": [1e-300, 1e300]})
@example(data={**_HUM_DEMO, "target": None})
def test_generated_scenarios_keep_the_exit_and_report_contracts(data):
    for verb in VERBS:
        _run(verb, data)
