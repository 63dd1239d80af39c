"""Probe scenarios that more than one test module runs.

``tests/`` has no ``__init__.py`` and pytest puts the test directory on
``sys.path``, so a test imports these as ``from _probes import ...``.
"""

import numpy as np


def zone_probe_dict(cutoff, grid):
    """The zone probe as a scenario dict: a grid x grid tiling of the unit
    square by product-of-sines boxes, each axis's frequency drawn from
    default_rng(3), steering the quadrant's gradient to a target drawn after
    them; alpha 0.7, window [1, 4]."""
    rng = np.random.default_rng(3)
    actuators = []
    for i in range(grid):
        for j in range(grid):
            freqs = rng.integers(1, 7, size=2)
            box = [[i / grid, (i + 1) / grid], [j / grid, (j + 1) / grid]]
            actuators.append({
                "support": [box],
                "profile": "product-of-sines",
                "coefficients": [1.0, float(freqs[0]), float(freqs[1])],
                "label": f"box-{i}-{j}"})
    return {"name": f"zone{cutoff}-{grid}", "task": "synthesize",
            "domain": [[0.0, 1.0], [0.0, 1.0]], "family": "canonical",
            "cutoff": cutoff, "alpha": 0.7, "window": [1.0, 4.0],
            "region": [[[0.0, 0.5], [0.0, 0.5]]], "actuators": actuators,
            "target": {"kind": "coefficients", "values": [
                float(v) for v in rng.standard_normal(cutoff * cutoff)]}}
