"""ultradiff: ultra-slow diffusion on a logarithmic clock.

Simulation of fractional-in-log-time diffusion, regional gradient
controllability analysis, and minimum-energy control synthesis on
rectangular domains.
"""

from .logtime import LogTimeWindow
from .mittag_leffler import ml_on_negative_axis
from .spectral import (
    Actuator,
    ActuatorSet,
    GradientBasisGram,
    RectDomain,
    Region,
    SeparableProfile,
    SpectralBasis,
    actuator_coefficients,
    adjoint_gradient_coefficients,
    gradient_gram,
)
from .solver import (
    ControlSignal,
    EnergyDivergenceError,
    adjoint_solution,
    forced_solution,
    free_solution,
)
from .controllability import (
    ControllabilityVerdict,
    GradientGramian,
    approx_controllability_verdict,
    assemble_gramian,
    strategic_test,
    worked_example_pairing_table,
)
from .hum import (
    HumProblem,
    HumSolution,
    MinimalityReport,
    energy,
    g_norm,
    solve_hum,
    verify_minimality,
)

__version__ = "0.1.0"

__all__ = [
    "LogTimeWindow",
    "ml_on_negative_axis",
    "Actuator",
    "ActuatorSet",
    "GradientBasisGram",
    "RectDomain",
    "Region",
    "SeparableProfile",
    "SpectralBasis",
    "actuator_coefficients",
    "adjoint_gradient_coefficients",
    "gradient_gram",
    "ControlSignal",
    "EnergyDivergenceError",
    "adjoint_solution",
    "forced_solution",
    "free_solution",
    "ControllabilityVerdict",
    "GradientGramian",
    "approx_controllability_verdict",
    "assemble_gramian",
    "strategic_test",
    "worked_example_pairing_table",
    "HumProblem",
    "HumSolution",
    "MinimalityReport",
    "energy",
    "g_norm",
    "solve_hum",
    "verify_minimality",
    "__version__",
]
