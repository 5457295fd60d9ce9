"""Quantum anti-cloning verification lab.

Universal anti-cloning (one aligned copy, one anti-aligned copy, optimal
shrinking factor 1/3), its numerical re-derivation by direct optimization,
and probabilistic exact anti-cloning with Gram-matrix feasibility
certificates.
"""

from . import cli, linalg, machine, optimize, probclone, qubit
from .machine import (
    AnticlonerParams,
    BaselineReport,
    CloneOutput,
    ConstraintReport,
    anticlone,
    build_isometry,
    constraint_residuals,
    haar_directions,
    measure_prepare_baseline,
    measure_prepare_pole_average,
    optimal_params,
    target_forms,
)
from .optimize import (
    OptimizerConfig,
    OptimizerResult,
    optimize_spinflip,
    optimize_universal,
)
from .probclone import (
    CopySpec,
    FeasibilityResult,
    ProbCloner,
    ShotStats,
    StateSet,
    build_two_state_anticloner,
    max_feasible_f,
    run_prob_anticlone,
    two_state_efficiency,
)
from .qubit import (
    BlochVector,
    QubitState,
    antiunitary_flip,
    bloch_to_state,
    fidelity_direction,
    state_to_bloch,
)

__version__ = "0.1.0"
