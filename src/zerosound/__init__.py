"""Zero-sound dispersion toolkit for a Fermi liquid with de Broglie diffraction.

The collective mode above the particle-hole continuum is governed by the
single dimensionless coupling A = Q0 + (3/4)(k lambda_d)^2.  This package
solves the exact dispersion relation, provides its weak- and
strong-coupling closed forms, and cross-checks everything against two
independent discrete oracles (a secular eigenproblem and direct kinetic
time evolution with spectral peak extraction).
"""

from .dispersion import (
    BranchScan,
    GridSpec,
    SolverConfig,
    asymptotic_zero_sound,
    branch_scan,
    dispersion_residual,
    high_frequency_branch,
    landau_kernel,
    solve_zero_sound,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidArgumentError,
    IOFailureError,
    NoCollectivePeakError,
    NoUndampedRootError,
    NumericalBlowupError,
    ZeroSoundError,
)
from .kinetic import (
    BACKEND,
    AngularGrid,
    AngularState,
    SpectralPeak,
    TimeSeries,
    build_angular_grid,
    discrete_collective_root,
    evolve_initial_value,
    secular_sum,
    spectral_peak,
    stability_bound,
)
from .model import (
    CouplingStrength,
    DispersionPoint,
    FermiParameters,
    InteractionModel,
    Method,
    coupling_strength,
    load_parameter_file,
    physical_frequency,
)

__version__ = "1.0.0"

__all__ = [
    "BACKEND",
    "__version__",
    "AngularGrid",
    "AngularState",
    "BranchScan",
    "ConvergenceError",
    "CouplingStrength",
    "DispersionPoint",
    "DomainError",
    "FermiParameters",
    "GridSpec",
    "InteractionModel",
    "InvalidArgumentError",
    "IOFailureError",
    "Method",
    "NoCollectivePeakError",
    "NoUndampedRootError",
    "NumericalBlowupError",
    "SolverConfig",
    "SpectralPeak",
    "TimeSeries",
    "ZeroSoundError",
    "asymptotic_zero_sound",
    "branch_scan",
    "build_angular_grid",
    "coupling_strength",
    "discrete_collective_root",
    "dispersion_residual",
    "evolve_initial_value",
    "high_frequency_branch",
    "landau_kernel",
    "load_parameter_file",
    "physical_frequency",
    "secular_sum",
    "solve_zero_sound",
    "spectral_peak",
    "stability_bound",
]
