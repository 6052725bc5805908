"""Non-local Cahn-Hilliard tumor growth: simulation library and CLI.

Subpackages:
  grid         uniform Neumann grids, discrete operators, dual norms
  kernel       FFT convolution operator and its structural constants
  potential    double-well splits with resolvent/Yosida/Moreau calculus
  model        IMEX time stepper for all relaxation regimes (eps, tau >= 0)
  audit        the one table of admission gates, derived constants, audit report
  diagnostics  observables, trajectory distances, theorem probes
  galerkin     spectral Faedo-Galerkin oracle (1D cross-validation)
  asymptotics  relaxation-limit sweeps, rate fits, stability probe
  cli          configuration, audit, and run orchestration

Importing the package sets OPENBLAS_NUM_THREADS=1 before numpy loads,
unless the environment sets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS or numpy is already imported: numpy's OpenBLAS and the
copy in scipy's _flapack then start no worker thread, which no BLAS
call at nlch's sizes would use. A caller's own setting wins.
"""

import os
import sys

if "numpy" not in sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
del os, sys

from .errors import (
    AssumptionError,
    ComparisonError,
    ConfigError,
    DimensionError,
    FitError,
    InapplicabilityError,
    NlchError,
    SolverError,
    StepError,
    StiffnessError,
)
from .grid import Field, GridSpec
from .kernel import KernelBundle, KernelSpec, build, convolve
from .model import InitialData, ModelParams, State, Trajectory, run
from .potential import (
    PotentialSpec,
    double_obstacle_potential,
    logarithmic_potential,
    polynomial_potential,
)

__version__ = "0.1.0"
