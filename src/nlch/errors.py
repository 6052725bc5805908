"""Exception types shared by all nlch modules."""


class NlchError(Exception):
    """Base class for all package errors."""


class ConfigError(NlchError):
    """Invalid configuration value, unknown key, or unusable parameter combination."""


class DimensionError(NlchError):
    """Fields or operators living on incompatible grids."""


class SolverError(NlchError):
    """A linear solver or the resolvent iteration failed to reach its target residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StepError(NlchError):
    """The nonlinear time-step iteration diverged or produced an invalid state.

    ``phase`` names the failed part of the step (Newton, resolvent,
    nutrient, convergence or barrier). ``model.run_rows`` sets all three
    of ``partial``, the run's Trajectory up to the failure, ``step``, the
    1-based index of the failed step, and ``t``, the time it advanced to.
    """

    def __init__(self, message, residual_history=None, phase=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.phase = phase
        self.partial = self.step = self.t = None


class AssumptionError(NlchError):
    """A named structural assumption or theorem hypothesis fails to hold."""

    def __init__(self, name, message, value=None):
        super().__init__(f"{name}: {message}")
        self.name = name
        self.value = value


class InapplicabilityError(NlchError):
    """The requested operation is outside its domain of validity."""


class ComparisonError(NlchError):
    """Trajectories cannot be compared (misaligned time grids or parameters)."""


class FitError(NlchError):
    """Not enough usable points for a rate fit."""


class StiffnessError(NlchError):
    """The BDF integrator of the spectral oracle failed: its step size
    underflowed, or its Newton matrix is not finite."""
