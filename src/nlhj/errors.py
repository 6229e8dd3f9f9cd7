"""Exception types shared across the package."""


class NlhjError(Exception):
    """Base class for all package errors."""


# kernels
class InvalidResolution(NlhjError):
    """Truncation radius too small relative to the grid spacing."""


# operators
class NodeOutsideGrid(NlhjError):
    """Evaluation point does not correspond to a stored lattice node."""


# hamiltonians
class ViscosityUnderflow(NlhjError):
    """Sampled |dH/dp| exceeded the Lax-Friedrichs viscosity."""

    def __init__(self, msg, required=None):
        super().__init__(msg)
        self.required = required


# solver
class BlowUp(NlhjError):
    """Sup-norm exceeded the state's cap during a run."""


class NonConvergence(NlhjError):
    """Steady-state iteration did not reach tolerance in max steps."""


# harness
class PreconditionError(NlhjError):
    """An experiment's gating assumption check failed."""


# config / cli
class ParseError(NlhjError):
    """Configuration or expression text could not be parsed."""


class ValidationError(NlhjError):
    """One or more configuration invariants are violated.

    Carries the full list so callers see every problem at once.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
