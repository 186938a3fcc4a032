"""Exceptions raised by the solver."""


class NonPhysicalState(Exception):
    """Raised when a state loses positivity of density, pressure, or
    internal energy.  Signals solver blow-up; the current run should abort."""


class NoConvergence(Exception):
    """Raised when the shifted pressure operator is not positive definite.

    Usually means the time step is too large for the assembled system.
    """
