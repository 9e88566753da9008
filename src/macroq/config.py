"""Default numerical tolerances, collected in one place so they can be overridden."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle used by state constructors, validators and I/O.

    All values are defaults; pass a modified instance to the functions that
    accept a ``tol`` argument to tighten or loosen individual checks.
    """

    hermiticity: float = 1e-12       # max|rho - rho^dag| relative to max|rho|
    trace: float = 1e-10             # |Tr(rho) - 1| after normalization
    positivity_floor: float = -1e-9  # smallest admissible eigenvalue
    displacement_leak: float = 1e-6  # trace loss allowed by apply_displacement
    grid_normalization: float = 0.02  # |integral(W) - 1| warning level on load
    boundary_leak: float = 1e-8      # |W| at grid edge relative to the peak


DEFAULT = Tolerances()
