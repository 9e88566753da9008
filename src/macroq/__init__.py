"""Interference-based macroscopicity of bosonic states.

The measure I(rho) counts the coherently delocalized part of a state's
occupation: it equals the total occupation for pure states with vanishing
field averages, never exceeds it, and sets the instantaneous purity decay
under amplitude damping through dP/dtau = -2 I.
"""

from .config import DEFAULT, Tolerances
from .fock import (DensityMatrix, ModeCutoffs, TruncationLeakError,
                   annihilation_op, apply_displacement, apply_rotation,
                   displacement_matrix, number_op, suggest_cutoff)
from .measure import (ConvergenceError, MeasureResult, measure,
                      measure_char_quadrature, measure_operator,
                      measure_wigner_grid)
from .phasespace import (Axis, DenseChar, WignerGrid, char_of, fringe_frequency,
                         load_wigner, save_wigner, wigner_of, wigner_points)
from .lowrank import ProductRankState, measure_lowrank
from .catalog import (GaussianChar, ThermalSCSChar, closed_form_decohered_scs,
                      closed_form_scs, dur_asymptotic, dur_exact, dur_measure,
                      gaussian_decohere, gaussian_measure, make_coherent,
                      make_decohered_scs, make_dur, make_fock, make_ghz,
                      make_maximally_mixed, make_mixture_scs, make_noon,
                      make_scs, make_squeezed, make_thermal, make_thermal_scs,
                      mixture_scs_measure, scs_mean_n, squeezed_char_params,
                      thermal_measure, thermal_scs_measure)
from .dynamics import (TrajectoryPoint, damp, evolve, lindblad_rhs,
                       purity_rate_residuals)

__version__ = "0.1.0"
