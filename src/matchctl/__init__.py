"""Controlled-Lagrangian matching machinery: Helmholtz-condition residuals,
matching-condition checks, feedback-shaping synthesis, and closed-loop
verification for underactuated mechanical systems."""

from . import control, fields, helmholtz, jets, matching, model, report, sim
from .control import (GainSelection, cartpole_closed_loop, gain_bound, incline_closed_loop,
                      position_feedback_control, shaped_energy, shaped_multipliers)
from .helmholtz import (exactness_residuals, explicit_helmholtz_residuals,
                        implicit_helmholtz_residuals, sode_tensors)
from .lagrangian import (BlockInverse, ExplicitSode, ImplicitSode, ShapingParams,
                         controlled_implicit_sode, controlled_lagrangian_value,
                         ctilde_and_block_inverse, el_residual, feedback_control,
                         lagrangian_value, legendre_transform, solve_accel,
                         uncontrolled_sode)
from .matching import (integrate_new_tau, matching_residuals, new_tau_closed_form,
                       new_tau_ode_residual, simplified_matching_residuals,
                       generalized_matching_residuals, sm3_tau)
from .model import (CartpoleParams, Dims, InclineParams, MechanicalSystem, State,
                    build_mechanical_system, cartpole_system, incline_system,
                    validate_system)
from .report import ResidualReport
from .sim import Trajectory, energy_drift, integrate, write_csv

__version__ = "0.1.0"
