"""Smoothness-parameter estimation for linear ill-posed problems.

The pipeline: run Landweber iteration on A x = y, log residual and gradient
norms, regress log-gradient against log-residual per prefix, convert the
slope to the source-condition exponent mu, read the estimate off a stable
window, and cross-check it with observable error bounds, a Tikhonov
convergence-rate experiment, and a spectral summability test.
"""

from .operators import (ConvergenceError, LinearOperator, SpectralDecomposition,
                        dense_operator, diagonal_operator, kernel_operator,
                        midpoint_nodes, operator_norm, svd,
                        read_matrix_market, write_matrix_market,
                        read_vector, write_vector)
from .problems import (NoisyData, ProblemSpec, add_noise, load_external,
                       make_deriv2, make_exp_operator, make_exp_solution,
                       make_gravity, make_power_law)
from .landweber import IterationTrace, LandweberConfig, landweber_run, write_trace_csv
from .estimator import (EstimateTrack, detect_discretization_saturation,
                        detect_noise_takeover, detect_stable_window, estimate_track,
                        gamma_to_mu)
from .validation import (RateExperimentResult, SmoothnessVerdict, apriori_alpha,
                         bound_curves, max_mu_spectral, rate_experiment,
                         rate_exponent, tikhonov_solve, verify_smoothness)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
