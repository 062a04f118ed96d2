"""Truncated Hilbert transform with overlap.

Numerical library for the finite-interval Hilbert transform whose data
interval only partially overlaps the object support: the interval
constants as elliptic integrals in Carlson form, the sampled operator and
its singular value decomposition at high relative accuracy, closed-form
asymptotic laws for both ends of the spectrum, truncated-SVD and Tikhonov
inversion with quasi-optimal parameter choices, and the worst-case
stability bounds (Hoelder on a region of interest, logarithmic on the
full support) with all constants calibrated from the computed spectrum.
"""

from .asymptotics import (WkbProfile, near_one_model_valid, roi_norm_model,
                          sigma_model_neg, sigma_model_pos, u_wkb, wkb_epsilon,
                          wkb_profile, wkb_roi_norm_quadrature)
from .bounds import (AsymptoticConstants, calibrate_constants,
                     full_interval_bound, full_interval_validity, l2_validity,
                     roi_bound_l2, roi_bound_tv, tv_validity, v_mu, w_mu,
                     write_bounds_csv)
from .config import ExperimentConfig, default_config, load_config
from .errors import (BoundNotApplicableError, ConfigError, DomainError,
                     GeometryError, GridError, QuadratureError, SpectralError,
                     TruncatedHilbertError)
from .geometry import (Geometry, alpha, beta_mu_approx, beta_mu_exact,
                       check_roi, holder_exponent, k_minus, k_plus,
                       near_one_rate, poly_P, poly_P_prime_a3, w3)
from .operator import (DiscreteOperator, SampledGrid, apply_adjoint,
                       apply_forward, build_operator, weighted_dot,
                       weighted_norm)
from .regularization import (CutoffChoice, NoisyData, ReconstructionResult,
                             add_noise, export_reconstruction, make_phantom,
                             optimal_cutoff_l2, tikhonov_reconstruct,
                             tsvd_reconstruct)
from .spectral import (SingularSystem, TailFit, check_monotone, compute_svd,
                       export_spectrum_csv, fit_exponential, fit_roi_decay,
                       fit_tail_decay, near_one_tail_fit, roi_mask, roi_norm,
                       sigma_counts, tail_index_map)

__version__ = "0.1.0"
