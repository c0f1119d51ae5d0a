"""Frequency-domain inference for modulated Gaussian time series.

Builds the exact expected periodogram of a modulated (missing-data or
frequency-modulated) Gaussian process and fits latent-model parameters by a
Whittle-type pseudo-likelihood, including the complex-valued drifter
application and the Monte Carlo study harness.
"""

__version__ = "0.1.0"

from .core import Series, FourierGrid, ParameterVector, fourier_grid
from .models import (
    LatentModel,
    ar_model,
    car1_model,
    ou_model,
    matern_model,
    ou_to_ar,
    ar_to_ou,
)
from .modulation import (
    Modulator,
    cg_sequence,
    component_cg,
    constant_modulator,
    periodic_missing_mask,
    bernoulli_mask,
    cosine_bernoulli_mask,
    frequency_modulator,
    linear_frequency_modulator,
    linear_beta,
    cg_linear_closed_form,
    LinearRampKernel,
    significant_correlation_diagnostic,
    stationarity_check,
)
from .likelihood import (
    AggregateModel,
    Objective,
    aggregate_expected_periodogram,
    exact_gaussian_nll,
)
from .optimize import FitResult, fit, inverse_transform, transform
from .simulate import (
    McReport,
    McStudy,
    bounded_random_walk_beta,
    run_study,
    simulate_ar,
    simulate_complex_ar1,
    simulate_from_acv,
)
from .drifter import (
    Trajectory,
    batch_compare,
    drifter_modulator,
    fit_drifter,
    inertial_frequency,
    velocities_from_positions,
)
from .spectra import (
    periodogram,
    expected_acv,
    expected_periodogram,
    brute_force_expected_periodogram,
    fejer_kernel,
    exponential_qq,
)

__all__ = [name for name in dir() if not name.startswith("_")]
