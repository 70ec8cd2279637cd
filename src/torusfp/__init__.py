"""torusfp: a classical numerical laboratory for Gibbs sampling on tori via
the spectrally discretized Fokker-Planck equation."""

import os as _os

# TORUSFP_THREADS caps worker counts; it must land before the BLAS loads.
_threads = _os.environ.get("TORUSFP_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import EvalError, PreconditionError, SizeError, TorusFpError, ValidationError
from .lattice import (
    GridField,
    SpectralField,
    TorusLattice,
    constant_field,
    dft,
    discretize,
    idft,
    make_lattice,
)
from .spectral import (
    DerivativeKernel,
    derivative_error_report,
    derivative_kernel,
    fourier_derivative,
    kernel_derivative,
    laplacian,
)
from .potential import (
    EnergyPotential,
    PeriodicMlp,
    bessel_i,
    cosine_potential,
    expcos_family,
    invcos_potential,
    mlp_potential,
    zero_potential,
)
from .semianalytic import (
    BernsteinParams,
    FourierMomentProfile,
    SemiAnalyticityParams,
    alias_witness,
    bernstein_from_semianalytic,
    compose_params,
    fit_params,
    mlp_analyticity_bound,
    semi_norms,
    semianalytic_from_bernstein,
    tail_bounds,
    tail_mass,
)
from .generator import (
    Operator,
    build_generator,
    condition_number_check,
    operator_norm_check,
    poincare_report,
)
from .evolve import (
    EvolutionResult,
    choose_T,
    decay_report,
    evolve,
    norm_and_max_principle_report,
)
from .sampler import (
    MeanEstimate,
    SampleBatch,
    TvReport,
    choose_M,
    continuous_sample,
    estimate_mean,
    exact_mean,
    run_pipeline,
    tv_distance,
    upsample,
)

__version__ = "0.1.0"

__all__ = [
    "BernsteinParams",
    "DerivativeKernel",
    "EnergyPotential",
    "EvalError",
    "EvolutionResult",
    "FourierMomentProfile",
    "GridField",
    "MeanEstimate",
    "Operator",
    "PeriodicMlp",
    "PreconditionError",
    "SampleBatch",
    "SemiAnalyticityParams",
    "SizeError",
    "SpectralField",
    "TorusFpError",
    "TorusLattice",
    "TvReport",
    "ValidationError",
    "alias_witness",
    "bessel_i",
    "bernstein_from_semianalytic",
    "build_generator",
    "choose_M",
    "choose_T",
    "compose_params",
    "condition_number_check",
    "constant_field",
    "continuous_sample",
    "cosine_potential",
    "decay_report",
    "derivative_error_report",
    "derivative_kernel",
    "dft",
    "discretize",
    "estimate_mean",
    "evolve",
    "exact_mean",
    "expcos_family",
    "fit_params",
    "fourier_derivative",
    "idft",
    "invcos_potential",
    "kernel_derivative",
    "laplacian",
    "make_lattice",
    "mlp_analyticity_bound",
    "mlp_potential",
    "norm_and_max_principle_report",
    "operator_norm_check",
    "poincare_report",
    "run_pipeline",
    "semi_norms",
    "semianalytic_from_bernstein",
    "tail_bounds",
    "tail_mass",
    "tv_distance",
    "upsample",
    "zero_potential",
]
