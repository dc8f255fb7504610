"""Typical-cell load distribution and downlink rate coverage for cellular
networks with Poisson base stations and clustered (Thomas/Matern) users.

Analytic results (moments, PGF, PMF by DFT inversion, SIR and rate coverage)
live in `analytic`; the ground-truth spatial simulator lives in `montecarlo`;
`cellload.cli` exposes both as a command line tool.
"""

from .analytic import (
    LoadMoments,
    LoadPmf,
    NegBinParams,
    RateConfig,
    dft_invert_pgf,
    invert_pgf,
    load_moments,
    load_pgf,
    mean_load,
    nb_fit,
    nb_pmf,
    ppp_baseline_variance,
    rate_coverage,
    second_moment_load,
    sir_ccdf,
    variance_load,
)
from .errors import (
    CellLoadError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    InfeasibleModelError,
    InversionQualityError,
)
from .montecarlo import (
    SimConfig,
    empirical_ccdf,
    empirical_pmf,
    run_load_simulation,
    run_sir_simulation,
    sample_pcp,
    sample_ppp,
    tv_distance,
)
from .ppmodel import (
    Matern,
    NetworkModel,
    Thomas,
    UserModel,
    cluster_cdf,
    conditional_distance_pdf,
    pair_correlation_density,
)
from .quadrature import IntegrationResult, QuadSpec, integrate_finite
from .specfun import bessel_i0_scaled, cell_radius_pdf, marcum_q1

__version__ = "0.1.0"
