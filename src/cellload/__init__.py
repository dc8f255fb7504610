"""Typical-cell load distribution and downlink rate coverage for cellular
networks with Poisson base stations and clustered (Thomas/Matern) users.

Analytic results (moments, PGF, load PMF, SIR and rate coverage)
live in `analytic`; the ground-truth spatial simulator lives in `montecarlo`;
`cellload.cli` exposes both as a command line tool.
"""

from .analytic import (
    DftPmf,
    LoadMoments,
    LoadPmf,
    NegBinParams,
    RateConfig,
    dft_invert_pgf,
    invert_pgf,
    load_moments,
    load_pgf,
    load_pmf,
    mean_load,
    nb_fit,
    nb_pmf,
    ppp_baseline_variance,
    rate_coverage,
    sir_ccdf,
)
from .errors import (
    CellLoadError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    InfeasibleModelError,
    InversionQualityError,
)
from .ppmodel import (
    Matern,
    NetworkModel,
    Thomas,
    UserModel,
    cluster_cdf,
)
from .quadrature import IntegrationResult, QuadSpec, integrate_finite
from .specfun import cell_radius_pdf, marcum_q1

__version__ = "0.1.0"

# The simulator loads on first use, so analytic-only processes never import it.
_MONTECARLO = (
    "SimConfig",
    "empirical_ccdf",
    "empirical_pmf",
    "run_load_simulation",
    "run_sir_simulation",
    "sample_pcp",
    "sample_ppp",
    "tv_distance",
)


def __getattr__(name):
    if name == "montecarlo" or name in _MONTECARLO:
        import importlib

        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MONTECARLO) | {"montecarlo"})
