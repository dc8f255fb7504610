"""Property suite for load_moments over models drawn across decades.

The clustering term of E[L^2] is lambda_p m_bar^2 E[gamma(s D)] (normalized
units), with gamma the typical cell's covariogram, D the distance between two
offspring of one parent for unit cluster size s, and 0 <= gamma <= 1
decreasing; the invariants below follow from that form.  The profile is
derandomized with a fixed example count, so every run draws the same models.
"""

import math
import time

from hypothesis import given, settings, strategies as st

from cellload.analytic import _pair_excess_integral, load_moments, ppp_baseline_variance
from cellload.ppmodel import Matern, NetworkModel, Thomas, UserModel

PROFILE = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


KINDS = st.sampled_from([Thomas, Matern])
LAMBDA_B = log_uniform(-2, 2)
LAMBDA_P = log_uniform(-2, 2)
M_BAR = log_uniform(-1, 2)
SIZE = log_uniform(-6, 2)


def network(kind, lambda_b, lambda_p, m_bar, size) -> NetworkModel:
    return NetworkModel(lambda_b, UserModel(lambda_p, m_bar, kind(size)))


def timed_moments(net: NetworkModel):
    """load_moments and the best wall time of three calls."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        m = load_moments(net)
        best = min(best, time.perf_counter() - start)
    return m, best


@PROFILE
@given(KINDS, LAMBDA_B, LAMBDA_P, M_BAR, SIZE)
def test_bounds_and_cost(kind, lambda_b, lambda_p, m_bar, size):
    net = network(kind, lambda_b, lambda_p, m_bar, size)
    m, seconds = timed_moments(net)
    assert seconds < 0.01
    assert m.variance >= ppp_baseline_variance(net)
    # gamma <= 1: at most every offspring pair of a cluster counts in full
    term = _pair_excess_integral(net)
    assert 0.0 < term.value <= lambda_p / lambda_b * m_bar**2 + term.error_estimate


@PROFILE
@given(KINDS, LAMBDA_B, LAMBDA_P, M_BAR, SIZE, log_uniform(-2, 2))
def test_lambda_b_scale_invariance(kind, lambda_b, lambda_p, m_bar, size, scale):
    # multiplying every length by 1/scale leaves the normalized model unchanged
    net = network(kind, lambda_b, lambda_p, m_bar, size)
    rescaled = network(kind, lambda_b * scale**2, lambda_p * scale**2, m_bar, size / scale)
    assert math.isclose(load_moments(rescaled).variance, load_moments(net).variance, rel_tol=1e-9)


@PROFILE
@given(KINDS, LAMBDA_B, LAMBDA_P, M_BAR, SIZE, SIZE)
def test_variance_non_increasing_in_cluster_size(kind, lambda_b, lambda_p, m_bar, s1, s2):
    nets = [network(kind, lambda_b, lambda_p, m_bar, s) for s in sorted((s1, s2))]
    small, large = (load_moments(net) for net in nets)
    # the two variances differ only in the clustering term
    slack = sum(_pair_excess_integral(net).error_estimate for net in nets)
    assert small.variance >= large.variance - slack
