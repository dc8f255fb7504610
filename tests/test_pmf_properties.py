"""Property suite for load_pmf over models drawn across decades.

Each draw fixes the model in normalized units (lambda_p / lambda_b, m_bar
and the cluster size times sqrt(lambda_b)) and a BS density lambda_b; the
load is a count, so the PMF must not depend on lambda_b.  Cluster sizes run
over eight decades, up to 200 / sqrt(lambda_b), where a Matern disc holds
the cell and the PGF table takes that plateau in closed form, and down to
1e-6 / sqrt(lambda_b), where a Thomas cluster CDF's Marcum Q argument
reaches about 1.7e6 and takes its large-argument expansion.  The ranges keep
out m_bar beyond 20 (the PGF table and the DFT grow with m_bar and the mean
load).  Their far corner, lambda_p / lambda_b = m_bar = 20 with cluster size
2 / sqrt(lambda_b) (mean load 400, where the void probability of the largest
cells underflows), has its own test with a 3 s bound per call, which also
runs it at m_bar = 50 (mean load 1,000, a DFT of 16,384 points whose radius
rows go through the FFT in several blocks).  The profile is derandomized
with a fixed example count, so every run draws the same models.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellload.analytic import load_pmf, mean_load
from cellload.ppmodel import Matern, NetworkModel, Thomas, UserModel

PROFILE = settings(derandomize=True, max_examples=25, deadline=None, database=None)


@st.composite
def models(draw):
    """(kernel, lambda_b, lambda_p / lambda_b, m_bar, size sqrt(lambda_b)), the
    four numbers log-uniform.  They come from a seeded generator: hypothesis's
    own float draws cluster on round values and range ends."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def log_uniform(lo: float, hi: float) -> float:
        return lo * (hi / lo) ** rng.random()

    kind = draw(st.sampled_from([Thomas, Matern]))
    return kind, log_uniform(0.1, 10.0), log_uniform(0.1, 20.0), log_uniform(0.3, 20.0), \
        log_uniform(1e-6, 200.0)


def network(kind, lambda_b, ratio, m_bar, size) -> NetworkModel:
    """The model with lambda_p = ratio * lambda_b and cluster size
    size / sqrt(lambda_b), i.e. the same model in normalized units."""
    return NetworkModel(lambda_b, UserModel(ratio * lambda_b, m_bar, kind(size / math.sqrt(lambda_b))))


def timed_pmf(net: NetworkModel):
    start = time.perf_counter()
    pmf = load_pmf(net)
    return pmf, time.perf_counter() - start


@PROFILE
@given(models())
def test_pmf_invariants(model):
    kind, lambda_b, ratio, m_bar, size = model
    net = network(kind, lambda_b, ratio, m_bar, size)
    pmf, seconds = timed_pmf(net)
    assert seconds < 1.0
    assert np.all(pmf.probs >= 0.0)
    assert pmf.tail_mass() <= 1e-9
    assert pmf.mean() == pytest.approx(mean_load(net), rel=1e-6)

    unit, seconds = timed_pmf(network(kind, 1.0, ratio, m_bar, size))
    assert seconds < 1.0
    assert pmf.probs.size == unit.probs.size
    assert np.max(np.abs(pmf.probs - unit.probs)) <= 1e-12


@pytest.mark.parametrize("kind", [Thomas, Matern])
def test_far_corner(kind):
    # the largest cells see thousands of clusters, so their void probability
    # underflows, which the DFT never forms; at m_bar = 50 the radius rows
    # no longer fit in one FFT block
    for m_bar in (20.0, 50.0):
        probs = []
        for lambda_b in (1.0, 4.0):
            net = network(kind, lambda_b, 20.0, m_bar, 2.0)
            pmf, seconds = timed_pmf(net)
            assert seconds < 3.0
            assert np.all(pmf.probs >= 0.0)
            assert pmf.tail_mass() <= 1e-9
            assert pmf.mean() == pytest.approx(mean_load(net), rel=1e-6)
            probs.append(pmf.probs)
        assert probs[0].size == probs[1].size
        assert np.max(np.abs(probs[0] - probs[1])) <= 1e-12
