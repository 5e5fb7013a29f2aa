"""Shared fixtures, session-scoped where they hold results that several
test modules read (the shrinking-sphere sweep); all randomness is seeded."""

import numpy as np
import pytest

from mvlab.geometry import FlowGeometry
from mvlab.kernels import SubHeatKernel
from mvlab.reduced import ReducedDistanceField


@pytest.fixture(scope="session")
def e2():
    return FlowGeometry.euclidean(2)


@pytest.fixture(scope="session")
def e3():
    return FlowGeometry.euclidean(3)


@pytest.fixture(scope="session")
def h3():
    return FlowGeometry.hyperbolic(3)


@pytest.fixture(scope="session")
def s2():
    return FlowGeometry.shrinking_sphere(2)


@pytest.fixture(scope="session")
def s3():
    return FlowGeometry.shrinking_sphere(3)


@pytest.fixture(scope="session")
def flat2():
    return FlowGeometry.gaussian_soliton(2)


@pytest.fixture(scope="session")
def flat3():
    return FlowGeometry.gaussian_soliton(3)


@pytest.fixture(scope="session")
def rd_flat2(flat2):
    return ReducedDistanceField(flat2)


@pytest.fixture(scope="session")
def rd_flat3(flat3):
    return ReducedDistanceField(flat3)


@pytest.fixture(scope="session")
def rd_s3(s3):
    return ReducedDistanceField(s3)


@pytest.fixture(scope="session")
def khat_flat2(rd_flat2):
    return SubHeatKernel(rd_flat2)


@pytest.fixture(scope="session")
def khat_s3(rd_s3):
    return SubHeatKernel(rd_s3)


@pytest.fixture(scope="session")
def s3_ricci_sweep(khat_s3):
    """The shrinking-sphere monotonicity sweep, computed once per session."""
    from mvlab.mv_parabolic import jhat_sweep
    return jhat_sweep(khat_s3, [0.8, 1.1, 1.4, 1.7, 2.0, 2.3])


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
