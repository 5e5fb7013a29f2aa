"""Geometry module: curvature values, flow residuals, and the space-time
connection/divergence identities against finite-difference oracles."""

import math

import numpy as np
import pytest

from mvlab.errors import DomainError
from mvlab.geometry import FlowGeometry

from geometry_oracles import (SpaceTimePoint, flow_residual,
                              spacetime_christoffels,
                              spacetime_christoffels_fd, spacetime_divergence,
                              spacetime_divergence_fd, sphere_area)


def all_geometries():
    # the soliton keeps its own id: it is the constructor the CLI's
    # "gaussian" geometry goes through
    geoms = [FlowGeometry.euclidean(2), FlowGeometry.euclidean(3),
             FlowGeometry.hyperbolic(3), FlowGeometry.shrinking_sphere(2),
             FlowGeometry.shrinking_sphere(3)]
    return ([pytest.param(g, id=f"{g.kind}-n{g.n}") for g in geoms]
            + [pytest.param(FlowGeometry.gaussian_soliton(2),
                            id="gaussian-soliton-n2")])


def test_gaussian_soliton_is_the_euclidean_model():
    for n in (1, 2, 3):
        assert FlowGeometry.gaussian_soliton(n) == FlowGeometry.euclidean(n)
        assert FlowGeometry.gaussian_soliton(n).is_flat
        assert FlowGeometry.gaussian_soliton(n).is_static


def test_curvature_shrinking_s2():
    g = FlowGeometry.shrinking_sphere(2)
    assert g.scalar_R(0.0) == pytest.approx(2.0, abs=1e-14)
    assert g.ricci(0.0) == pytest.approx(1.0, abs=1e-14)
    assert g.scalar_R(0.2) == pytest.approx(2.0 / 0.6, rel=1e-14)


def test_curvature_static_kinds():
    e3 = FlowGeometry.euclidean(3)
    assert e3.scalar_R(1.0) == e3.ricci(1.0) == e3.upsilon(1.0) == 0.0
    h3 = FlowGeometry.hyperbolic(3)
    assert h3.scalar_R(1.0) == 0.0  # trace of the deformation tensor
    assert h3.upsilon(1.0) == 0.0
    assert h3.ricci(1.0) == -2.0    # the Ricci eigenvalue of the metric


# (ricci, upsilon, scalar_R) at t as the curvature took (rho, t) before it
# became a function of time: one eigenvalue, each radial and tangential pair
# equal, and R = v + (n - 1) v summed in that order
SEED_CURVATURE = {
    "shrinking-s2": lambda t: (1 / (1.0 - 2.0 * t), 1 / (1.0 - 2.0 * t),
                               1 / (1.0 - 2.0 * t) + 1 / (1.0 - 2.0 * t)),
    "euclidean3": lambda t: (0.0, 0.0, 0.0 + 2 * 0.0),
    "hyperbolic3": lambda t: (-2 * 1.0 ** 2, 0.0, 0.0 + 2 * 0.0),
}
CURVATURE_GEOMETRIES = {"shrinking-s2": FlowGeometry.shrinking_sphere(2),
                        "euclidean3": FlowGeometry.euclidean(3),
                        "hyperbolic3": FlowGeometry.hyperbolic(3)}


@pytest.mark.parametrize("name", sorted(SEED_CURVATURE))
def test_curvature_is_a_function_of_time(name):
    g = CURVATURE_GEOMETRIES[name]
    ts = [-3.0, -0.5, 0.0, 0.1, 0.2, 0.4]
    for t in ts:
        assert (g.ricci(t), g.upsilon(t), g.scalar_R(t)) == SEED_CURVATURE[name](t)
    # a column of times, as the heat-ball volume integrands pass them
    col = np.array(ts)[:, None]
    for got, want in zip((g.ricci(col), g.upsilon(col), g.scalar_R(col)),
                         zip(*(SEED_CURVATURE[name](t) for t in ts))):
        assert np.shape(got) in ((), (len(ts), 1))
        assert np.array_equal(np.broadcast_to(got, col.shape).ravel(), want)


def test_curvature_domain_error():
    g = FlowGeometry.shrinking_sphere(2)
    with pytest.raises(DomainError):
        g.check_point(10.0, 0.0)
    with pytest.raises(DomainError):
        g.check_point(0.3, 0.9)  # past the singular time


def test_flow_residual_shrinking_s3():
    g = FlowGeometry.shrinking_sphere(3)
    rng = np.random.default_rng(7)
    samples = [SpaceTimePoint(rho, t)
               for rho, t in zip(rng.uniform(0.1, 1.5, 20),
                                 rng.uniform(-0.2, 0.15, 20))]
    assert flow_residual(g, samples, h=1e-4) <= 1e-7


def test_flow_residual_static_exact():
    samples = [SpaceTimePoint(0.5, 0.0), SpaceTimePoint(1.2, 0.1)]
    assert flow_residual(FlowGeometry.euclidean(3), samples) == 0.0
    assert flow_residual(FlowGeometry.hyperbolic(3), samples) == 0.0


def test_flow_residual_boundary_time():
    g = FlowGeometry.shrinking_sphere(2)
    near_singular = g.time_interval[1] - 1e-6
    with pytest.raises(DomainError):
        flow_residual(g, [SpaceTimePoint(0.3, near_singular)], h=1e-4)


def test_sphere_areas():
    e3 = FlowGeometry.euclidean(3)
    assert sphere_area(e3, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-15)
    h3 = FlowGeometry.hyperbolic(3)
    assert sphere_area(h3, 1.0) == pytest.approx(
        4.0 * math.pi * math.sinh(1.0) ** 2, rel=1e-14)
    s2 = FlowGeometry.shrinking_sphere(2)
    assert sphere_area(s2, math.pi / 2.0, 0.0) == pytest.approx(
        2.0 * math.pi, rel=1e-14)
    with pytest.raises(DomainError):
        sphere_area(s2, 4.0, 0.0)


@pytest.mark.parametrize("geom", all_geometries())
def test_pole_smoothness(geom):
    t = 0.02 if not geom.is_static else 0.0
    for rho in (1e-4, 1e-5, 1e-6):
        assert abs(geom.warp(rho, t) / rho - 1.0) <= 1e-8
    assert geom.warp_dr(0.0, t) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("geom", all_geometries())
def test_christoffels_match_finite_differences(geom):
    t = 0.03 if not geom.is_static else 0.0
    for rho in (0.4, 0.9):
        p = SpaceTimePoint(rho, t)
        analytic = spacetime_christoffels(geom, p)
        fd = spacetime_christoffels_fd(geom, p, h=1e-4)
        assert np.max(np.abs(analytic - fd)) <= 1e-6


def test_christoffel_lemma_structure():
    # time-time components vanish for every kind; the time-space block is
    # the deformation tensor
    s2 = FlowGeometry.shrinking_sphere(2)
    p = SpaceTimePoint(0.6, 0.0)
    gamma = spacetime_christoffels(s2, p)
    assert np.all(gamma[0, 0, :] == 0.0) and np.all(gamma[0, :, 0] == 0.0)
    # radial coordinate component at t=0 equals the Ricci eigenvalue n-1 = 1
    assert gamma[0, 1, 1] == pytest.approx(1.0, abs=1e-14)
    assert gamma[1, 0, 1] == pytest.approx(-1.0, abs=1e-14)

    e3 = FlowGeometry.euclidean(3)
    g2 = spacetime_christoffels(e3, SpaceTimePoint(0.8, 0.0))
    assert np.all(g2[0] == 0.0)
    assert np.all(g2[1:, 0, :] == 0.0)


def test_divergence_examples():
    s2 = FlowGeometry.shrinking_sphere(2)
    f_time = lambda c: np.array([1.0, 0.0, 0.0])
    val = spacetime_divergence(s2, f_time, SpaceTimePoint(0.5, 0.0))
    assert val == pytest.approx(-2.0, abs=1e-9)

    e3 = FlowGeometry.euclidean(3)
    f_time3 = lambda c: np.array([1.0, 0.0, 0.0, 0.0])
    assert spacetime_divergence(e3, f_time3, SpaceTimePoint(0.5, 0.0)) == \
        pytest.approx(0.0, abs=1e-12)

    euler = lambda c: np.array([0.0, c[1], 0.0, 0.0])
    assert spacetime_divergence(e3, euler, SpaceTimePoint(0.5, 0.0)) == \
        pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("geom", all_geometries())
def test_divergence_consistency_random_fields(geom, rng):
    m = geom.n + 1
    t = 0.0
    p = SpaceTimePoint(0.7, t)
    worst = 0.0
    for _ in range(10):
        C = rng.uniform(-0.25, 0.25, size=(m, m))
        D = rng.uniform(-0.1, 0.1, size=(m, m, m))

        def fld(c, C=C, D=D):
            return C @ c + np.einsum("ajk,j,k->a", D, c, c)

        a = spacetime_divergence(geom, fld, p)
        b = spacetime_divergence_fd(geom, fld, p)
        worst = max(worst, abs(a - b))
    assert worst <= 1e-6
