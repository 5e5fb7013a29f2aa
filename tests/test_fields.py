"""Test-function catalog: analytic derivatives against finite differences,
exact sphere means against fixed-order angular quadrature, sign tags."""

import math

import numpy as np
import pytest

from mvlab.errors import UnsupportedError
from mvlab.fields import (CALORIC, HARMONIC, NONE, SUBCALORIC, SUBHARMONIC,
                          SUPERCALORIC, SUPERHARMONIC, make_field)

EUCLIDEAN_FIELDS = ["constant-1", "linear", "harmonic-quadratic",
                    "subharmonic", "superharmonic", "caloric-quadratic",
                    "gaussian-translate"]


_SIGN_CHECKS = {
    HARMONIC: lambda lap, heat: abs(lap),
    SUPERHARMONIC: lambda lap, heat: max(lap, 0.0),
    SUBHARMONIC: lambda lap, heat: max(-lap, 0.0),
    CALORIC: lambda lap, heat: abs(heat),
    SUPERCALORIC: lambda lap, heat: max(-heat, 0.0),
    SUBCALORIC: lambda lap, heat: max(heat, 0.0),
    NONE: lambda lap, heat: 0.0,
}


def classification_check(field, samples):
    """Max violation of the field's sign tags over the given sample points.

    Samples are (rho, t, omega) triples.
    Returns 0.0 when every tag's sign condition holds everywhere.
    """
    if not samples:
        raise ValueError("need at least one sample")
    worst = 0.0
    for rho, t, omega in samples:
        lap = field.laplacian(rho, t, omega)
        heat = field.dt(rho, t, omega) - lap
        for tag in field.tags:
            worst = max(worst, _SIGN_CHECKS[tag](lap, heat))
    return worst


def angular_quadrature_mean(field, rho, t=0.0, order=48):
    """Fixed-order quadrature oracle for the sphere-mean callbacks.

    Product Gauss rule over the unit sphere in dimensions 1..3 (catalog
    fields on curved models are radial, so higher n never needs it).
    """
    n = field.geom.n
    if n == 1:
        return 0.5 * (field.value(rho, t, (1.0,)) + field.value(rho, t, (-1.0,)))
    if n == 2:
        thetas = (np.arange(order) + 0.5) * (2.0 * math.pi / order)
        vals = [field.value(rho, t, (math.cos(a), math.sin(a))) for a in thetas]
        return float(np.mean(vals))
    if n == 3:
        xs, ws = np.polynomial.legendre.leggauss(order)
        phis = (np.arange(order) + 0.5) * (2.0 * math.pi / order)
        total = 0.0
        for c, w in zip(xs, ws):
            s = math.sqrt(1.0 - c * c)
            ring = np.mean([field.value(rho, t, (c, s * math.cos(p), s * math.sin(p)))
                            for p in phis])
            total += w * ring
        return total / 2.0
    raise UnsupportedError("angular quadrature oracle only for n <= 3")


def _fd_laplacian_euclidean(field, y, t, h=1e-4):
    """Cartesian 5-point Laplacian of a euclidean catalog field."""
    n = len(y)

    def v(pt):
        rho = float(np.linalg.norm(pt))
        omega = tuple(pt / rho) if rho > 0 else None
        return field.value(rho, t, omega)

    total = -2.0 * n * v(y)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        total += v(y + e) + v(y - e)
    return total / (h * h)


def _fd_laplacian_radial(field, geom, rho, t, h=1e-4):
    f = lambda r: field.value(r, t, None)
    d2 = (f(rho + h) - 2.0 * f(rho) + f(rho - h)) / (h * h)
    d1 = (f(rho + h) - f(rho - h)) / (2.0 * h)
    return d2 + (geom.n - 1) * geom.warp_dr(rho, t) / geom.warp(rho, t) * d1


def test_catalog_values(e2, e3, h3):
    cq = make_field("caloric-quadratic", e2)
    assert cq.dt(1.0, 0.3) - cq.laplacian(1.0, 0.3) == 0.0
    assert cq.value(1.0, 0.5) == pytest.approx(1.0 + 2.0 * 2 * 0.5)

    sup = make_field("superharmonic", e3, C=10.0)
    assert sup.laplacian(0.7, 0.0) == -6.0
    assert sup.center_value() == 10.0

    er = make_field("exp-radial", h3)
    d = 0.8
    expect = math.exp(-d) * (1.0 - 2.0 / math.tanh(d))
    assert er.laplacian(d, 0.0) == pytest.approx(expect, rel=1e-14)
    assert expect < 0.0


@pytest.mark.parametrize("name", EUCLIDEAN_FIELDS)
@pytest.mark.parametrize("n", [2, 3])
def test_fd_laplacian_euclidean(name, n, rng):
    from mvlab.geometry import FlowGeometry
    geom = FlowGeometry.euclidean(n)
    field = make_field(name, geom)
    worst = 0.0
    for _ in range(20):
        y = rng.uniform(-1.2, 1.2, size=n)
        if np.linalg.norm(y) < 0.15:
            y += 0.4
        t = float(rng.uniform(-0.1, 0.3))
        fd = _fd_laplacian_euclidean(field, y, t)
        rho = float(np.linalg.norm(y))
        omega = tuple(y / rho)
        worst = max(worst, abs(fd - field.laplacian(rho, t, omega)))
    assert worst <= 1e-5  # O(h^2) central differences at h = 1e-4


def test_fd_laplacian_hyperbolic(h3, rng):
    for name in ("exp-radial", "subharmonic"):
        field = make_field(name, h3)
        for _ in range(20):
            rho = float(rng.uniform(0.3, 2.0))
            fd = _fd_laplacian_radial(field, h3, rho, 0.0)
            assert abs(fd - field.laplacian(rho, 0.0)) <= 1e-6


@pytest.mark.parametrize("name", EUCLIDEAN_FIELDS)
@pytest.mark.parametrize("n", [2, 3])
def test_sphere_means_match_angular_quadrature(name, n, rng):
    from mvlab.geometry import FlowGeometry
    geom = FlowGeometry.euclidean(n)
    field = make_field(name, geom)
    worst = 0.0
    for _ in range(20):
        rho = float(rng.uniform(0.1, 1.8))
        t = float(rng.uniform(-0.1, 0.4))
        oracle = angular_quadrature_mean(field, rho, t, order=48)
        worst = max(worst, abs(oracle - field.mean_value(rho, t)))
    assert worst <= 1e-10


@pytest.mark.parametrize("name,model,op_tol", [
    pytest.param(name, model, tol, id=f"{name}-{model}") for name, model, tol in (
        ("constant-1", "e2", 0.0), ("superharmonic", "e2", 0.0),
        ("caloric-quadratic", "e3", 1e-8), ("gaussian-translate", "e2", 1e-8),
        ("gaussian-translate", "e3", 1e-8), ("subharmonic", "h3", 0.0),
        ("exp-radial", "h3", 0.0))])
def test_sphere_means_take_node_matrices(name, model, op_tol, request):
    # heat-ball integrands call mean_value_np and mean_heat_op on a matrix of
    # radii and a column of times.  The scalar (math) forms are the reference:
    # mean_value for mean_value_np, and for mean_heat_op the centered
    # difference in t of mean_value minus mean_laplacian.  The difference is
    # exactly 0 where the mean does not depend on t, and there the reference
    # is -mean_laplacian to the bit, so only the caloric fields take op_tol
    field = make_field(name, request.getfixturevalue(model))
    rho = np.array([[1e-7, 0.2, 0.9, 1.7], [0.05, 0.5, 1.1, 2.0]])
    t = np.array([[-0.01], [-0.3]])
    h = 1e-5

    def heat_op(r, s):
        dt = (field.mean_value(r, s + h) - field.mean_value(r, s - h)) / (2.0 * h)
        return dt - field.mean_laplacian(r, s)

    for mean, mean_np, tol in ((field.mean_value, field.mean_value_np, 0.0),
                               (heat_op, field.mean_heat_op, op_tol)):
        got = np.broadcast_to(mean_np(rho, t), rho.shape)
        for (i, j), r in np.ndenumerate(rho):
            assert got[i, j] == pytest.approx(mean(float(r), float(t[i, 0])),
                                              rel=1e-14, abs=tol)


@pytest.mark.parametrize("name,center", [("subharmonic", -6.0), ("exp-radial", math.inf)])
def test_heat_op_at_the_center(h3, name, center):
    # the array form holds at rho = 0, alone or among other radii, with the
    # scalar Laplacian's center value (a numpy divide or invalid warning
    # would fail the test)
    field = make_field(name, h3)
    assert field.mean_heat_op(0.0) == center == -field.mean_laplacian(0.0)
    got = field.mean_heat_op(np.array([[0.0, 0.5]]), np.array([[0.1]]))
    assert got[0, 0] == center
    assert got[0, 1] == pytest.approx(-field.mean_laplacian(0.5), rel=1e-14)


def test_gaussian_translate_mean_dt_consistency(e2):
    # the mean of the Laplacian equals d/dt of the mean for a caloric field
    f = make_field("gaussian-translate", e2)
    h = 1e-5
    for rho in (0.3, 0.9, 1.5):
        fd = (f.mean_value(rho, h) - f.mean_value(rho, -h)) / (2.0 * h)
        assert abs(fd - f.mean_laplacian(rho, 0.0)) <= 1e-9


def test_classification_checks(e3):
    one = make_field("constant-1", e3)
    pts = [(0.5, 0.0, None), (1.5, 0.2, None)]
    assert classification_check(one, pts) == 0.0

    sub = make_field("subharmonic", e3)
    assert classification_check(sub, pts) == 0.0

    hq = make_field("harmonic-quadratic", e3)
    assert classification_check(hq, pts) == 0.0
    assert hq.mean_value(1.0, 0.0) == 0.0  # odd harmonics average to zero

    with pytest.raises(ValueError):
        classification_check(one, [])


def test_unsupported_pairs(e2, h3, s3):
    with pytest.raises(UnsupportedError):
        make_field("exp-radial", e2)
    with pytest.raises(UnsupportedError):
        make_field("harmonic-quadratic", h3)
    with pytest.raises(UnsupportedError):
        make_field("power", e2)  # needs n >= 3
    with pytest.raises(UnsupportedError):
        make_field("no-such-field", e2)
    with pytest.raises(UnsupportedError):
        make_field("caloric-quadratic", s3)
