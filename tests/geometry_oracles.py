"""Test-only oracles for the geometry module: sphere areas, the flow
residual of the metric, and the space-time metric ``gtilde = g(t) + dt^2``
of the proof of the heat-sphere theorem.

The space-time part holds both sides of the Christoffel and divergence
lemmas in the comoving chart: the analytic sides (``spacetime_christoffels``
from the deformation tensor, ``spacetime_divergence`` from the product-metric
formula, built on ``metric_diag``, ``metric_diag_grad`` and
``log_sqrt_det``) and the finite-difference oracles they are held to
(``spacetime_christoffels_fd``, ``spacetime_divergence_fd``)."""

import math
from dataclasses import dataclass

import numpy as np

from mvlab.errors import DomainError
from mvlab.geometry import SHRINKING_SPHERE, unit_sphere_area


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point given by geodesic radius and time."""
    rho: float
    t: float = 0.0


def sphere_area(geom, rho, t=0.0):
    """Area of the geodesic sphere of radius rho at time t."""
    geom.check_time(t)
    if not (0.0 < rho < geom.rho_max(t)):
        raise DomainError(f"radius {rho} outside (0, {geom.rho_max(t)})")
    return unit_sphere_area(geom.n) * geom.warp(rho, t) ** (geom.n - 1)


def flow_residual(geom, samples, h=1e-4):
    """Max componentwise residual of d g/dt + 2 Upsilon at the given samples.

    Central differences at fixed comoving coordinates, applied to the radial
    coefficient and to the orbit coefficient of the round factor.
    """
    if h <= 0:
        raise DomainError("step h must be positive")
    lo, hi = geom.time_interval
    worst = 0.0
    for p in samples:
        geom.check_point(p.rho, p.t)
        if not (lo < p.t - h and p.t + h < hi):
            raise DomainError(f"sample time {p.t} too close to the boundary")
        x = geom.x_of_rho(p.rho, p.t)
        up = geom.upsilon(p.t)
        dm2 = (geom.m2(p.t + h) - geom.m2(p.t - h)) / (2.0 * h)
        dw2 = (geom.warp_cm(x, p.t + h) ** 2
               - geom.warp_cm(x, p.t - h) ** 2) / (2.0 * h)
        ups_rad = up * geom.m2(p.t)
        ups_tan = up * geom.warp_cm(x, p.t) ** 2
        worst = max(worst, abs(dm2 + 2.0 * ups_rad), abs(dw2 + 2.0 * ups_tan))
    return worst


# Chart: coords = (t, x, theta_1, ..., theta_{n-1}); the space-time
# metric is diagonal with
#   h_0 = 1,  h_1 = m2(x,t),  h_{1+a} = w(x,t)^2 * prod_{b<a} sin^2 theta_b.
def chart_coords(geom, p):
    """Comoving chart coordinates of a point, angles placed in the interior."""
    coords = [p.t, geom.x_of_rho(p.rho, p.t)]
    for a in range(geom.n - 1):
        coords.append(math.pi / 2.0 + 0.1 * (a + 1))
    return np.array(coords)


def metric_diag(geom, coords):
    t, x = coords[0], coords[1]
    h = np.empty(geom.n + 1)
    h[0] = 1.0
    h[1] = geom.m2(t)
    acc = geom.warp_cm(x, t) ** 2
    for a in range(2, geom.n + 1):
        h[a] = acc
        if a < geom.n:
            acc *= math.sin(coords[a]) ** 2
    return h


def metric_diag_grad(geom, coords):
    """Analytic partials dh[A][B] = d h_B / d coord_A of the diagonal."""
    n = geom.n
    t, x = coords[0], coords[1]
    dh = np.zeros((n + 1, n + 1))
    # time derivatives
    dh[0, 1] = geom.dm2_dt()
    if geom.kind == SHRINKING_SPHERE:
        dw2_dt = -2.0 * (n - 1) * math.sin(x) ** 2
    else:
        dw2_dt = 0.0
    # radial derivatives of the angular block
    w = geom.warp_cm(x, t)
    dw2_dx = 2.0 * w * geom.dwarp_cm_dx(x, t)
    ang = 1.0
    for a in range(2, n + 1):
        dh[0, a] = dw2_dt * ang
        dh[1, a] = dw2_dx * ang
        if a < n:
            ang *= math.sin(coords[a]) ** 2
    # angular derivatives: h_b for b > a carries sin^2(theta_a)
    h = metric_diag(geom, coords)
    for a in range(2, n + 1):
        th = coords[a]
        for b in range(a + 1, n + 1):
            dh[a, b] = 2.0 * h[b] / math.tan(th)
    return dh


def log_sqrt_det(geom, coords):
    t, x = coords[0], coords[1]
    val = 0.5 * math.log(geom.m2(t))
    val += (geom.n - 1) * math.log(geom.warp_cm(x, t))
    for a in range(2, geom.n + 1):
        mult = geom.n - a
        if mult > 0:
            val += mult * math.log(abs(math.sin(coords[a])))
    return val


def _christoffel_from_diag(h, dh):
    """Christoffels of a diagonal metric from its components and partials."""
    m = len(h)
    gamma = np.zeros((m, m, m))
    for c in range(m):
        for a in range(m):
            # Gamma^c_{ac} = d_a h_c / (2 h_c)
            gamma[c, a, c] = gamma[c, c, a] = dh[a, c] / (2.0 * h[c])
        for b in range(m):
            if b != c:
                # Gamma^c_{bb} = -d_c h_b / (2 h_c)
                gamma[c, b, b] = -dh[c, b] / (2.0 * h[c])
    return gamma


def spacetime_christoffels(geom, p):
    """All Christoffel symbols of gtilde = g(t) + dt^2 in the comoving chart.

    Index 0 is time; index 1 the comoving radius; the rest are hyperspherical
    angles, evaluated at interior angles pi/2 + small offsets so the chart is
    regular.  Returns an (n+1, n+1, n+1) array ``gamma[c, a, b]``.

    The time-mixed components are assembled from the deformation tensor:
    ``gamma[0, i, j] = Upsilon_ij``, ``gamma[i, 0, j] = -Upsilon^i_j`` and
    ``gamma[0, 0, :] = 0``; the purely spatial block consists of the
    Christoffels of g(t).
    """
    geom.check_point(p.rho, p.t)
    coords = chart_coords(geom, p)
    n = geom.n
    h = metric_diag(geom, coords)
    dh = metric_diag_grad(geom, coords)
    dh_spatial = dh.copy()
    dh_spatial[0, :] = 0.0  # spatial connection: freeze time
    gamma = _christoffel_from_diag(h, dh_spatial)
    up = geom.upsilon(p.t)
    eig = np.array([0.0] + [up] * n)
    for i in range(1, n + 1):
        gamma[0, i, i] = eig[i] * h[i]          # Upsilon_ij (diagonal)
        gamma[i, 0, i] = gamma[i, i, 0] = -eig[i]  # -Upsilon^i_j
    gamma[0, 0, :] = gamma[0, :, 0] = 0.0
    return gamma


def spacetime_divergence(geom, field, p, h=1e-4):
    """Divergence of a space-time vector field via the product-metric formula.

    ``field(coords) -> (n+1,) components`` in the comoving chart (index 0 is
    the time component X^0).  Returns ``div_g(X) - X^0 R + dX^0/dt``, with the
    spatial divergence taken at frozen time.  ``spacetime_divergence_fd`` is
    the direct g-tilde divergence it is held to.
    """
    geom.check_point(p.rho, p.t)
    coords = chart_coords(geom, p)
    m = geom.n + 1
    comp = np.asarray(field(coords), dtype=float)
    if comp.shape != (m,):
        raise DomainError(f"field must return {m} components")

    div_spatial = 0.0
    for a in range(1, m):
        cp, cm = coords.copy(), coords.copy()
        cp[a] += h
        cm[a] -= h
        dXa = (field(cp)[a] - field(cm)[a]) / (2.0 * h)
        dlog = (log_sqrt_det(geom, cp) - log_sqrt_det(geom, cm)) / (2.0 * h)
        div_spatial += dXa + comp[a] * dlog

    cp, cm = coords.copy(), coords.copy()
    cp[0] += h
    cm[0] -= h
    dX0_dt = (field(cp)[0] - field(cm)[0]) / (2.0 * h)
    R = geom.scalar_R(p.t)
    return div_spatial - comp[0] * R + dX0_dt


def spacetime_christoffels_fd(geom, p, h=1e-4):
    """Finite-difference Christoffels of gtilde; oracle for the analytic ones."""
    coords = np.asarray(chart_coords(geom, p), dtype=float)
    m = geom.n + 1
    hvals = metric_diag(geom, coords)
    dh = np.zeros((m, m))
    for a in range(m):
        cp, cm = coords.copy(), coords.copy()
        cp[a] += h
        cm[a] -= h
        dh[a, :] = (metric_diag(geom, cp) - metric_diag(geom, cm)) / (2.0 * h)
    return _christoffel_from_diag(hvals, dh)


def spacetime_divergence_fd(geom, field, p, h=1e-4):
    """Oracle: divergence w.r.t. gtilde from the volume-weight formula."""
    coords = chart_coords(geom, p)
    m = geom.n + 1
    total = 0.0
    for a in range(m):
        cp, cm = coords.copy(), coords.copy()
        cp[a] += h
        cm[a] -= h
        dXa = (field(cp)[a] - field(cm)[a]) / (2.0 * h)
        dlog = (log_sqrt_det(geom, cp) - log_sqrt_det(geom, cm)) / (2.0 * h)
        total += dXa + field(coords)[a] * dlog
    return total
