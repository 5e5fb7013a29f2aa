"""Test-only oracles for the geometry module: sphere areas, the flow
residual of the metric and finite-difference Christoffel symbols and
divergences of the space-time metric."""

import numpy as np

from mvlab.errors import DomainError
from mvlab.geometry import _christoffel_from_diag, chart_coords, unit_sphere_area


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
        up_rad, up_tan = geom.upsilon_eigenvalues(p.rho, p.t)
        dm2 = (geom.m2(x, p.t + h) - geom.m2(x, p.t - h)) / (2.0 * h)
        dw2 = (geom.warp_cm(x, p.t + h) ** 2
               - geom.warp_cm(x, p.t - h) ** 2) / (2.0 * h)
        ups_rad = up_rad * geom.m2(x, p.t)
        ups_tan = up_tan * geom.warp_cm(x, p.t) ** 2
        worst = max(worst, abs(dm2 + 2.0 * ups_rad), abs(dw2 + 2.0 * ups_tan))
    return worst


def spacetime_christoffels_fd(geom, p, h=1e-4):
    """Finite-difference Christoffels of gtilde; oracle for the analytic ones."""
    coords = np.asarray(chart_coords(geom, p), dtype=float)
    m = geom.n + 1
    hvals = geom.metric_diag(coords)
    dh = np.zeros((m, m))
    for a in range(m):
        cp, cm = coords.copy(), coords.copy()
        cp[a] += h
        cm[a] -= h
        dh[a, :] = (geom.metric_diag(cp) - geom.metric_diag(cm)) / (2.0 * h)
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
        dlog = (geom.log_sqrt_det(cp) - geom.log_sqrt_det(cm)) / (2.0 * h)
        total += dXa + field(coords)[a] * dlog
    return total
