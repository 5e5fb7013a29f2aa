"""Rotationally symmetric model geometries and flows.

Every model is a warped product ``g(t) = d rho^2 + phi(rho, t)^2 g_{S^{n-1}}``
around a distinguished center, together with the product space-time metric
``gtilde = g(t) + dt^2``.  The metric may evolve by ``dg/dt = -2 Upsilon``;
the realized deformations are ``Upsilon = 0`` (static models) and
``Upsilon = Ric`` (round shrinking sphere).  ``R`` always denotes the trace
``g^{ij} Upsilon_{ij}`` of the deformation tensor, so it vanishes identically
on static models.

Two radial coordinates are used.  The geodesic radius ``rho`` is the
user-facing coordinate (arclength from the center at each fixed time).  The
comoving coordinate ``x`` labels a fixed manifold point across time; for
static models the two coincide, for the shrinking sphere ``x`` is the polar
angle and ``rho = sqrt(c(t)) * x``.  Time derivatives at a fixed manifold
point must be taken at fixed ``x``.

The Gaussian soliton (flat space viewed as the trivial shrinking soliton) is
the Euclidean model itself: ``FlowGeometry.gaussian_soliton(n)`` returns
``FlowGeometry.euclidean(n)``.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, UnsupportedError

EUCLIDEAN = "euclidean-static"
HYPERBOLIC = "hyperbolic-static"
SHRINKING_SPHERE = "shrinking-round-sphere"

_BIG_TIME = 1e30
_SING_GUARD = 1e-3  # margin kept away from the shrinking-sphere singular time


@functools.cache
def unit_sphere_area(n):
    """Area of the unit (n-1)-sphere in R^n; equals 2 for n = 1."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point given by geodesic radius, time and an optional unit direction.

    ``omega`` matters only for non-radial integrands; ``None`` means the
    point is taken on the first coordinate axis.
    """
    rho: float
    t: float = 0.0
    omega: tuple = None


@dataclass(frozen=True)
class FlowGeometry:
    """One of the closed-form model flows; immutable and reentrant."""

    kind: str
    n: int
    k: float = 0.0            # curvature scale of the hyperbolic model

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def euclidean(cls, n):
        if n < 1:
            raise UnsupportedError("dimension must be >= 1")
        return cls(EUCLIDEAN, n)

    @classmethod
    def hyperbolic(cls, n, k=1.0):
        if n < 2:
            raise UnsupportedError("hyperbolic model needs n >= 2")
        if k <= 0:
            raise DomainError("curvature parameter k must be positive")
        return cls(HYPERBOLIC, n, k=k)

    @classmethod
    def shrinking_sphere(cls, n):
        if n < 2:
            raise UnsupportedError("shrinking sphere needs n >= 2")
        return cls(SHRINKING_SPHERE, n)

    @classmethod
    def gaussian_soliton(cls, n):
        # flat space viewed as the trivial shrinking soliton
        return cls.euclidean(n)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def is_static(self):
        return self.kind != SHRINKING_SPHERE

    @property
    def is_flat(self):
        return self.kind == EUCLIDEAN

    @property
    def time_interval(self):
        if self.kind == SHRINKING_SPHERE:
            return (-_BIG_TIME, self.singular_time - _SING_GUARD)
        return (-_BIG_TIME, _BIG_TIME)

    @property
    def singular_time(self):
        if self.kind != SHRINKING_SPHERE:
            return _BIG_TIME
        return 1.0 / (2.0 * (self.n - 1))

    def check_time(self, t):
        lo, hi = self.time_interval
        if not (lo < t < hi):
            raise DomainError(f"time {t} outside interval ({lo}, {hi})")

    def scale(self, t):
        """Squared radius c(t) of the shrinking sphere; 1 for static kinds."""
        if self.kind != SHRINKING_SPHERE:
            return 1.0
        return 1.0 - 2.0 * (self.n - 1) * t

    def rho_max(self, t):
        if self.kind == SHRINKING_SPHERE:
            return math.pi * math.sqrt(self.scale(t))
        return math.inf

    def check_point(self, rho, t):
        self.check_time(t)
        if not (0.0 <= rho < self.rho_max(t)):
            raise DomainError(f"radius {rho} outside [0, {self.rho_max(t)})")

    # ------------------------------------------------------------------ #
    # warp function and curvature
    # ------------------------------------------------------------------ #
    def warp(self, rho, t=0.0):
        """phi(rho, t); the geodesic sphere of radius rho has area A * phi^(n-1)."""
        if self.kind == EUCLIDEAN:  # not is_flat: a property call per node
            return rho
        if self.kind == HYPERBOLIC:
            return math.sinh(self.k * rho) / self.k
        c = self.scale(t)
        rc = math.sqrt(c)
        return rc * math.sin(rho / rc)

    def warp_dr(self, rho, t=0.0):
        if self.is_flat:
            return 1.0
        if self.kind == HYPERBOLIC:
            return math.cosh(self.k * rho)
        return math.cos(rho / math.sqrt(self.scale(t)))

    def ricci_eigenvalues(self, rho, t=0.0):
        """(radial, tangential) eigenvalues of Ric(g(t)) in the orthonormal frame."""
        n = self.n
        if self.is_flat:
            return 0.0, 0.0
        if self.kind == HYPERBOLIC:
            v = -(n - 1) * self.k ** 2
            return v, v
        v = (n - 1) / self.scale(t)
        return v, v

    def upsilon_eigenvalues(self, rho, t=0.0):
        """Eigenvalues of the deformation tensor Upsilon (0 unless Ricci flow)."""
        if self.kind == SHRINKING_SPHERE:
            return self.ricci_eigenvalues(rho, t)
        return 0.0, 0.0

    def scalar_R(self, rho, t=0.0):
        """Trace g^{ij} Upsilon_{ij}, summed over the eigenvalues of Upsilon = Ric
        on the shrinking sphere (n(n-1)/c(t)) and 0 on static models."""
        v = (self.n - 1) / self.scale(t) if self.kind == SHRINKING_SPHERE else 0.0
        return v + (self.n - 1) * v

    def dR_dt(self, rho, t=0.0):
        if self.kind != SHRINKING_SPHERE:
            return 0.0
        n = self.n
        c = self.scale(t)
        # R = n(n-1)/c, dc/dt = -2(n-1)
        return 2.0 * n * (n - 1) ** 2 / c ** 2

    # ------------------------------------------------------------------ #
    # comoving description (fixed manifold points across time)
    # ------------------------------------------------------------------ #
    def x_of_rho(self, rho, t=0.0):
        if self.kind == SHRINKING_SPHERE:
            return rho / math.sqrt(self.scale(t))
        return rho

    def rho_of_x(self, x, t=0.0):
        if self.kind == SHRINKING_SPHERE:
            return x * math.sqrt(self.scale(t))
        return x

    def x_max(self, t=0.0):
        return math.pi if self.kind == SHRINKING_SPHERE else math.inf

    def m2(self, x, t=0.0):
        """Radial metric coefficient g_xx in comoving coordinates."""
        return self.scale(t) if self.kind == SHRINKING_SPHERE else 1.0

    def dm2_dt(self, x, t=0.0):
        if self.kind == SHRINKING_SPHERE:
            return -2.0 * (self.n - 1)
        return 0.0

    def warp_cm(self, x, t=0.0):
        """Orbit warp w(x, t) in numpy: the sphere through x has area A * w^(n-1)
        (``warp`` keeps math.sinh, to which the elliptic H3 bits are pinned)."""
        if self.kind == SHRINKING_SPHERE:
            return np.sqrt(self.scale(t)) * np.sin(x)
        if self.kind == HYPERBOLIC:
            return np.sinh(self.k * x) / self.k
        return x

    def dwarp_cm_dx(self, x, t=0.0):
        if self.kind == SHRINKING_SPHERE:
            return math.sqrt(self.scale(t)) * math.cos(x)
        return self.warp_dr(x, t)

    # ------------------------------------------------------------------ #
    # full coordinate chart used by the finite-difference oracles
    # ------------------------------------------------------------------ #
    # Chart: coords = (t, x, theta_1, ..., theta_{n-1}); the space-time
    # metric is diagonal with
    #   h_0 = 1,  h_1 = m2(x,t),  h_{1+a} = w(x,t)^2 * prod_{b<a} sin^2 theta_b.
    def metric_diag(self, coords):
        t, x = coords[0], coords[1]
        h = np.empty(self.n + 1)
        h[0] = 1.0
        h[1] = self.m2(x, t)
        acc = self.warp_cm(x, t) ** 2
        for a in range(2, self.n + 1):
            h[a] = acc
            if a < self.n:
                acc *= math.sin(coords[a]) ** 2
        return h

    def metric_diag_grad(self, coords):
        """Analytic partials dh[A][B] = d h_B / d coord_A of the diagonal."""
        n = self.n
        t, x = coords[0], coords[1]
        dh = np.zeros((n + 1, n + 1))
        # time derivatives
        dh[0, 1] = self.dm2_dt(x, t)
        if self.kind == SHRINKING_SPHERE:
            dw2_dt = -2.0 * (n - 1) * math.sin(x) ** 2
        else:
            dw2_dt = 0.0
        # radial derivatives of the angular block
        w = self.warp_cm(x, t)
        dw2_dx = 2.0 * w * self.dwarp_cm_dx(x, t)
        ang = 1.0
        for a in range(2, n + 1):
            dh[0, a] = dw2_dt * ang
            dh[1, a] = dw2_dx * ang
            if a < n:
                ang *= math.sin(coords[a]) ** 2
        # angular derivatives: h_b for b > a carries sin^2(theta_a)
        h = self.metric_diag(coords)
        for a in range(2, n + 1):
            th = coords[a]
            for b in range(a + 1, n + 1):
                dh[a, b] = 2.0 * h[b] / math.tan(th)
        return dh

    def log_sqrt_det(self, coords):
        t, x = coords[0], coords[1]
        val = 0.5 * math.log(self.m2(x, t))
        val += (self.n - 1) * math.log(self.warp_cm(x, t))
        for a in range(2, self.n + 1):
            mult = self.n - a
            if mult > 0:
                val += mult * math.log(abs(math.sin(coords[a])))
        return val


def curvature(geom, p):
    """(trace of Upsilon, radial Ricci eigenvalue, tangential Ricci eigenvalue)."""
    geom.check_point(p.rho, p.t)
    rad, tan = geom.ricci_eigenvalues(p.rho, p.t)
    return geom.scalar_R(p.rho, p.t), rad, tan


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
    h = geom.metric_diag(coords)
    dh = geom.metric_diag_grad(coords)
    dh_spatial = dh.copy()
    dh_spatial[0, :] = 0.0  # spatial connection: freeze time
    gamma = _christoffel_from_diag(h, dh_spatial)
    up_rad, up_tan = geom.upsilon_eigenvalues(p.rho, p.t)
    eig = np.array([0.0, up_rad] + [up_tan] * (n - 1))
    for i in range(1, n + 1):
        gamma[0, i, i] = eig[i] * h[i]          # Upsilon_ij (diagonal)
        gamma[i, 0, i] = gamma[i, i, 0] = -eig[i]  # -Upsilon^i_j
    gamma[0, 0, :] = gamma[0, :, 0] = 0.0
    return gamma


def chart_coords(geom, p):
    """Comoving chart coordinates of a point, angles placed in the interior."""
    coords = [p.t, geom.x_of_rho(p.rho, p.t)]
    for a in range(geom.n - 1):
        coords.append(math.pi / 2.0 + 0.1 * (a + 1))
    return np.array(coords)


def spacetime_divergence(geom, field, p, h=1e-4):
    """Divergence of a space-time vector field via the product-metric formula.

    ``field(coords) -> (n+1,) components`` in the comoving chart (index 0 is
    the time component X^0).  Returns ``div_g(X) - X^0 R + dX^0/dt``, with the
    spatial divergence taken at frozen time.  The tests hold it to the direct
    g-tilde divergence by finite differences.
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
        dlog = (geom.log_sqrt_det(cp) - geom.log_sqrt_det(cm)) / (2.0 * h)
        div_spatial += dXa + comp[a] * dlog

    cp, cm = coords.copy(), coords.copy()
    cp[0] += h
    cm[0] -= h
    dX0_dt = (field(cp)[0] - field(cm)[0]) / (2.0 * h)
    R = geom.scalar_R(p.rho, p.t)
    return div_spatial - comp[0] * R + dX0_dt
