"""Rotationally symmetric model geometries and flows.

Every model is a warped product ``g(t) = d rho^2 + phi(rho, t)^2 g_{S^{n-1}}``
around a distinguished center.  The metric may evolve by
``dg/dt = -2 Upsilon``; the realized deformations are ``Upsilon = 0`` (static
models) and ``Upsilon = Ric`` (round shrinking sphere).  ``R`` always denotes
the trace ``g^{ij} Upsilon_{ij}`` of the deformation tensor, so it vanishes
identically on static models.  Every model is homogeneous, so Ric and
Upsilon each have one eigenvalue, and all curvature is a function of time.

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
from dataclasses import dataclass

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
class FlowGeometry:
    """One of the closed-form model flows; immutable and reentrant.  Its
    curvature and comoving metric factor ``m2`` depend on time alone."""

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
        if self.kind == SHRINKING_SPHERE:  # c(t) = 1 - 2(n-1) t vanishes at 1 / (2(n-1))
            return (-_BIG_TIME, 1.0 / (2.0 * (self.n - 1)) - _SING_GUARD)
        return (-_BIG_TIME, _BIG_TIME)

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

    def upsilon(self, t=0.0):
        """The one eigenvalue of the deformation tensor Upsilon: Ric on the
        shrinking sphere, 0 on static models."""
        return (self.n - 1) / self.scale(t) if self.kind == SHRINKING_SPHERE else 0.0

    def ricci(self, t=0.0):
        """The one eigenvalue of Ric(g(t)); Upsilon's except on hyperbolic space."""
        return -(self.n - 1) * self.k ** 2 if self.kind == HYPERBOLIC else self.upsilon(t)

    def scalar_R(self, t=0.0):
        """Trace g^{ij} Upsilon_{ij}: n(n-1)/c(t) on the shrinking sphere, 0 on static models."""
        v = self.upsilon(t)
        return v + (self.n - 1) * v

    def dR_dt(self, t=0.0):
        if self.kind != SHRINKING_SPHERE:
            return 0.0
        n = self.n  # R = n(n-1)/c, dc/dt = -2(n-1)
        return 2.0 * n * (n - 1) ** 2 / self.scale(t) ** 2

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

    def x_max(self):
        """Comoving domain radius, the same at every time."""
        return math.pi if self.kind == SHRINKING_SPHERE else math.inf

    def m2(self, t=0.0):
        """Radial metric coefficient g_xx in comoving coordinates, c(t)."""
        return self.scale(t)

    def dm2_dt(self):
        """d g_xx / dt, the same at every time."""
        return -2.0 * (self.n - 1) if self.kind == SHRINKING_SPHERE else 0.0

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
