"""Kernel super-level sets and the quadrature engines over them.

Every kernel in the catalog is radial and strictly decreasing away from the
center, so level sets are radial graphs.  Elliptic regions are balls of
radius ``rho_star(r)`` solving ``kernel = r^(-n)``.  Parabolic regions live in
backward time: the top time ``tau_max`` solves the on-center equation and the
profile ``x(tau)`` is the per-slice root.  Each of these is the kernel's own
inverse where it has one (closed forms; batched Newton for the H3 heat
profile); bracketed Brent iteration serves the rest: the reduced-distance
kernel and the Green's functions of hyperbolic space with n != 3.

A parabolic region is foliated by time slices: every quadrature node,
profile root and surface sample lives at one backward time tau.  The engines
therefore evaluate the kernel through its slice ``kernel.at(tau)``
(`kernels.KernelSlice`), which checks tau once and holds what depends on tau
alone.  Brent roots live on the kernel, by level parameter, so regions
rebuilt at the same level share them.

Both engines integrate over a heat ball one tanh-sinh level of times at a
time (`_time_integral`).  In `ball_integrate` the times become one column
slice ``kernel.at(tau[:, None])``, a parabolic integrand is a factory
``integrand(slice) -> g(x)`` called on it once, and g maps a (slices x 21)
matrix of comoving radii to its values.  Each slice takes QK21 with
QUADPACK's error estimate (`quad.qk21`); pieces over their share of the
tolerance are bisected and evaluated again, all in one batch.

Surface integrals over a parabolic level set use the space-time area element
of g(t) + dt^2.  Along the profile the metric-normal speed of the level
curve equals ``|K_tau| / |grad K|`` (the implicit-function derivative in
disguise), so

    dA~ = sqrt(grad^2 + K_tau^2) / grad * (orbit sphere area) dtau,

which is what `sphere_integrate` integrates on the slice ``kernel.at(tau)``
of a level's times, with quadratic substitutions at both time endpoints
where the profile closes.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, NoRegionError
from .geometry import unit_sphere_area
from .quad import QK21_NODES, integrate_1d, integrate_de, qk21

ROOT_XTOL = 1e-14
# relative slivers next to tau = 0 and tau = tau_max excluded from
# double-exponential nodes; `_time_integral` bounds what they drop
TIME_CLIP_LO = 1e-18
TIME_CLIP_HI = 1e-13
_DEPTH = 8  # bisections of a slice piece before its QK21 estimate is taken as is


@dataclass(frozen=True)
class SurfaceSample:
    """Kernel data on a parabolic level surface, an array entry per time."""
    rho: np.ndarray
    tau: np.ndarray
    value: np.ndarray
    grad: np.ndarray   # spatial gradient norm |grad K|
    dtau: np.ndarray   # time derivative at fixed manifold point


def _level(kernel, r):
    if not 0.0 < r < math.inf:
        raise DomainError(f"level parameter r must be positive and finite, got {r}")
    return r ** (-kernel.n)


def _level_set(closed, f, bracket, xtol=ROOT_XTOL):
    """``closed``, or when the kernel has none the Brent root of f on bracket()."""
    if closed is not None:
        return float(closed)
    lo, hi = bracket()
    return float(brentq(f, lo, hi, xtol=xtol, rtol=4.0 * np.finfo(float).eps))


def level_radius(kernel, r):
    """Radius of the elliptic level set kernel(rho) = r^(-n)."""
    level = _level(kernel, r)

    def f(rho):
        return kernel.value(rho) - level

    def bracket():
        # elliptic models are static, so every radius lies in the domain
        lo, hi = 0.5, 1.0
        while f(hi) > 0.0:
            lo, hi = hi, 2.0 * hi
            if hi > 1e12:
                raise NoRegionError(f"level {level} not attained inside the domain")
        while f(lo) < 0.0:
            if lo < 1e-12:
                raise NoRegionError(f"level {level} not resolved near the center")
            lo, hi = 0.5 * lo, lo
        return lo, hi

    # xtol = 1e-300 leaves rtol in charge: Brent radii can sit far below 1
    return _level_set(kernel.level_radius(r), f, bracket, xtol=1e-300)


@dataclass(frozen=True)
class GreenBallRegion:
    """Super-level set of an elliptic kernel."""
    kernel: object
    r: float
    rho_star: float

    @property
    def parabolic(self):
        return False

    @property
    def level(self):
        return self.r ** (-self.kernel.n)


def green_ball(kernel, r):
    return GreenBallRegion(kernel=kernel, r=r, rho_star=level_radius(kernel, r))


@dataclass
class HeatBallRegion:
    """Super-level set of a parabolic kernel in backward time.

    The profile is the comoving-coordinate root per time slice.  Brent roots
    are kept on the kernel by level parameter (``kernel._roots[r]``), so
    every region at the same level on the same kernel solves each slice once.
    """
    kernel: object
    r: float
    tau_max: float
    _roots: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._roots = self.kernel._roots.setdefault(self.r, {})

    @property
    def parabolic(self):
        return True

    @property
    def level(self):
        return self.r ** (-self.kernel.n)

    def profile_x(self, tau):
        """Profile radius at tau (a float or an array of times): the kernel's
        own inverse where it returns one, else Brent."""
        taus = np.atleast_1d(np.asarray(tau, dtype=float))
        if not np.all((taus > 0.0) & (taus < self.tau_max)):
            raise DomainError(f"tau must lie in (0, {self.tau_max})")
        x = self.kernel.profile_x(self.r, taus)
        x = np.full(taus.shape, np.nan) if x is None else x
        for i in np.flatnonzero(np.isnan(x)):
            x[i] = self._brent_x(float(taus[i]))
        return x if np.ndim(tau) else float(x[0])

    def _brent_x(self, tau):
        hit = self._roots.get(tau)
        if hit is not None:
            return hit
        kern, level = self.kernel, self.level
        value_cm = kern.at(tau).value_cm

        def f(s):
            return value_cm(s) - level

        def bracket():
            x_cap = kern.geom.x_max(-tau)
            if math.isinf(x_cap):
                x_cap = 1e6
            # the flat Gaussian's profile at this level bounds the H3 and the
            # reduced-kernel profiles; sqrt(tau) / 10 keeps the bracket open
            gauss = -4.0 * tau * math.log(level * (4.0 * math.pi * tau) ** (kern.n / 2.0))
            hi = min(math.sqrt(max(gauss, 0.0)) + 0.1 * math.sqrt(tau), x_cap * (1.0 - 1e-9))
            while f(hi) > 0.0:
                hi = 0.5 * (hi + x_cap)
                if x_cap - hi < 1e-9:
                    raise NoRegionError("profile does not close inside the domain")
            return 0.0, hi

        x = self._roots[tau] = _level_set(None, f, bracket)
        return x

    def profile_rho(self, tau):
        return self.kernel.rho_of_x(self.profile_x(tau), tau)

    def profile_slope(self, tau):
        """d rho / d tau of rho = sqrt(m2) x: the implicit-function dx/dtau
        plus the exact d sqrt(m2) / d tau = -(d m2 / dt) / (2 sqrt(m2))."""
        x = self.profile_x(tau)
        kern, t = self.kernel, -tau
        dx_dtau = -kern.dtau_cm(x, tau) / kern.dx_cm(x, tau)
        sm = math.sqrt(kern.geom.m2(x, t))
        return sm * dx_dtau - x * kern.geom.dm2_dt(x, t) / (2.0 * sm)


def heatball_profile(kernel, r):
    """Build the parabolic level region for level parameter r.

    The top time solves the on-center equation; the region is rejected when
    the profile comes within 10 percent of the domain radius.
    """
    level = _level(kernel, r)

    def center(tau):
        return kernel.value_cm(0.0, tau) - level

    def bracket():
        lo, hi = 1e-12, 1.0
        while center(hi) > 0.0:
            hi *= 2.0
            if hi > 1e8:
                raise NoRegionError("on-center level equation has no root")
        while center(lo) < 0.0:
            lo *= 1e-2
            if lo < 1e-280:
                raise NoRegionError("kernel does not exceed the level near tau = 0")
        return lo, hi

    tau_max = _level_set(kernel.tau_max(r), center, bracket, xtol=1e-300)
    region = HeatBallRegion(kernel=kernel, r=r, tau_max=tau_max)

    geom = kernel.geom
    if math.isfinite(geom.x_max(0.0)):
        for u in np.linspace(0.05, 0.95, 9):
            tau = u * tau_max
            if region.profile_x(tau) > 0.9 * geom.x_max(-tau):
                raise NoRegionError(
                    f"profile reaches 90% of the domain radius at tau = {tau:.4g}")
    return region


# --------------------------------------------------------------------------- #
# quadrature engines
# --------------------------------------------------------------------------- #
def ball_integrate(region, integrand, epsabs=1e-10, epsrel=1e-8):
    """Integral of ``integrand`` against the volume measure of the region.

    Elliptic: ``integrand(rho)`` over the ball (weight: sphere area).
    Parabolic: ``integrand`` is a factory called once per batch of time
    slices with the kernel's column slice at those times; it returns
    ``g(x)``, the integrand on a matrix of comoving radii x, one row per
    slice (the slice gives the geodesic radius ``rho(x)``, the times ``t``
    and the kernel data).  The weight is sphere area times d mu d tau, and
    the error is the tanh-sinh estimate plus tau_max times the largest slice
    estimate and the clipped slivers' bound.  Returns (value, error_estimate).
    """
    if not region.parabolic:
        geom = region.kernel.geom
        area = unit_sphere_area(region.kernel.n)

        def f(rho):
            return integrand(rho) * area * geom.warp(rho) ** (region.kernel.n - 1)

        return integrate_1d(f, 0.0, region.rho_star, epsabs=epsabs,
                            epsrel=epsrel)

    tau_max = region.tau_max
    worst = 0.0  # largest slice error estimate

    def slices(taus):
        nonlocal worst
        out = np.zeros(taus.shape)
        x_hi = region.profile_x(taus)
        inner = np.flatnonzero(x_hi > 0.0)
        if inner.size:
            out[inner], err = _slice_integrals(
                region.kernel, integrand, taus[inner], x_hi[inner],
                0.1 * epsabs, max(0.1 * epsrel, 1e-10))
            worst = max(worst, float(err.max()))
        return out

    val, err = _time_integral(slices, tau_max, epsabs, epsrel)
    # the tanh-sinh weights are positive and sum to tau_max
    return val, err + tau_max * worst


def _time_integral(density, tau_max, epsabs, epsrel):
    """Tanh-sinh integral of ``density``, a map of a level's times to values,
    over (0, tau_max) without the `TIME_CLIP_LO` and `TIME_CLIP_HI` slivers;
    each sliver adds its width times |density| at the outermost time kept on
    its side to the error."""
    lo, hi = tau_max * TIME_CLIP_LO, tau_max * (1.0 - TIME_CLIP_HI)
    ends = [(math.inf, 0.0), (-math.inf, 0.0)]  # (tau, |density|) kept outermost

    def f(taus):
        out = np.zeros(taus.shape)
        inner = np.flatnonzero((taus > lo) & (taus < hi))  # never empty
        tau = taus[inner]
        out[inner] = val = density(tau)
        i, j = tau.argmin(), tau.argmax()
        if tau[i] < ends[0][0]:
            ends[0] = (tau[i], abs(float(val[i])))
        if tau[j] > ends[1][0]:
            ends[1] = (tau[j], abs(float(val[j])))
        return out

    val, err = integrate_de(f, 0.0, tau_max, atol=epsabs, rtol=epsrel)
    return val, err + lo * ends[0][1] + (tau_max - hi) * ends[1][1]


def _slice_integrals(kern, integrand, tau, x_hi, epsabs, epsrel):
    """Integrals of ``integrand`` over the slices {0 <= x <= x_hi} at times tau.

    Every piece of every slice goes through QK21 in one batch: one column
    slice ``kern.at(tau)`` and one (pieces x 21) matrix of radii.  A piece
    whose error estimate exceeds its length's share of the slice tolerance
    max(epsabs, epsrel |integral|) is bisected, and the halves form the next
    batch, down to _DEPTH bisections.  Returns (integrals, error estimates).
    """
    area, n = unit_sphere_area(kern.n), kern.n
    val, err = np.zeros(tau.size), np.zeros(tau.size)
    owner, lo, hi, share = np.arange(tau.size), np.zeros(tau.size), x_hi, None
    for depth in range(_DEPTH + 1):
        sl = kern.at(tau[owner, None])
        half = (hi - lo) / 2
        x = (lo + half)[:, None] + half[:, None] * QK21_NODES
        part, e = qk21(integrand(sl)(x) * area * sl.warp(x) ** (n - 1) * sl.sm, half)
        if share is None:  # tolerance per unit radius, from the whole slice
            share = np.maximum(epsabs, epsrel * abs(part)) / x_hi
        done = (e <= share[owner] * 2 * half) | (depth == _DEPTH)
        val += np.bincount(owner[done], part[done], tau.size)
        err += np.bincount(owner[done], e[done], tau.size)
        owner, lo, hi = owner[~done], lo[~done], hi[~done]
        if not owner.size:
            break
        mid = (lo + hi) / 2
        owner = np.repeat(owner, 2)
        lo, hi = np.stack((lo, mid), 1).ravel(), np.stack((mid, hi), 1).ravel()
    return val, err


def sphere_integrate(region, integrand, epsabs=1e-10, epsrel=1e-8):
    """Integral of ``integrand`` over the level surface of the region.

    Elliptic: ``integrand(rho)`` times the sphere area at rho_star.
    Parabolic: ``integrand(sample)`` against the space-time area element,
    where ``sample`` is a SurfaceSample of arrays, the kernel data at the
    profile at the times of a tanh-sinh level.  The error adds the bound on
    the clipped end slivers.  Returns (value, error_estimate).
    """
    if not region.parabolic:
        geom = region.kernel.geom
        area = unit_sphere_area(region.kernel.n)
        rho = region.rho_star
        return integrand(rho) * area * geom.warp(rho) ** (region.kernel.n - 1), 0.0

    kern = region.kernel
    n = kern.n
    area = unit_sphere_area(n)

    def level(tau):
        out = np.zeros(tau.shape)
        x = region.profile_x(tau)
        sl = kern.at(tau)
        value, grad, dtau = sl.sample(x)
        keep = grad > 0.0  # drops sub-resolution slivers where the profile closes
        s = SurfaceSample(rho=sl.rho(x)[keep], tau=tau[keep], value=value[keep],
                          grad=grad[keep], dtau=dtau[keep])
        measure = np.hypot(s.grad, s.dtau) / s.grad * area * sl.warp(x)[keep] ** (n - 1)
        out[keep] = integrand(s) * measure
        return out

    return _time_integral(level, region.tau_max, epsabs, epsrel)


def cap_integral(region, v_mean, s):
    """Truncation-cap integral at time slice tau = s.

    Computes the integral of v * (kernel - level) over the part of the slice
    inside the region; as s -> 0 it converges to the center value of v.
    ``v_mean(rho, t)`` takes arrays, as the slice quadrature evaluates it on
    a row of radii.
    """
    if not (0.0 < s < region.tau_max):
        raise DomainError("slice must lie strictly inside the region")
    level = region.level
    tau = np.array([s])
    val, _ = _slice_integrals(
        region.kernel, lambda sl: lambda x: v_mean(sl.rho(x), sl.t) * (sl.value(x) - level),
        tau, region.profile_x(tau), 1e-11, 1e-9)
    return float(val[0])
