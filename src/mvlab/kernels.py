"""Closed-form kernels and comparison kernels on the model geometries.

Elliptic kinds (functions of the geodesic radius): the exact positive Green's
function of flat and hyperbolic models, the space-form comparison kernel
("sub-Green", a radial function with Delta >= -delta under a Ricci lower
bound) and the Euclidean profile evaluated at manifold distance ("sup-Green",
valid on Cartan-Hadamard models).

Parabolic kinds (functions of radius and backward time tau): the flat
Gaussian, the hyperbolic-3 heat kernel, the reduced-distance kernel
``(4 pi tau)^(-n/2) exp(-ell)`` with Perelman's closed-form ell, and the
ambient Gaussian restricted to a mean-curvature-flow track.

A parabolic kernel is defined by its slice class, the only way to evaluate
it: ``kernel.at(tau)`` is a `KernelSlice` of the comoving radius x, and time
derivatives are taken at fixed x (fixed *manifold* point).  `HeatSlice` holds
the exact heat kernel's formulas, `ReducedSlice` the reduced-distance
kernel's.  One class serves every shape of tau, in numpy: a float,
a column of times with a matrix of radii, one row per slice (the batched
quadrature of `regions`), or a 1-d array with one radius per slice.

Kernels invert ``kernel = r^(-n)``: every parabolic kernel its profile
(``profile_x``) and top time (``tau_max``), every elliptic kernel its radius
(``level_radius``), by closed forms, Lambert W or Newton; the reduced top time
and the Green radii without a closed form share one bracketed Newton
(`_newton`).
"""

import math
from collections import OrderedDict

import numpy as np

from .errors import DomainError, NoRegionError, UnsupportedError
from .geometry import HYPERBOLIC, SHRINKING_SPHERE, unit_sphere_area
from .quad import integrate_1d  # noqa: F401  (perfbench/tracer.py QUAD_CONSUMERS patches it)

_NEWTON_STEPS = 8  # Newton steps of every kernel root; roundoff takes at most 5

EXACT_GREEN = "exact-green"
SUB_GREEN = "sub-green"
SUP_GREEN = "sup-green"


def _newton(newton_step, lo, hi, x, what):
    """Root of a monotone function in [lo, hi] by Newton from x: ``newton_step(x)``
    is (x is the root to roundoff, the Newton step), whose sign shrinks the
    bracket; a step out of it bisects.  RuntimeError after `_NEWTON_STEPS`."""
    for _ in range(_NEWTON_STEPS):
        done, step = newton_step(x)
        if done:
            return x
        lo, hi = (lo, x) if step < 0.0 else (x, hi)
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    raise RuntimeError(f"Newton did not converge on {what}")


def _lambertw0(z):
    """Lambert W_0(z), the root w >= 0 of w e^w = z >= 0: Halley steps (Corless
    et al. 1996, eq. 5.9) until one is below 1e-8 relative (four at most on any
    double), on the residual (w - z) + w expm1(w), accurate to roundoff near 0."""
    if z == math.inf:
        return z
    w = math.log1p(z) if z < 3.0 else math.log(z) - math.log(math.log(z))
    for _ in range(8):
        em1 = math.expm1(w)
        f = w - z + w * em1
        step = f / ((em1 + 1.0) * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-8 * abs(w):
            break
    return w


def _spaceform_green_value(n, k, d):
    """Green's function of the simply connected space form of curvature -k^2.

    Normalized so the gradient flux through every level sphere equals one:
    G(d) = k^(m-1) I_m(kd) / area, I_m(u) = int_u^inf csch^m, m = n - 1.
    Closed form for k = 0 (n >= 3) and n = 3.  Below u = 1 the reduction
    I_j = (csch^(j-2) coth - (j-2) I_(j-2)) / (j-1) from I_1 = -log tanh(u/2)
    or I_2 = coth u - 1 (its subtracted terms are O(u^2) of the first); from
    u = 1 on the positive series 2^m sum_j C(m+j-1, j) e^(-(m+2j)u) / (m+2j).
    """
    if d <= 0:
        raise DomainError("distance must be positive")
    area = unit_sphere_area(n)
    if k == 0.0:  # n >= 3: every kernel with k = 0 refuses n < 3
        return d ** (2 - n) / ((n - 2) * area)
    if n == 3:
        return k * math.exp(-k * d) / (4.0 * math.pi * math.sinh(k * d))

    m, u = n - 1, k * d
    if u < 1.0:
        csch, coth = 1.0 / math.sinh(u), 1.0 / math.tanh(u)
        val = -math.log(math.tanh(0.5 * u)) if m % 2 else 2.0 / math.expm1(2.0 * u)
        for j in range(4 - m % 2, m + 1, 2):
            val = (csch ** (j - 2) * coth - (j - 2) * val) / (j - 1)
        return k ** (m - 1) * val / area

    q, val, j = math.exp(-u), 0.0, 0
    term = k ** (m - 1) * (2.0 * q) ** m
    while term > 1e-17 * val:
        val += term / (m + 2 * j)
        term *= q * q * (m + j) / (j + 1)
        j += 1
    return val / area


def _spaceform_green_dvalue(n, k, d):
    """Radial derivative of the space-form Green's function (always <= 0)."""
    if d <= 0:
        raise DomainError("distance must be positive")
    area = unit_sphere_area(n)
    if k == 0.0:
        return -d ** (1 - n) / area
    return -(k / math.sinh(k * d)) ** (n - 1) / area


class EllipticKernel:
    """Space-form Green's profile at the geodesic radius of a static model.

    Subclasses choose the curvature -k^2 of the space form through ``_k``.
    """

    parabolic = False
    _k = 0.0

    def __init__(self, geom):
        if geom.kind == SHRINKING_SPHERE:
            raise UnsupportedError("elliptic kernels need a static model")
        self.geom = geom
        self.n = geom.n

    def value(self, rho):
        return _spaceform_green_value(self.n, self._k, rho)

    def dvalue(self, rho):
        return _spaceform_green_dvalue(self.n, self._k, rho)

    def level_radius(self, r):
        """Radius where value = r^(-n): closed forms for k = 0, n = 2 and n = 3,
        else `_newton_radius`.  NoRegionError where the radius is 0 or not
        finite, its sphere area overflows, or r^(-n) underflows on Newton's path."""
        n, k = self.n, self._k
        try:
            if k == 0.0:
                rho = (r ** n / ((n - 2) * unit_sphere_area(n))) ** (1.0 / (n - 2))
            elif n == 2:  # I_1(u) = -log tanh(u/2) is its own inverse
                rho = math.log1p(2.0 / math.expm1(2.0 * math.pi / r ** 2)) / k
            elif n == 3:  # k / (2 pi (exp(2 k d) - 1)) = r^(-3)
                rho = math.log1p(k * r ** 3 / (2.0 * math.pi)) / (2.0 * k)
            else:
                rho = self._newton_radius(r)
            rho = float(rho)
            area = unit_sphere_area(n) * self.geom.warp(rho) ** (n - 1)
        except ArithmeticError:  # an overflow, or a division by an underflowed 0
            rho = area = math.inf
        if not (rho > 0.0 and area < math.inf):
            raise NoRegionError(f"Green ball of r = {r}: radius or sphere area out of float range")
        return rho

    def _newton_radius(self, r):
        """Root of log(value(rho) r^n), n >= 4, k > 0, by `_newton` in v = log(rho / lo)
        from 0.  csch t <= 1/t puts value below the flat Green's function and the
        root below its root ``flat``.  ``lo`` is the larger root of two lower bounds
        of value, m = n - 1: k^(m-1) 2^m e^(-m k rho) / (m area) (csch t >= 2 e^-t),
        and the flat one times e^(-a k rho), a = m (m-1)/(m-2), root flat W(b) / b,
        b = a k flat / (n-2) (csch t >= e^-t / t bounds the slope of u^(1-m) e^(-a u)
        / (m-1)); 1e-9 widens the bracket past rounding.  OverflowError unless value
        and its series' power (2q)^m ~ m area value / k^(m-1) are normal floats."""
        n, k, m, area = self.n, self._k, self.n - 1, unit_sphere_area(self.n)
        rn = math.pow(r, n)
        if rn * np.finfo(float).tiny * max(1.0, k ** (m - 1) / (m * area)) >= 1.0:
            raise OverflowError("r^(-n) underflows")
        flat = (rn / ((n - 2) * area)) ** (1.0 / (n - 2))
        b = m * (m - 1) / (m - 2) * k * flat / (n - 2)
        lo = max(flat * _lambertw0(b) / b, (n * math.log(r) - math.log(m * area)
                                            + (m - 1) * math.log(k) + m * math.log(2.0)) / (m * k))

        def newton_step(v):
            rho = lo * math.exp(v)
            g = self.value(rho)
            step = -math.log(g * rn) * g / (rho * self.dvalue(rho))  # d log value/dv = rho G'/G
            return abs(step) <= 4.0 * np.finfo(float).eps, step

        v = _newton(newton_step, -1e-9, math.log(flat / lo) + 1e-9, 0.0, f"Green radius r = {r}")
        return lo * math.exp(v)

    def grad_norm(self, rho):
        return -self.dvalue(rho)


class GreenKernel(EllipticKernel):
    """Minimal positive Green's function of a strongly non-parabolic model.

    Flat models need n >= 3; hyperbolic models work for every n >= 2 since
    their Green's function decays exponentially.
    """

    kind = EXACT_GREEN

    def __init__(self, geom):
        super().__init__(geom)
        if geom.is_flat and geom.n < 3:
            raise UnsupportedError("flat space is not strongly non-parabolic for n < 3")
        self._k = geom.k  # 0 off hyperbolic models

    def grad_norm(self, rho):
        # exact flux normalization: |grad G| * area(rho) = 1
        return 1.0 / (unit_sphere_area(self.n) * self.geom.warp(rho) ** (self.n - 1))


class SubGreenKernel(EllipticKernel):
    """Space-form comparison kernel evaluated at the manifold distance.

    On a model with Ricci curvature >= -(n-1) k^2 the radial space-form
    profile satisfies Delta G >= -delta, turning the mean value identity into
    a lower bound.  When the model *is* the space form the kernel coincides
    with the exact Green's function.
    """

    kind = SUB_GREEN

    def __init__(self, geom, k=1.0):
        super().__init__(geom)
        if k < geom.k:  # geom.k >= 0
            raise DomainError(f"comparison needs k >= {geom.k}: k >= 0, Ric >= -(n-1)k^2")
        if k == 0.0 and geom.n < 3:
            raise UnsupportedError("k = 0 comparison needs n >= 3")
        self._k = k


class SupGreenKernel(EllipticKernel):
    """Euclidean Green's profile at manifold distance on Cartan-Hadamard models."""

    kind = SUP_GREEN

    def __init__(self, geom):
        super().__init__(geom)
        if geom.n < 3:  # static models, the flat and hyperbolic ones, are Cartan-Hadamard
            raise UnsupportedError("sup-Green comparison needs n >= 3")


class KernelSlice:
    """A parabolic kernel at backward time tau, as functions of the comoving
    radius x.

    Every quadrature node, profile root and surface sample of a heat ball
    lies on one time slice: ``kernel.at(tau)`` checks tau once, and the
    slice holds what depends on tau alone.  tau is a float, a 1-d array (one
    radius per time) or a column (a row of radii per time); the methods
    broadcast x against it in numpy, and ``rows(i)`` is the slice on some
    rows of a column, unchecked.  A subclass gives ``value(x)``, ``dlog(x)``
    = d log K/dx and ``dtau_log(x)`` = d log K/dtau at fixed x; the
    derivatives of K, its gradient norm, its Li-Yau expression and the
    surface ``sample`` follow here.  ``dx``, ``grad`` and ``dtau`` accept
    the value at x when the caller has it.  ``rho(x)`` is the geodesic
    radius, ``warp(x)`` the orbit warp and ``sm`` the radial metric factor
    sqrt(g_xx) of the slice; every model is homogeneous in x.
    """

    def __init__(self, kern, tau):
        self.kern, self.tau, self.t = kern, tau, -tau
        self.sm = np.sqrt(kern.geom.m2(-tau))

    def rows(self, i):
        """The slice on the times ``tau[i]`` of a column of times."""
        return type(self)(self.kern, self.tau[i])

    def rho(self, x):
        return self.sm * x

    def warp(self, x):
        return self.kern.geom.warp_cm(x, self.t)

    def dx(self, x, v=None):
        return (self.value(x) if v is None else v) * self.dlog(x)

    def grad(self, x, v=None):
        return abs(self.dx(x, v)) / self.sm

    def dtau(self, x, v=None):
        return (self.value(x) if v is None else v) * self.dtau_log(x)

    def liyau(self, x):
        """|grad log K|^2 - d log K/dtau, finite where K underflows."""
        g = self.dlog(x) / self.sm
        return g * g - self.dtau_log(x)

    def sample(self, x):
        """(value, |grad|, d/dtau) at x."""
        v = self.value(x)
        return v, self.grad(x, v), self.dtau(x, v)


class ParabolicKernel:
    """Common behavior of parabolic kernels (backward time tau > 0).

    A subclass gives ``slice_class``, a `KernelSlice` subclass with
    ``value``, ``dlog`` and ``dtau_log``, ``profile_x(r, tau, sl)``, the
    comoving radius of {kernel >= r^(-n)} at tau (on ``sl``, the slice at tau,
    if given), and ``tau_max(r)``, the top time of that set.
    """

    parabolic = True

    def __init__(self, geom):
        self.geom = geom
        self.n = geom.n
        self.heatballs = OrderedDict()  # `regions.heatball_profile`'s memo

    def at(self, tau):
        """The kernel on the time slice tau, or on each slice of an array of
        times, checked at its ends; raises DomainError off the domain."""
        times = np.asarray(tau)
        for end in (times.min(), times.max()):
            if end <= 0:
                raise DomainError("backward time tau must be positive")
            self.geom.check_time(-end)
        return self.slice_class(self, tau)


def _coth_cf(u2):
    """(u coth u - 1) / u^2 by Lambert's fraction u coth u = 1 + u^2 / (3 +
    u^2 / (5 + ...)): seven levels are within 1.1e-16 relative for u <= 1."""
    d = 17.0
    for j in (15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0):
        d = j + u2 / d
    return 1.0 / d


def _branches(u, first, f, g):
    """f(u) where ``first`` holds and g(u) elsewhere, each on its own nodes."""
    first = np.asarray(first)
    if first.all():
        return f(u)
    if not first.any():
        return g(u)
    out = np.empty(np.shape(u))
    out[first] = f(u[first])
    out[~first] = g(u[~first])
    return out


class HeatSlice(KernelSlice):
    """The exact heat kernel on time slices; its formulas live here only.

    The models are static, so x is the geodesic radius and sm = 1.  Where a
    formula has two branches, each is evaluated on its own nodes only.
    """

    @staticmethod
    def _sinhc(u):  # u / sinh u
        return _branches(u, u > 1e-8, lambda v: v / np.sinh(v), lambda v: 1.0 - v * v / 6.0)

    @staticmethod
    def _cothc(u):  # (u coth u - 1) / u^2; the direct form cancels below u = 1
        return _branches(u, u < 1.0, lambda v: _coth_cf(v * v),
                         lambda v: (v / np.tanh(v) - 1.0) / (v * v))

    def __init__(self, kern, tau):
        super().__init__(kern, tau)
        n = kern.n
        self.k = k = kern._k
        self.pref = (4.0 * math.pi * tau) ** (-n / 2.0)
        self.four_tau = 4.0 * tau
        self.two_tau = 2.0 * tau
        self.decay = np.exp(-k ** 2 * tau)
        self.dtau0 = -n / (2.0 * tau)
        self.four_tau2 = 4.0 * tau * tau

    def value(self, x):
        gauss = self.pref * np.exp(-x * x / self.four_tau)
        if self.k == 0.0:
            return gauss
        return gauss * self._sinhc(self.k * x) * self.decay

    def dlog(self, x):
        """d log H / dx = -x (k^2 (u coth u - 1) / u^2 + 1 / (2 tau)), u = k x:
        two terms of one sign."""
        if self.k == 0.0:
            return -x / self.two_tau
        return -x * (self.k ** 2 * self._cothc(self.k * x) + 1.0 / self.two_tau)

    def dtau_log(self, x):
        return self.dtau0 + x * x / self.four_tau2 - self.k ** 2

    def liyau(self, x):
        # exact for the flat Gaussian: n / (2 tau)
        return -self.dtau0 if self.k == 0.0 else super().liyau(x)


class HeatKernel(ParabolicKernel):
    """Exact heat kernel: flat models for every n, hyperbolic models for n = 3.

    Conventions: tau is backward time, the kernel solves the backward heat
    equation d/dtau = Delta on the static model and integrates to unit mass.
    """

    slice_class = HeatSlice

    def __init__(self, geom):
        super().__init__(geom)
        if not geom.is_static:
            raise UnsupportedError("exact heat kernels need a static model")
        if geom.kind == HYPERBOLIC and geom.n != 3:
            raise UnsupportedError("hyperbolic heat kernel implemented for n = 3 only")
        self._k = geom.k  # 0 off hyperbolic models

    def tau_max(self, r):
        """Top time of {kernel >= r^(-n)}.  On center (4 pi tau)^(n/2) exp(k^2
        tau) = r^n; with a = r^2 / (4 pi) and c = 2 k^2 / 3 (n = 3) this is
        c tau exp(c tau) = c a.  NoRegionError if the root is past the last
        time (r * r overflowing included)."""
        if not 0.0 < r < math.inf:
            raise DomainError(f"level parameter r must be positive and finite, got {r}")
        a = r * r / (4.0 * math.pi)
        c = 2.0 * self._k ** 2 / 3.0
        tau = a if c == 0.0 else _lambertw0(c * a) / c
        if not tau < -self.geom.time_interval[0]:
            raise NoRegionError("on-center level equation has no root inside the time domain")
        return tau

    def profile_x(self, r, tau, sl=None):
        """Radius of {kernel >= r^(-n)} at tau, a float or an array of times.

        Flat: x^2 = 2 n tau log(r^2 / (4 pi tau)).  H3: Newton in y = x^2 on
        F(y) = log H - log r^(-n), decreasing and convex in y, from below the
        root (the flat profile with the -k^2 y / 6 of log(u / sinh u)) until
        |F| is at roundoff, which no time has taken more than 5 steps to
        reach; RuntimeError if a time is still short of it.
        """
        tau = np.asarray(tau, dtype=float)
        if self._k == 0.0:
            x = np.sqrt(2.0 * self.n * tau * np.log(r * r / (4.0 * math.pi) / tau))
            return x if x.ndim else float(x)
        sl = self.at(tau) if sl is None else sl
        k2, log_level = self._k ** 2, -self.n * math.log(r)
        a = -self.n / 2.0 * np.log(4.0 * math.pi * tau) - k2 * tau - log_level  # F(0)
        tol = 4.0 * np.finfo(float).eps * (abs(a) + abs(log_level) + 1.0)
        y = np.maximum(a, 0.0) / (1.0 / sl.four_tau + k2 / 6.0)
        for _ in range(_NEWTON_STEPS):
            u = self._k * np.sqrt(y)
            f = a - y / sl.four_tau + np.log(sl._sinhc(u))
            done = abs(f) <= tol
            if done.all():
                break
            # dF/dy = d log H/dx / (2x) = -(1 / (4 tau) + k^2 (u coth u - 1) / (2 u^2))
            step = f / (1.0 / sl.four_tau + 0.5 * k2 * sl._cothc(u))
            y = np.where(done, y, np.maximum(y + step, 0.0))
        if not done.all():
            raise RuntimeError(f"Newton did not converge on the H3 heat profile (r = {r})")
        x = np.sqrt(y)
        return x if x.ndim else float(x)


class ReducedSlice(KernelSlice):
    """The reduced-distance kernel on time slices in Perelman's closed form
    (arXiv math/0211159 section 7): radial minimizers have constant momentum,
    so with sigma = 2 sqrt(tau), the radial metric factor m^2 = 1 + beta^2
    sigma^2 and A = int_0^sigma ds / m^2 = arctan(beta sigma) / beta (sigma
    if beta = 0), ell = (x^2 / A + (n/2)(sigma - A)) / sigma.  beta^2 =
    -(d m^2/dt) / 4 is (n - 1)/2 on the shrinking n-sphere, 0 on static
    models.  Shooting (`ReducedDistanceField.ell_cm`) is its oracle."""

    def __init__(self, kern, tau):
        super().__init__(kern, tau)
        n, geom, s = kern.n, kern.geom, 2.0 * np.sqrt(tau)
        m2 = geom.m2(-tau)
        beta = math.sqrt(-geom.dm2_dt() / 4.0)
        a = np.arctan(beta * s) / beta if beta else s
        # the ufunc, not **: a float's ** takes libm's pow, an array's numpy's
        self.pref = np.power(4.0 * math.pi * tau, -n / 2.0)
        self.ell0 = 0.5 * n * (s - a) / s        # ell at the center
        self.ell2 = 1.0 / (a * s)                # ell = ell0 + ell2 x^2
        # d log K/dtau = -n/(2 tau) - (2/sigma) d ell/dsigma, dA/dsigma = 1/m^2
        self.dtau0 = -n / (2.0 * tau) - n * (a - s / m2) / s ** 3
        self.dtau2 = 2.0 * (s / m2 + a) * self.ell2 ** 2 / s

    def value(self, x):
        return self.pref * np.exp(-(self.ell0 + self.ell2 * x * x))

    def dlog(self, x):
        return -2.0 * self.ell2 * x

    def dtau_log(self, x):
        return self.dtau0 + self.dtau2 * x * x

    def ell_jet(self, x):
        """(ell, ell_x, ell_xx, ell_tau) at x, comoving derivatives at fixed x:
        log K = -(n/2) log(4 pi tau) - ell."""
        return (self.ell0 + self.ell2 * x * x, -self.dlog(x), 2.0 * self.ell2,
                -self.dtau_log(x) - self.kern.n / (2.0 * self.tau))


class SubHeatKernel(ParabolicKernel):
    """Reduced-distance kernel (4 pi tau)^(-n/2) exp(-ell) of the
    ReducedDistanceField ``field``, on `ReducedSlice`s."""

    slice_class = ReducedSlice

    def __init__(self, field):
        super().__init__(field.flow)

    def tau_max(self, r):
        """Top time of {kernel >= r^(-n)}, the root of the on-center equation
        g(v) = (n/2) v + ell0(tau0 e^v) = 0 in v = log(tau / tau0), tau0 = r^2 /
        (4 pi) the flat root.  ell0 lies in [0, n/2), so g(-1) < 0 <= g(0):
        `_newton` from v = 0 with the exact slope dg/dv = -tau dtau0, until |g|
        is at roundoff.  NoRegionError if tau0 is past the last time."""
        if not 0.0 < r < math.inf:
            raise DomainError(f"level parameter r must be positive and finite, got {r}")
        tau0, half_n = r * r / (4.0 * math.pi), 0.5 * self.n
        if not tau0 < -self.geom.time_interval[0]:  # else [tau0 / e, tau0] is inside
            raise NoRegionError("on-center level equation has no root inside the time domain")

        def newton_step(v):
            sl = self.at(tau0 * math.exp(v))
            g = half_n * v + sl.ell0
            done = abs(g) <= 4.0 * np.finfo(float).eps * (half_n * (1.0 - v) + sl.ell0)
            return done, g / (sl.tau * sl.dtau0)  # dg/dv = -tau dtau0 > 0

        v = _newton(newton_step, -1.0, 0.0, 0.0, f"the reduced top time (r = {r})")
        return tau0 * math.exp(v)

    def profile_x(self, r, tau, sl=None):
        """Radius of {kernel >= r^(-n)} at tau (a float or an array of times),
        where ell = n log r - (n/2) log(4 pi tau); 0 where rounding makes x^2 < 0."""
        sl = self.at(np.asarray(tau, dtype=float)) if sl is None else sl
        ell_r = self.n * (math.log(r) - 0.5 * np.log(4.0 * math.pi * sl.tau))
        x = np.sqrt(np.maximum(ell_r - sl.ell0, 0.0) / sl.ell2)
        return x if x.ndim else float(x)


class McfShrinkingSphereTrack:
    """Space-time track of the shrinking round n-sphere in R^(n+1).

    Centered at the space-time singularity, the slice at backward time tau is
    the sphere of radius sqrt(2 n tau); the ambient Gaussian is constant on
    each slice, so its level sets in the track are whole slices.  Time
    derivatives are material (following the flowing immersion).
    """

    parabolic = True

    def __init__(self, n):
        if n < 1:
            raise UnsupportedError("track dimension must be >= 1")
        self.n = n
        self._area = unit_sphere_area(n + 1)

    def slice_radius(self, tau):
        return math.sqrt(2.0 * self.n * tau)

    def slice_area(self, tau):
        return self._area * self.slice_radius(tau) ** self.n

    def value(self, tau):
        if tau <= 0:
            raise DomainError("backward time tau must be positive")
        return (4.0 * math.pi * tau) ** (-self.n / 2.0) * math.exp(-self.n / 2.0)

    def dtau_material(self, tau):
        # |y(p, tau)|^2 / (4 tau) = n/2 is constant along the track, so only
        # the (4 pi tau)^(-n/2) prefactor varies.
        return self.value(tau) * (-self.n / (2.0 * tau))

    def grad_tangential(self, tau):
        return 0.0

    def tau_max(self, r):
        # value(tau) = r^(-n)  <=>  4 pi tau = r^2 / e
        if not 0.0 < r < math.inf:
            raise DomainError(f"level parameter r must be positive and finite, got {r}")
        return r * r / (4.0 * math.pi * math.e)


def liyau_expression(kernel, rho, tau):
    """|grad log u|^2 - (log u)_tau for a parabolic kernel, at the geodesic
    radius rho."""
    if not getattr(kernel, "parabolic", False):
        raise UnsupportedError("Li-Yau expression needs a parabolic kernel")
    return kernel.at(tau).liyau(kernel.geom.x_of_rho(rho, -tau))
