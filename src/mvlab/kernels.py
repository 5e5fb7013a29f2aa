"""Closed-form kernels and comparison kernels on the model geometries.

Elliptic kinds (functions of the geodesic radius): the exact positive Green's
function of flat and hyperbolic models, the space-form comparison kernel
("sub-Green", a radial function with Delta >= -delta under a Ricci lower
bound) and the Euclidean profile evaluated at manifold distance ("sup-Green",
valid on Cartan-Hadamard models).

Parabolic kinds (functions of radius and backward time tau): the flat
Gaussian, the hyperbolic-3 heat kernel, the reduced-distance kernel
``(4 pi tau)^(-n/2) exp(-ell)`` built on top of geodesic shooting, and the
ambient Gaussian restricted to a mean-curvature-flow track.

A parabolic kernel is defined by its slice class, the only way to evaluate
it: ``kernel.at(tau)`` is a `KernelSlice` of the comoving radius x, and time
derivatives are taken at fixed x (fixed *manifold* point).  `HeatSlice` holds
the exact heat kernel's formulas, `ShotSlice` the reduced-distance kernel's
finite differences.  Given an array of times, ``kernel.at`` returns the
slices as one object: a column takes a matrix of radii, one row per slice
(the batched quadrature of `regions`), a 1-d array one radius per slice.

Kernels invert ``kernel = r^(-n)`` (``level_radius``, ``tau_max``, ``profile_x``)
where they can (closed forms; Newton for the H3 heat profile) and return
None where `regions` must solve for it.
"""

import functools
import math

import numpy as np
from scipy.special import lambertw

from .errors import DomainError, UnsupportedError
from .geometry import HYPERBOLIC, SHRINKING_SPHERE, unit_sphere_area
from .quad import integrate_1d

_NEWTON_STEPS = 8  # Newton steps of the H3 profile before a time goes to Brent

EXACT_GREEN = "exact-green"
SUB_GREEN = "sub-green"
SUP_GREEN = "sup-green"
HEAT = "heat"
SUB_HEAT = "sub-heat"
MCF_SUP_HEAT = "sup-heat"


def _spaceform_green_value(n, k, d):
    """Green's function of the simply connected space form of curvature -k^2.

    Normalized so the gradient flux through every level sphere equals one.
    Closed form for k = 0 (n >= 3) and for n = 3; otherwise a series beyond
    d = 1/k and radial quadrature of the flux-normalized profile inside it.
    """
    if d <= 0:
        raise DomainError("distance must be positive")
    area = unit_sphere_area(n)
    if k == 0.0:
        if n < 3:
            raise UnsupportedError("flat Green's function needs n >= 3")
        return d ** (2 - n) / ((n - 2) * area)
    if n == 3:
        return k * math.exp(-k * d) / (4.0 * math.pi * math.sinh(k * d))

    # G(d) = (1/area) * int_d^inf (k / sinh(k s))^(n-1) ds; beyond k s = 1
    # the positive series k^(m-1) 2^m sum_j C(m+j-1, j) q^(m+2j) / (m+2j) in
    # q = e^(-k s), m = n - 1, keeps relative accuracy as the tail decays
    m, q, val, j = n - 1, math.exp(-max(k * d, 1.0)), 0.0, 0
    term = k ** (m - 1) * (2.0 * q) ** m
    while term > 1e-17 * val:
        val += term / (m + 2 * j)
        term *= q * q * (m + j) / (j + 1)
        j += 1
    if d < 1.0 / k:
        # the profile blows up like s^(2-n) (log s for n = 2) at the center,
        # so the part inside s = 1/k is integrated in u = log s
        inner, _ = integrate_1d(lambda u: (k / math.sinh(k * math.exp(u))) ** (n - 1)
                                * math.exp(u), math.log(d), -math.log(k),
                                epsabs=1e-14, epsrel=1e-12)
        val += inner
    return val / area


def _spaceform_green_dvalue(n, k, d):
    """Radial derivative of the space-form Green's function (always <= 0)."""
    if d <= 0:
        raise DomainError("distance must be positive")
    area = unit_sphere_area(n)
    if k == 0.0:
        if n < 3:
            raise UnsupportedError("flat Green's function needs n >= 3")
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
        """Radius where value = r^(-n) if k = 0 or n = 3; None otherwise."""
        n, k = self.n, self._k
        if k == 0.0:
            return (r ** n / ((n - 2) * unit_sphere_area(n))) ** (1.0 / (n - 2))
        if n == 3:
            # k / (2 pi (exp(2 k d) - 1)) = r^(-3)
            return math.log1p(k * r ** 3 / (2.0 * math.pi)) / (2.0 * k)
        return None

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
        self._k = geom.k if geom.kind == HYPERBOLIC else 0.0

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
        if k < 0:
            raise DomainError("comparison curvature k must be >= 0")
        geom_k = geom.k if geom.kind == HYPERBOLIC else 0.0
        if k < geom_k:
            raise DomainError(
                f"comparison requires Ric >= -(n-1)k^2: need k >= {geom_k}")
        if k == 0.0 and geom.n < 3:
            raise UnsupportedError("k = 0 comparison needs n >= 3")
        self._k = k


class SupGreenKernel(EllipticKernel):
    """Euclidean Green's profile at manifold distance on Cartan-Hadamard models."""

    kind = SUP_GREEN

    def __init__(self, geom):
        super().__init__(geom)
        if geom.n < 3:
            raise UnsupportedError("sup-Green comparison needs n >= 3")
        if not (geom.is_flat or geom.kind == HYPERBOLIC):
            raise UnsupportedError("sup-Green needs a nonpositively curved model")


class KernelSlice:
    """A parabolic kernel at one backward time tau, as functions of the
    comoving radius x.

    Every quadrature node, profile root and surface sample of a heat ball
    lies on one time slice: the slice checks tau once and holds what depends
    on tau alone.  A subclass gives ``value(x)``, ``dlog(x)`` = d log K/dx
    and ``dtau_log(x)`` = d log K/dtau at fixed x; the derivatives of K, its
    gradient norm, its Li-Yau expression and the surface ``sample`` follow
    here.  ``dx``, ``grad`` and ``dtau`` accept the value at x when the
    caller has it.  ``rho(x)`` is the geodesic radius, ``warp(x)`` the orbit
    warp and ``sm`` the radial metric factor sqrt(g_xx) of the slice.
    """

    def __init__(self, kern, tau):
        kern._check_tau(tau)
        self.kern, self.tau, self.t = kern, tau, -tau
        self.sm = math.sqrt(kern.geom.m2(0.0, -tau))

    def rho(self, x):
        return self.kern.rho_of_x(x, self.tau)

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


class KernelSlices:
    """Scalar slices of a kernel on an array of times tau (row i of a matrix
    of radii, or entry i of an array, lies on the slice tau[i]): the methods
    call the scalar method of the same name node by node."""

    def __init__(self, kern, tau):
        cls = kern.slice_class
        self.rows = [cls(kern, t) for t in tau.ravel().tolist()]
        self.tau, self.t = tau, -tau
        self.sm = np.reshape([sl.sm for sl in self.rows], tau.shape)
        for name in ("rho", "warp", "value", "grad", "dtau", "liyau"):
            setattr(self, name, functools.partial(self._map, getattr(cls, name)))

    def _map(self, method, x, v=None):
        rows = np.reshape(x, (len(self.rows), -1)).tolist()
        return np.reshape([[method(sl, xi) for xi in row]
                           for sl, row in zip(self.rows, rows)], np.shape(x))

    def sample(self, x):  # one radius per slice
        nodes = [sl.sample(xi) for sl, xi in zip(self.rows, np.ravel(x).tolist())]
        return tuple(np.reshape(col, np.shape(x)) for col in zip(*nodes))


class ParabolicKernel:
    """Common behavior of parabolic kernels (backward time tau > 0).

    A subclass gives ``slice_class``, a `KernelSlice` subclass with
    ``value``, ``dlog`` and ``dtau_log``; it may give ``slices_class`` for
    arrays of times (default `KernelSlices`, node by node) and invert its
    level sets (``tau_max``, ``profile_x``).

    ``_roots`` holds the level-set profile roots of every region built on
    the kernel, by level parameter r and then by tau, so regions of the same
    level share them.
    """

    parabolic = True
    slices_class = KernelSlices

    def __init__(self, geom):
        self.geom = geom
        self.n = geom.n
        self._roots = {}

    def _check_tau(self, tau):
        # a column of slices is checked at its ends
        for end in (tau.min(), tau.max()) if isinstance(tau, np.ndarray) else (tau,):
            if end <= 0:
                raise DomainError("backward time tau must be positive")
            self.geom.check_time(-end)

    def at(self, tau):
        """The kernel on the time slice tau, or on each slice of an array of
        times; raises DomainError off the domain."""
        return (self.slices_class if isinstance(tau, np.ndarray) else self.slice_class)(self, tau)

    def tau_max(self, r):
        return None  # top time of {kernel > r^(-n)}: no closed form

    def profile_x(self, r, tau):
        return None  # its comoving radius at tau: no closed form

    def x_of_rho(self, rho, tau):
        return self.geom.x_of_rho(rho, -tau)

    def rho_of_x(self, x, tau):
        return self.geom.rho_of_x(x, -tau)


def _coth_cf(u2):
    """(u coth u - 1) / u^2 by Lambert's fraction u coth u = 1 + u^2 / (3 +
    u^2 / (5 + ...)): seven levels are within 1.1e-16 relative for u <= 1."""
    d = 17.0
    for j in (15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0):
        d = j + u2 / d
    return 1.0 / d


class HeatSlice(KernelSlice):
    """The exact heat kernel on one time slice; its formulas live here only.

    The models are static, so x is the geodesic radius and sm = 1.
    `HeatSlices` holds the numpy forms.
    """

    _exp = staticmethod(math.exp)

    @staticmethod
    def _sinhc(u):  # u / sinh u
        return u / math.sinh(u) if u > 1e-8 else 1.0 - u * u / 6.0

    @staticmethod
    def _cothc(u):  # (u coth u - 1) / u^2; the direct form cancels below u = 1
        return _coth_cf(u * u) if u < 1.0 else (u / math.tanh(u) - 1.0) / (u * u)

    def __init__(self, kern, tau):
        super().__init__(kern, tau)
        n = kern.n
        self.k = k = kern._k
        self.pref = (4.0 * math.pi * tau) ** (-n / 2.0)
        self.four_tau = 4.0 * tau
        self.two_tau = 2.0 * tau
        self.decay = self._exp(-k ** 2 * tau)
        self.dtau0 = -n / (2.0 * tau)
        self.four_tau2 = 4.0 * tau * tau
        self.warp = kern.geom.warp  # static: the orbit warp at every time

    def value(self, x):
        gauss = self.pref * self._exp(-x * x / self.four_tau)
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


class HeatSlices(HeatSlice):
    """`HeatSlice` on an array of times tau, in numpy forms.  Branches are
    taken node by node with np.where, each on arguments inside its range."""

    _exp = staticmethod(np.exp)

    @staticmethod
    def _sinhc(u):
        v = np.maximum(u, 1e-8)
        return np.where(u > 1e-8, v / np.sinh(v), 1.0 - u * u / 6.0)

    @staticmethod
    def _cothc(u):
        v = np.maximum(u, 1.0)
        return np.where(u < 1.0, _coth_cf(u * u), (v / np.tanh(v) - 1.0) / (v * v))

    def __init__(self, kern, tau):
        super().__init__(kern, tau)
        self.warp = (lambda x: x) if self.k == 0.0 else lambda x: np.sinh(self.k * x) / self.k


class HeatKernel(ParabolicKernel):
    """Exact heat kernel: flat models for every n, hyperbolic models for n = 3.

    Conventions: tau is backward time, the kernel solves the backward heat
    equation d/dtau = Delta on the static model and integrates to unit mass.
    """

    kind = HEAT
    slice_class, slices_class = HeatSlice, HeatSlices

    def __init__(self, geom):
        super().__init__(geom)
        if geom.kind == HYPERBOLIC:
            if geom.n != 3:
                raise UnsupportedError("hyperbolic heat kernel implemented for n = 3 only")
            self._k = geom.k
        elif geom.is_flat:
            self._k = 0.0
        else:
            raise UnsupportedError("exact heat kernels need a static model")

    def tau_max(self, r):
        # on-center (4 pi tau)^(n/2) exp(k^2 tau) = r^n; with a = r^2 / (4 pi)
        # and c = 2 k^2 / 3 (n = 3) this is c tau exp(c tau) = c a
        a = r * r / (4.0 * math.pi)
        if self._k == 0.0:
            return a
        c = 2.0 * self._k ** 2 / 3.0
        return float(lambertw(c * a).real) / c

    def profile_x(self, r, tau):
        """Radius of {kernel >= r^(-n)} at tau, a float or an array of times.

        Flat: x^2 = 2 n tau log(r^2 / (4 pi tau)).  H3: Newton in y = x^2 on
        F(y) = log H - log r^(-n), decreasing and convex in y, from below the
        root (the flat profile with the -k^2 y / 6 of log(u / sinh u)) until
        |F| is at roundoff; times still short of it come back NaN.
        """
        tau = np.asarray(tau, dtype=float)
        if self._k == 0.0:
            x = np.sqrt(2.0 * self.n * tau * np.log(self.tau_max(r) / tau))
            return x if x.ndim else float(x)
        sl, k2, log_level = self.at(tau), self._k ** 2, -self.n * math.log(r)
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
        x = np.where(done, np.sqrt(y), np.nan)
        return x if x.ndim else float(x)


class ShotSlice(KernelSlice):
    """The reduced-distance kernel on one time slice: ell comes from geodesic
    shooting, so d log K/dx = -d ell/dx and d log K/dtau are centered
    differences of ell, with the steps of the kernel (`SubHeatKernel`)."""

    def __init__(self, kern, tau):
        super().__init__(kern, tau)
        self.pref = (4.0 * math.pi * tau) ** (-kern.n / 2.0)

    def _ell(self, x, tau):
        return self.kern.field.ell_cm(abs(x), tau)

    def value(self, x):
        return self.pref * math.exp(-self._ell(x, self.tau))

    def dlog(self, x):
        if x <= 1e-8:
            return 0.0  # radial symmetry; below FD resolution
        h = self.kern.h_space * max(1.0, x)
        if x < 2.0 * h:
            h = 0.5 * x  # keep the stencil on one side of the center
        return -(self._ell(x + h, self.tau) - self._ell(x - h, self.tau)) / (2.0 * h)

    def dtau_log(self, x):
        tau = self.tau
        h = self.kern.h_tau_rel * tau
        dl = (self._ell(x, tau + h) - self._ell(x, tau - h)) / (2.0 * h)
        return -self.kern.n / (2.0 * tau) - dl


class SubHeatKernel(ParabolicKernel):
    """Reduced-distance kernel (4 pi tau)^(-n/2) exp(-ell) of the
    ReducedDistanceField ``field``, on `ShotSlice`s.  The spatial step is
    h_space * max(1, x); the tau step is relative (h_tau_rel * tau) to keep
    the difference quotient accurate against the 1/tau blowup of ell."""

    kind = SUB_HEAT
    slice_class = ShotSlice

    def __init__(self, field):
        super().__init__(field.flow)
        self.field = field
        self.h_space = 1e-4
        self.h_tau_rel = 1e-3


def mcf_sup_heat_kernel(x0, y, tau, n):
    """Ambient Gaussian with intrinsic normalization n at backward time tau."""
    if tau <= 0:
        raise DomainError("backward time tau must be positive")
    d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x0, y))
    return (4.0 * math.pi * tau) ** (-n / 2.0) * math.exp(-d2 / (4.0 * tau))


class McfShrinkingSphereTrack:
    """Space-time track of the shrinking round n-sphere in R^(n+1).

    Centered at the space-time singularity, the slice at backward time tau is
    the sphere of radius sqrt(2 n tau); the ambient Gaussian is constant on
    each slice, so its level sets in the track are whole slices.  Time
    derivatives are material (following the flowing immersion).
    """

    kind = MCF_SUP_HEAT
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

    def mean_curvature_sq(self, tau):
        # |H|^2 = (n / radius)^2 = n / (2 tau)
        return self.n / (2.0 * tau)

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
    return kernel.at(tau).liyau(kernel.x_of_rho(rho, tau))
