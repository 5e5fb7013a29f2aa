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

All parabolic kernels expose derivatives at fixed *manifold* point: on an
evolving geometry the time derivative is taken at fixed comoving coordinate.
They also evaluate one backward time at a time: ``kernel.at(tau)`` is a
`KernelSlice`, and the exact heat kernel's formulas are written once, in its
`HeatSlice`.  Given a column array of times, ``kernel.at`` returns the
slices as one object whose methods take a matrix of radii, one row per
slice, for the batched slice quadrature of `regions.ball_integrate`.

Kernels invert ``kernel = r^(-n)`` (``level_radius``, ``tau_max``, ``profile_x``)
where it has a closed form and return None where `regions` must solve for it.
"""

import functools
import math

import numpy as np
from scipy.special import lambertw

from .errors import DomainError, UnsupportedError
from .geometry import HYPERBOLIC, SHRINKING_SPHERE, unit_sphere_area
from .quad import integrate_1d

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


class ParabolicKernel:
    """Common behavior of parabolic kernels (backward time tau > 0).

    Subclasses implement the comoving-coordinate trio ``value_cm``,
    ``dx_cm``, ``dtau_cm`` and the Li-Yau expression ``liyau_cm``;
    radius-based wrappers convert at the slice time t = -tau.  ``at(tau)``
    returns the kernel on one time slice (`KernelSlice`).

    ``_roots`` holds the level-set profile roots of every region built on
    the kernel, by level parameter r and then by tau, so regions of the same
    level share them.
    """

    parabolic = True

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
        """The kernel on the time slice tau, or on each slice of a column
        array of times; raises DomainError off the domain."""
        return (KernelSlices if isinstance(tau, np.ndarray) else KernelSlice)(self, tau)

    def tau_max(self, r):
        return None  # top time of {kernel > r^(-n)}: no closed form

    def profile_x(self, r, tau):
        return None  # its comoving radius at tau: no closed form

    def x_of_rho(self, rho, tau):
        return self.geom.x_of_rho(rho, -tau)

    def rho_of_x(self, x, tau):
        return self.geom.rho_of_x(x, -tau)

    def value(self, rho, tau):
        return self.value_cm(self.x_of_rho(rho, tau), tau)

    def grad_norm_cm(self, x, tau):
        return abs(self.dx_cm(x, tau)) / math.sqrt(self.geom.m2(x, -tau))

    def grad_norm(self, rho, tau):
        return self.grad_norm_cm(self.x_of_rho(rho, tau), tau)

    def evaluate(self, rho, tau):
        x = self.x_of_rho(rho, tau)
        return (self.value_cm(x, tau), self.grad_norm_cm(x, tau),
                self.dtau_cm(x, tau))

    def liyau(self, rho, tau):
        return self.liyau_cm(self.x_of_rho(rho, tau), tau)


class KernelSlice:
    """A parabolic kernel at one backward time tau, as functions of the
    comoving radius x.

    Every quadrature node, profile root and surface sample of a heat ball
    lies on one time slice: the slice checks tau once and holds what depends
    on tau alone.  This generic slice calls the kernel's per-point methods.

    * ``value_cm(x)`` and ``sample(x)`` evaluate at x itself; they serve the
      level set (profile roots and surface samples).
    * ``value(x)``, ``grad(x, v)`` and ``liyau(x)`` evaluate at the geodesic
      radius ``rho(x)``, as the radius-based kernel methods do; on an evolving
      model that is the point ``x_of_rho(rho_of_x(x))``, at most an ulp from
      x.  They serve integrands over the region.

    ``grad`` accepts the value at x when the caller has it, for closed
    forms to reuse.  ``warp(x)`` is the orbit warp and ``sm`` the radial
    metric factor sqrt(g_xx) of the slice.
    """

    def __init__(self, kern, tau):
        kern._check_tau(tau)
        self.kern, self.tau, self.t = kern, tau, -tau
        self.sm = math.sqrt(kern.geom.m2(0.0, -tau))

    def rho(self, x):
        return self.kern.rho_of_x(x, self.tau)

    def warp(self, x):
        return self.kern.geom.warp_cm(x, self.t)

    def value_cm(self, x):
        return self.kern.value_cm(x, self.tau)

    def sample(self, x):
        """(value, |grad|, d/dtau) at x."""
        kern, tau = self.kern, self.tau
        return kern.value_cm(x, tau), kern.grad_norm_cm(x, tau), kern.dtau_cm(x, tau)

    def _node(self, x):
        return self.kern.x_of_rho(self.rho(x), self.tau)

    def value(self, x):
        return self.kern.value_cm(self._node(x), self.tau)

    def grad(self, x, v=None):
        return self.kern.grad_norm_cm(self._node(x), self.tau)

    def liyau(self, x):
        return self.kern.liyau_cm(self._node(x), self.tau)


class KernelSlices:
    """`KernelSlice`s on a column of times tau: row i of a matrix of radii
    lies on the slice tau[i].  ``rho``, ``warp``, ``value``, ``grad`` and
    ``liyau`` call the `KernelSlice` method of the same name node by node."""

    def __init__(self, kern, tau):
        self.rows = [KernelSlice(kern, t) for t in tau.ravel().tolist()]
        self.tau, self.t = tau, -tau
        self.sm = np.array([[sl.sm] for sl in self.rows])
        for name in ("rho", "warp", "value", "grad", "liyau"):
            setattr(self, name, functools.partial(self._map, getattr(KernelSlice, name)))

    def _map(self, method, x, v=None):
        return np.array([[method(sl, xi) for xi in row]
                         for sl, row in zip(self.rows, x.tolist())])


class HeatSlice(KernelSlice):
    """The exact heat kernel on one time slice; its formulas live here only.

    The models are static, so x is the geodesic radius and both families of
    `KernelSlice` coincide.  `HeatSlices` holds the numpy forms.
    """

    _exp = staticmethod(math.exp)

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

    def rho(self, x):
        return x

    def value(self, x):
        gauss = self.pref * math.exp(-x * x / self.four_tau)
        k = self.k
        if k == 0.0:
            return gauss
        kx = k * x
        ratio = kx / math.sinh(kx) if kx > 1e-8 else 1.0 - kx * kx / 6.0
        return gauss * ratio * self.decay

    value_cm = value

    def dlog(self, x):
        """d log H / dx; the series branch keeps 1/x - k coth(kx) accurate."""
        k = self.k
        if k == 0.0:
            return -x / self.two_tau
        kx = k * x
        if kx > 1e-4:
            dlog = 1.0 / x - k / math.tanh(kx)
        else:
            dlog = -k ** 2 * x / 3.0 + k ** 4 * x ** 3 / 45.0
        return dlog - x / self.two_tau

    def dtau_log(self, x):
        return self.dtau0 + x * x / self.four_tau2 - self.k ** 2

    def dx(self, x, v=None):
        return (self.value(x) if v is None else v) * self.dlog(x)

    def grad(self, x, v=None):
        return abs(self.dx(x, v)) / self.sm

    def dtau(self, x, v=None):
        return (self.value(x) if v is None else v) * self.dtau_log(x)

    def liyau(self, x):
        # log-domain evaluation, exact for the flat Gaussian: n / (2 tau)
        if self.k == 0.0:
            return -self.dtau0
        dlog = self.dlog(x)
        return dlog * dlog - self.dtau_log(x)

    def sample(self, x):
        v = self.value(x)
        return v, self.grad(x, v), self.dtau(x, v)


class HeatSlices(HeatSlice):
    """`HeatSlice` on a column of times tau, in numpy forms: row i of a
    matrix of radii lies on the slice tau[i].  The branches of the H3
    formulas are taken node by node with np.where."""

    _exp = staticmethod(np.exp)

    def __init__(self, kern, tau):
        super().__init__(kern, tau)
        self.warp = (lambda x: x) if self.k == 0.0 else lambda x: np.sinh(self.k * x) / self.k

    def value(self, x):
        gauss = self.pref * np.exp(-x * x / self.four_tau)
        if self.k == 0.0:
            return gauss
        kx = self.k * x
        ratio = np.where(kx > 1e-8, kx / np.sinh(kx), 1.0 - kx * kx / 6.0)
        return gauss * ratio * self.decay

    def dlog(self, x):
        k = self.k
        if k == 0.0:
            return -x / self.two_tau
        kx = k * x
        dlog = np.where(kx > 1e-4, 1.0 / x - k / np.tanh(kx),
                        -k ** 2 * x / 3.0 + k ** 4 * x ** 3 / 45.0)
        return dlog - x / self.two_tau


class HeatKernel(ParabolicKernel):
    """Exact heat kernel: flat models for every n, hyperbolic models for n = 3.

    Conventions: tau is backward time, the kernel solves the backward heat
    equation d/dtau = Delta on the static model and integrates to unit mass.
    The per-point methods evaluate through `HeatSlice`.
    """

    kind = HEAT

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

    def at(self, tau):
        return (HeatSlices if isinstance(tau, np.ndarray) else HeatSlice)(self, tau)

    def value_cm(self, x, tau):
        return self.at(tau).value(x)

    def dx_cm(self, x, tau):
        return self.at(tau).dx(x)

    def dtau_cm(self, x, tau):
        return self.at(tau).dtau(x)

    def liyau_cm(self, x, tau):
        return self.at(tau).liyau(x)

    def tau_max(self, r):
        # on-center (4 pi tau)^(n/2) exp(k^2 tau) = r^n; with a = r^2 / (4 pi)
        # and c = 2 k^2 / 3 (n = 3) this is c tau exp(c tau) = c a
        a = r * r / (4.0 * math.pi)
        if self._k == 0.0:
            return a
        c = 2.0 * self._k ** 2 / 3.0
        return float(lambertw(c * a).real) / c

    def profile_x(self, r, tau):
        # flat: x^2 = 2 n tau log(r^2 / (4 pi tau)); H3 has no closed form
        if self._k != 0.0:
            return None
        return math.sqrt(2.0 * self.n * tau * math.log(self.tau_max(r) / tau))


class SubHeatKernel(ParabolicKernel):
    """Reduced-distance kernel (4 pi tau)^(-n/2) exp(-ell).

    ``field`` is a ReducedDistanceField; its value is obtained by geodesic
    shooting, so the spatial gradient and the time derivative (at fixed
    manifold point) are centered finite differences of ell.  The spatial
    step is 1e-4 * max(1, rho); the tau step is relative (2e-3 * tau) to
    keep the difference quotient accurate against the 1/tau blowup of ell.
    """

    kind = SUB_HEAT

    def __init__(self, field):
        super().__init__(field.flow)
        self.field = field
        self.h_space = 1e-4
        self.h_tau_rel = 1e-3

    def ell_cm(self, x, tau):
        return self.field.ell_cm(abs(x), tau)

    def value_cm(self, x, tau):
        self._check_tau(tau)
        n = self.n
        return (4.0 * math.pi * tau) ** (-n / 2.0) * math.exp(-self.ell_cm(x, tau))

    def dx_cm(self, x, tau):
        if x <= 1e-8:
            return 0.0  # radial symmetry; below FD resolution
        h = self.h_space * max(1.0, x)
        if x < 2.0 * h:
            h = 0.5 * x  # keep the stencil on one side of the center
        dl = (self.ell_cm(x + h, tau) - self.ell_cm(x - h, tau)) / (2.0 * h)
        return -self.value_cm(x, tau) * dl

    def dtau_cm(self, x, tau):
        h = self.h_tau_rel * tau
        dl = (self.ell_cm(x, tau + h) - self.ell_cm(x, tau - h)) / (2.0 * h)
        return self.value_cm(x, tau) * (-self.n / (2.0 * tau) - dl)

    def grad_log_cm(self, x, tau):
        """Signed d(log K)/dx = -d ell/dx by centered differences."""
        if x <= 1e-8:
            return 0.0
        h = self.h_space * max(1.0, x)
        if x < 2.0 * h:
            h = 0.5 * x
        return -(self.ell_cm(x + h, tau) - self.ell_cm(x - h, tau)) / (2.0 * h)

    def liyau_cm(self, x, tau):
        # assembled from ell so it stays finite where the kernel underflows
        h = self.h_tau_rel * tau
        dl_tau = (self.ell_cm(x, tau + h) - self.ell_cm(x, tau - h)) / (2.0 * h)
        grad2 = self.grad_log_cm(x, tau) ** 2 / self.geom.m2(x, -tau)
        return grad2 + dl_tau + self.n / (2.0 * tau)


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

    def slice_radius(self, tau):
        return math.sqrt(2.0 * self.n * tau)

    def slice_area(self, tau):
        return unit_sphere_area(self.n + 1) * self.slice_radius(tau) ** self.n

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
    """|grad log u|^2 - (log u)_tau for a parabolic kernel."""
    if not getattr(kernel, "parabolic", False):
        raise UnsupportedError("Li-Yau expression needs a parabolic kernel")
    return kernel.liyau(rho, tau)
