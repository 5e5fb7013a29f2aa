"""Catalog of analytic test functions with exact derivatives and sphere means.

Each entry supplies the pointwise value, Laplacian and time derivative
together with exact averages over geodesic spheres centered at the model
center.  Keeping the angular integration in closed form means every region
integral downstream stays one- or two-dimensional.

Catalog names: ``constant-1``, ``linear``, ``harmonic-quadratic``, ``power``,
``subharmonic``, ``superharmonic``, ``caloric-quadratic``,
``gaussian-translate``, ``exp-radial``.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import special

from .errors import UnsupportedError
from .geometry import EUCLIDEAN, HYPERBOLIC

HARMONIC = "harmonic"
SUPERHARMONIC = "superharmonic"
SUBHARMONIC = "subharmonic"
CALORIC = "caloric"
SUPERCALORIC = "supercaloric"
SUBCALORIC = "subcaloric"
NONE = "none"


@dataclass(frozen=True)
class TestField:
    """An analytic test function on a model geometry.

    ``value``, ``laplacian`` and ``dt`` take ``(rho, t, omega)`` where
    ``omega`` is a unit direction (``None`` means the first axis).  The
    ``mean_*`` callbacks take ``(rho, t)`` and return exact averages over the
    geodesic sphere of radius ``rho`` of v, of Delta v and of the heat
    operator ``(d/dt - Delta) v``.
    """

    name: str
    geom: object
    value: callable
    laplacian: callable
    dt: callable
    mean_value: callable
    mean_laplacian: callable
    mean_heat_op: callable
    tags: tuple
    params: dict = dc_field(default_factory=dict)

    def center_value(self, t=0.0):
        return self.value(0.0, t, None)


def _e1(omega, idx):
    if omega is None:
        return 1.0 if idx == 0 else 0.0
    return omega[idx]


def _sphere_mean_exp_cos(n, b):
    """Mean of exp(b <omega, e>) over the unit (n-1)-sphere.

    Equals Gamma(n/2) (2/b)^(n/2-1) I_{n/2-1}(b); series branch for small b.
    """
    if n == 1:
        return math.cosh(b)
    nu = n / 2.0 - 1.0
    if abs(b) < 1e-6:
        return 1.0 + b * b / (2.0 * n) + b ** 4 / (8.0 * n * (n + 2.0))
    return math.gamma(n / 2.0) * (2.0 / b) ** nu * special.ive(nu, b) * math.exp(abs(b))


def _sphere_mean_exp_cos_db(n, b):
    """d/db of the mean above; equals Gamma(n/2) (2/b)^(n/2-1) I_{n/2}(b)."""
    if n == 1:
        return math.sinh(b)
    nu = n / 2.0 - 1.0
    if abs(b) < 1e-6:
        return b / n * (1.0 + b * b / (2.0 * (n + 2.0)))
    return math.gamma(n / 2.0) * (2.0 / b) ** nu * special.ive(nu + 1.0, b) * math.exp(abs(b))


def _require(geom, kinds, name, min_n=1):
    if geom.kind not in kinds:
        raise UnsupportedError(f"field '{name}' not available on {geom.kind}")
    if geom.n < min_n:
        raise UnsupportedError(f"field '{name}' needs n >= {min_n}")


def make_field(name, geom, **params):
    """Build a catalog field for the given geometry.

    Raises UnsupportedError on combinations outside the catalog.
    """
    n = geom.n
    flat = (EUCLIDEAN,)

    if name == "constant-1":
        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: 1.0,
            laplacian=lambda rho, t=0.0, omega=None: 0.0,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: 1.0,
            mean_laplacian=lambda rho, t=0.0: 0.0,
            mean_heat_op=lambda rho, t=0.0: 0.0,
            tags=(HARMONIC, CALORIC))

    if name == "linear":
        _require(geom, flat, name)
        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: rho * _e1(omega, 0),
            laplacian=lambda rho, t=0.0, omega=None: 0.0,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: 0.0,
            mean_laplacian=lambda rho, t=0.0: 0.0,
            mean_heat_op=lambda rho, t=0.0: 0.0,
            tags=(HARMONIC, CALORIC))

    if name == "harmonic-quadratic":
        _require(geom, flat, name, min_n=2)
        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: rho * rho * (
                _e1(omega, 0) ** 2 - _e1(omega, 1) ** 2),
            laplacian=lambda rho, t=0.0, omega=None: 0.0,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: 0.0,
            mean_laplacian=lambda rho, t=0.0: 0.0,
            mean_heat_op=lambda rho, t=0.0: 0.0,
            tags=(HARMONIC, CALORIC))

    if name == "power":
        # |y|^(2-n): harmonic off the center, with a negative point mass at
        # the center, hence superharmonic; unusable in identities anchored at
        # the center value.
        _require(geom, flat, name, min_n=3)
        p = 2.0 - n
        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: rho ** p,
            laplacian=lambda rho, t=0.0, omega=None: 0.0,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: rho ** p,
            mean_laplacian=lambda rho, t=0.0: 0.0,
            mean_heat_op=lambda rho, t=0.0: 0.0,
            tags=(SUPERHARMONIC,))

    if name == "subharmonic":
        # squared distance from the center; subharmonic on flat and
        # negatively curved models alike.
        _require(geom, flat + (HYPERBOLIC,), name)

        def lap(rho, t=0.0, omega=None):
            if geom.kind == HYPERBOLIC:
                if rho == 0.0:
                    return 2.0 * n
                kr = geom.k * rho
                return 2.0 + 2.0 * (n - 1) * kr / math.tanh(kr)
            return 2.0 * n

        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: rho * rho,
            laplacian=lap,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: rho * rho,
            mean_laplacian=lap,
            mean_heat_op=lambda rho, t=0.0: -lap(rho, t),
            tags=(SUBHARMONIC,))

    if name == "superharmonic":
        _require(geom, flat, name)
        C = params.get("C", 10.0)
        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: C - rho * rho,
            laplacian=lambda rho, t=0.0, omega=None: -2.0 * n,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: C - rho * rho,
            mean_laplacian=lambda rho, t=0.0: -2.0 * n,
            mean_heat_op=lambda rho, t=0.0: 2.0 * n,
            tags=(SUPERHARMONIC, SUPERCALORIC),
            params={"C": C})

    if name == "caloric-quadratic":
        # |y|^2 + 2 n t solves the forward heat equation on flat space.
        _require(geom, flat, name)
        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: rho * rho + 2.0 * n * t,
            laplacian=lambda rho, t=0.0, omega=None: 2.0 * n,
            dt=lambda rho, t=0.0, omega=None: 2.0 * n,
            mean_value=lambda rho, t=0.0: rho * rho + 2.0 * n * t,
            mean_laplacian=lambda rho, t=0.0: 2.0 * n,
            mean_heat_op=lambda rho, t=0.0: 0.0,
            tags=(SUBHARMONIC, CALORIC))

    if name == "gaussian-translate":
        # positive forward caloric function: a spreading Gaussian centered at
        # distance a from the origin, age offset s0.
        _require(geom, flat, name)
        a = params.get("a", 0.7)
        s0 = params.get("s0", 1.0)

        def val(rho, t=0.0, omega=None):
            s = t + s0
            d2 = rho * rho - 2.0 * rho * a * _e1(omega, 0) + a * a
            return (4.0 * math.pi * s) ** (-n / 2.0) * math.exp(-d2 / (4.0 * s))

        def mean(rho, t=0.0):
            s = t + s0
            b = rho * a / (2.0 * s)
            pref = (4.0 * math.pi * s) ** (-n / 2.0) * math.exp(
                -(rho * rho + a * a) / (4.0 * s))
            return pref * _sphere_mean_exp_cos(n, b)

        def mean_dt(rho, t=0.0):
            s = t + s0
            b = rho * a / (2.0 * s)
            pref = (4.0 * math.pi * s) ** (-n / 2.0) * math.exp(
                -(rho * rho + a * a) / (4.0 * s))
            dpref = pref * (-n / (2.0 * s) + (rho * rho + a * a) / (4.0 * s * s))
            return (dpref * _sphere_mean_exp_cos(n, b)
                    + pref * _sphere_mean_exp_cos_db(n, b) * (-b / s))

        def lap(rho, t=0.0, omega=None):
            # caloric: Delta v = dv/dt
            s = t + s0
            d2 = rho * rho - 2.0 * rho * a * _e1(omega, 0) + a * a
            return val(rho, t, omega) * (-n / (2.0 * s) + d2 / (4.0 * s * s))

        return TestField(
            name, geom,
            value=val, laplacian=lap, dt=lap,
            mean_value=mean, mean_laplacian=mean_dt,
            mean_heat_op=lambda rho, t=0.0: 0.0,
            tags=(CALORIC,), params={"a": a, "s0": s0})

    if name == "exp-radial":
        # exp(-d): superharmonic on hyperbolic models with (n-1) k >= 1.
        _require(geom, (HYPERBOLIC,), name)
        if (n - 1) * geom.k < 1.0:
            raise UnsupportedError("exp-radial needs (n-1)k >= 1 to be superharmonic")

        def lap(rho, t=0.0, omega=None):
            if rho == 0.0:
                return -math.inf  # cone point; never sampled in quadrature
            kr = geom.k * rho
            return math.exp(-rho) * (1.0 - (n - 1) * geom.k / math.tanh(kr))

        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: math.exp(-rho),
            laplacian=lap,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: math.exp(-rho),
            mean_laplacian=lap,
            mean_heat_op=lambda rho, t=0.0: -lap(rho, t),
            tags=(SUPERHARMONIC,))

    raise UnsupportedError(f"unknown field '{name}'")


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

    Samples are (rho, t, omega) triples or SpaceTimePoint-like objects.
    Returns 0.0 when every tag's sign condition holds everywhere.
    """
    if not samples:
        raise ValueError("need at least one sample")
    worst = 0.0
    for s in samples:
        if hasattr(s, "rho"):
            rho, t, omega = s.rho, s.t, getattr(s, "omega", None)
        else:
            rho, t, omega = (tuple(s) + (None,))[:3]
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
