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
from dataclasses import dataclass

import numpy as np

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
    operator ``(d/dt - Delta) v``.  ``mean_heat_op`` and ``mean_value_np``
    take numpy arrays (radii and times), as the heat-ball integrands call
    them, and hold at rho = 0 too; ``mean_value_np`` defaults to
    ``mean_value`` where that is arithmetic.
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
    mean_value_np: callable = None

    def __post_init__(self):  # a missing array form is the scalar form
        if self.mean_value_np is None:
            object.__setattr__(self, "mean_value_np", self.mean_value)

    def center_value(self, t=0.0):
        return self.value(0.0, t, None)


def _quot(a, b, center, m):
    """a / b on floats (m = math) or arrays (m = np); ``center`` where b = 0."""
    if m is math:
        return a / b if b else center
    return np.divide(a, b, out=np.full(np.shape(b), center), where=b != 0.0)


def _e1(omega, idx):
    if omega is None:
        return 1.0 if idx == 0 else 0.0
    return omega[idx]


def _ive(*args):
    """scipy.special.ive; the first call imports it and rebinds the name."""
    global _ive
    from scipy.special import ive as _ive
    return _ive(*args)


def _sphere_mean_exp_cos(n, b):
    """Mean of exp(b <omega, e>) over the unit (n-1)-sphere.

    Equals Gamma(n/2) (2/b)^(n/2-1) I_{n/2-1}(b); series branch for small b.
    """
    if n == 1:
        return math.cosh(b)
    nu = n / 2.0 - 1.0
    if abs(b) < 1e-6:
        return 1.0 + b * b / (2.0 * n) + b ** 4 / (8.0 * n * (n + 2.0))
    return math.gamma(n / 2.0) * (2.0 / b) ** nu * _ive(nu, b) * math.exp(abs(b))


def _sphere_mean_exp_cos_db(n, b):
    """d/db of the mean above; equals Gamma(n/2) (2/b)^(n/2-1) I_{n/2}(b)."""
    if n == 1:
        return math.sinh(b)
    nu = n / 2.0 - 1.0
    if abs(b) < 1e-6:
        return b / n * (1.0 + b * b / (2.0 * (n + 2.0)))
    return math.gamma(n / 2.0) * (2.0 / b) ** nu * _ive(nu + 1.0, b) * math.exp(abs(b))


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

        def lap(rho, t=0.0, omega=None, m=math):
            if geom.kind == HYPERBOLIC:
                kr = geom.k * rho
                return 2.0 + _quot(2.0 * (n - 1) * kr, m.tanh(kr), 2.0 * (n - 1), m)
            return 2.0 * n

        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: rho * rho,
            laplacian=lap,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: rho * rho,
            mean_laplacian=lap,
            mean_heat_op=lambda rho, t=0.0: -lap(rho, t, m=np),
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
            tags=(SUPERHARMONIC, SUPERCALORIC))

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

        def mean(rho, t=0.0, m=math):
            s = t + s0
            b = rho * a / (2.0 * s)
            pref = (4.0 * math.pi * s) ** (-n / 2.0) * m.exp(
                -(rho * rho + a * a) / (4.0 * s))
            return pref * (_sphere_mean_exp_cos(n, b) if m is math
                           else np.vectorize(_sphere_mean_exp_cos)(n, b))

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
            mean_value_np=lambda rho, t=0.0: mean(rho, t, m=np),
            tags=(CALORIC,))

    if name == "exp-radial":
        # exp(-d): superharmonic on hyperbolic models with (n-1) k >= 1.
        _require(geom, (HYPERBOLIC,), name)
        if (n - 1) * geom.k < 1.0:
            raise UnsupportedError("exp-radial needs (n-1)k >= 1 to be superharmonic")

        def lap(rho, t=0.0, omega=None, m=math):
            # -inf at the cone point rho = 0; never sampled in quadrature
            return m.exp(-rho) * (1.0 - _quot((n - 1) * geom.k, m.tanh(geom.k * rho), math.inf, m))

        return TestField(
            name, geom,
            value=lambda rho, t=0.0, omega=None: math.exp(-rho),
            laplacian=lap,
            dt=lambda rho, t=0.0, omega=None: 0.0,
            mean_value=lambda rho, t=0.0: math.exp(-rho),
            mean_laplacian=lap,
            mean_heat_op=lambda rho, t=0.0: -lap(rho, t, m=np),
            mean_value_np=lambda rho, t=0.0: np.exp(-rho),
            tags=(SUPERHARMONIC,))

    raise UnsupportedError(f"unknown field '{name}'")
