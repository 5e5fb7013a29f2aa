"""Thin quadrature helpers built on scipy.integrate.

Every adaptive routine returns ``(value, error_estimate)``.  The parabolic
level-set integrals have integrable endpoint singularities at both ends of
the time interval (the profile closes like a square root at the top and
carries a ``sqrt(log)`` factor at the bottom); the double-exponential rule
`integrate_de` absorbs both, with deterministic nodes that stay robust when
the integrand carries a finite-difference noise floor.
"""

import warnings

import numpy as np
from scipy import integrate

DEFAULT_EPSABS = 1e-11
DEFAULT_EPSREL = 1e-9


def integrate_de(f, a, b, atol=DEFAULT_EPSABS, rtol=DEFAULT_EPSREL):
    """Double-exponential (tanh-sinh) quadrature of a scalar function.

    Robust against integrable endpoint singularities (inverse square roots,
    logarithms); the caller is responsible for guarding evaluations in the
    sub-double-precision slivers next to the endpoints.
    """
    def vec(xs):
        xs = np.asarray(xs)
        out = np.array([f(float(x)) for x in xs.ravel()], dtype=float)
        return out.reshape(xs.shape)

    res = integrate.tanhsinh(vec, a, b, atol=atol, rtol=rtol)
    return float(res.integral), float(res.error)


def integrate_1d(f, a, b, epsabs=DEFAULT_EPSABS, epsrel=DEFAULT_EPSREL,
                 limit=200):
    """Adaptive quadrature of ``f`` on ``(a, b)`` with an error estimate."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                              limit=limit)

