"""Tanh-sinh quadrature for the level-set time integrals, the fixed 21-point
Gauss-Kronrod rule for batches of time slices and scipy's adaptive
Gauss-Kronrod for the rest; all return values with error estimates.  `brentq`
is scipy's root finder.  Both scipy routines are imported on their first call.

The parabolic level-set integrals have integrable endpoint singularities at
both ends of the time interval (a square root at the top, a ``sqrt(log)``
factor at the bottom); the double-exponential rule `integrate_de` absorbs
both.  It rewrites ``scipy.integrate.tanhsinh`` (scipy 1.17.1, minlevel 2,
maxlevel 10, finite a < b), bit for bit in integral and error (scipy is its
test oracle), without scipy's array bookkeeping, its extra midpoint
evaluation and the evaluations at zero weight.  `qk21` is QUADPACK's QK21
(Piessens et al. 1983) on the rows of a matrix of integrand values.
"""

import math

import numpy as np

DEFAULT_EPSABS = 1e-11
DEFAULT_EPSREL = 1e-9

_MINLEVEL, _MAXLEVEL = 2, 10
_EPS = np.finfo(float).eps
# base step: at level 0, eight steps reach where 1 - x underflows
_H0 = np.float64(math.asinh(math.log(2 / (4 * np.finfo(float).smallest_normal) - 1)
                            / math.pi) / 8)


def _pairs(k):
    """Complements 1 - x_j and weights of the nodes new at level k."""
    j = np.arange(8 * 2 ** k + 1) if k == 0 else np.arange(1, 8 * 2 ** k + 1, 2)
    jh = j * (_H0 / 2 ** k)
    u1, u2 = np.pi / 2 * np.cosh(jh), np.pi / 2 * np.sinh(jh)
    wj, xjc = u1 / np.cosh(u2) ** 2, 1 / (np.exp(u2) * np.cosh(u2))
    if k == 0:
        wj[0] /= 2  # x = 0 appears on both sides
    return xjc, wj


with np.errstate(over="ignore"):
    _LEVELS = [_pairs(k) for k in range(_MAXLEVEL + 1)]
# node counts of levels below k, for the back-filled sums of the first level
_COUNT = np.cumsum([0] + [len(xjc) for xjc, _ in _LEVELS])
# the first level takes every node of levels 0.._MINLEVEL; row 0 of a level
# holds the right-side nodes b - alpha xjc, row 1 the left-side a + alpha xjc
_LEVELS[_MINLEVEL] = tuple(np.concatenate(p) for p in zip(*_LEVELS[:_MINLEVEL + 1]))
_LEVELS = [(np.stack((-xjc, xjc)), np.stack((wj, wj))) for xjc, wj in _LEVELS]


def integrate_de(f, a, b, atol=DEFAULT_EPSABS, rtol=DEFAULT_EPSREL):
    """Double-exponential (tanh-sinh) quadrature of a function on a < b.

    ``f`` maps the 1-d array of one level's nodes to the array of its values.
    Robust against integrable endpoint singularities (inverse square roots,
    logarithms); the caller is responsible for guarding evaluations in the
    sub-double-precision slivers next to the endpoints.  A non-finite value
    counts as the value at the outermost finite node on its side.
    """
    alpha, ab = (b - a) / 2, np.array([[b], [a]])
    sums, ends = [], [(-math.inf, math.nan, 0.0)] * 2  # signed x, f, w per side
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(_MINLEVEL, _MAXLEVEL + 1):
            x, w = alpha * _LEVELS[n][0] + ab, alpha * _LEVELS[n][1]
            w[(x <= a) | (x >= b)] = 0.0
            fx = np.full(x.shape, math.nan)
            fx[w != 0] = f(x[w != 0])
            bad = ~np.isfinite(fx)
            # outermost finite node of each side, the left one in -x
            y = np.where(bad, -math.inf, x * [[1.0], [-1.0]])
            for side, i in enumerate(y.argmax(axis=1)):
                if y[side, i] > ends[side][0]:
                    ends[side] = (y[side, i], fx[side, i], w[side, i])
            fjwj = np.where(bad, [[ends[0][1]], [ends[1][1]]], fx) * w
            s = fjwj.ravel().sum() * (h := _H0 / 2 ** n)
            if sums:
                s = sums[-1] / 2 + s
            else:  # the sums of the two levels below, from the same nodes
                sums = [fjwj[:, :_COUNT[m]].ravel().sum() * step
                        for m, step in ((n - 1, 4 * h), (n, 2 * h))]
            d1, d2 = abs(s - sums[-1]), abs(s - sums[-2])
            ds = (np.power(d1, np.log(d1) / np.log(d2)) if d1 > 0 else 0.0,
                  d1 * d1, _EPS * abs(fjwj).max(),
                  *(abs(fe * we) for _, fe, we in ends), _EPS * abs(s))
            # as numpy's max and clip: NaN anywhere gives NaN
            err = np.float64(math.nan if math.isnan(sum(ds) + d1) else min(max(ds), d1))
            if err / abs(s) < rtol or err < atol or not np.isfinite(s):
                break
            sums.append(s)
    return float(s), float(err)


# QK21 on [-1, 1] (QUADPACK's dqk21 data): abscissae x >= 0 in decreasing
# order, their Kronrod weights, and the 10-point Gauss weights (0 off x[1::2])
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
       0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
       0.2943928627014602, 0.14887433898163122, 0.0)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
       0.0, 0.26926671930999635, 0.0, 0.29552422471475287, 0.0)
QK21_NODES = np.concatenate((np.negative(_XK), _XK[-2::-1]))  # increasing
_QK21_W = np.array([_WK + _WK[-2::-1], _WG + _WG[-2::-1]]).T


def qk21(fx, half):
    """QK21 on each row of ``fx``, the integrand at ``center + half * QK21_NODES``.

    Returns (integrals, error estimates) per row with QUADPACK's estimate:
    the Kronrod-Gauss difference scaled against the spread of the integrand
    and floored at 50 ulps of the integral of its magnitude.
    """
    rk, rg = (fx @ _QK21_W).T
    resasc = abs(fx - rk[:, None] / 2) @ _QK21_W[:, 0] * half
    err = abs(rk - rg) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((resasc != 0) & (err != 0),
                       resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    return rk * half, np.maximum(err, 50.0 * _EPS * (abs(fx) @ _QK21_W[:, 0]) * half)


def integrate_1d(f, a, b, epsabs=DEFAULT_EPSABS, epsrel=DEFAULT_EPSREL,
                 limit=200):
    """Adaptive quadrature of ``f`` on ``(a, b)`` with an error estimate.

    ``full_output`` returns QUADPACK's message instead of emitting an
    ``IntegrationWarning`` when the tolerance is not met; it is dropped.
    """
    return _quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                 full_output=1)[:2]


def brentq(f, a, b, **kwargs):
    """Brent's root of ``f`` in the bracket ``[a, b]`` (scipy.optimize.brentq)."""
    return _brentq(f, a, b, **kwargs)


# the first call of each stand-in imports scipy's routine in its place
def _quad(*args, **kwargs):
    global _quad
    from scipy.integrate import quad as _quad
    return _quad(*args, **kwargs)


def _brentq(*args, **kwargs):
    global _brentq
    from scipy.optimize import brentq as _brentq
    return _brentq(*args, **kwargs)
