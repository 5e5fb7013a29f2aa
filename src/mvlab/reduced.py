"""Reduced geometry of the model flows: geodesic shooting for the weighted
path energy, the reduced distance, the reduced volume and the curvature
integral along minimizers.

Conventions.  tau > 0 is backward time (t = -tau with the base point at time
zero); sigma = 2 sqrt(tau) removes the tau = 0 singularity of the geodesic
equation.  The path energy of a curve gamma(sigma) is

    int_0^sigmabar ( |dgamma/dsigma|^2 + (sigma^2/4) R ) dsigma

with the metric and R evaluated at tau = sigma^2/4.  By rotational symmetry
minimizers to radially placed targets are radial, so shooting reduces to the
scalar comoving coordinate x and the Euler-Lagrange equation

    2 m^2 x'' = -d_x(m^2) x'^2 - sigma x' d_tau(m^2) + (sigma^2/4) d_x R,

where m^2(x, tau) is the radial metric coefficient.  The reduced distance is
the minimal energy divided by 2 sqrt(tau), and the reduced volume is the
spatial integral of (4 pi tau)^(-n/2) exp(-ell).

On both realized flows ell has a closed form, `kernels.ReducedSlice`: the
reduced volume, Jhat, Ihat, the Li-Yau expression, the endpoint and soliton
identities (its exact derivatives, `ell_jet`) and the curvature integral (its
minimizer) evaluate it.  The shot ell and the landed geodesic here are its
independent oracle.  A shot runs `solve_ivp` below, scipy's RK45 steps and
bits on a state of three floats: numpy is called only for the BLAS dots the
bits come from, and the right-hand side evaluates the flow's closed-form
coefficients.  Its tableau is read off ``scipy.integrate.RK45``, imported on
the first shot, not with the module.
"""

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DomainError, ShootingError
from .geometry import unit_sphere_area
from .kernels import SubHeatKernel
from .quad import integrate_1d, integrate_de

ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
TARGET_TOL = 1e-12
MAX_SHOTS = 4         # a linear endpoint map lands in two, ODE error in three
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10   # scipy's step-size controller


@functools.cache
def _rk45():
    """scipy's RK45 class (its tableau: A, B, C, E, P), the controller exponent and
    the stages (s, C[s], A[s]); scipy.integrate is imported on the first shot."""
    from scipy.integrate import RK45
    return (RK45, 1 / (RK45.error_estimator_order + 1),
            tuple(enumerate(zip(RK45.C[1:], RK45.A[1:]), start=1)))


def solve_ivp(fun, t_span, y0, method="RK45", rtol=1e-3, atol=1e-6):
    """scipy.integrate.solve_ivp(method="RK45") on an increasing span and a state of
    three floats, its steps and bits; ``fun(t, (y0, y1, y2))`` returns three floats.
    numpy runs only the stage, solution and error dots and the RMS norm (its BLAS
    sums with FMA); every elementwise operation is a float one in scipy's order.
    Returns t, y, nfev and success."""
    t, t_bound = map(float, t_span)
    if method != "RK45" or not t < t_bound:
        raise ValueError("solve_ivp runs RK45 on an increasing span only")
    RK45, expo, tableau = _rk45()
    K, z = np.empty((RK45.n_stages + 1, 3)), np.empty(3)
    rows, zv, z_dot = list(map(memoryview, K)), memoryview(z), z.dot
    stages = [(c, K[:s].T.dot, a[:s], rows[s]) for s, (c, a) in tableau]
    k0, k6, b_dot, e_dot = rows[0], rows[-1], K[:-1].T.dot, K.T.dot

    def norm(a, b, c):  # np.linalg.norm(z) / sqrt(size), scipy's RMS norm
        zv[0], zv[1], zv[2] = a, b, c
        return math.sqrt(z_dot(z)) / 3 ** 0.5
    y = x, u, w = tuple(map(float, y0))   # scipy's initial step
    f = fx, fu, fw = fun(t, y)
    sx, su, sw = atol + abs(x) * rtol, atol + abs(u) * rtol, atol + abs(w) * rtol
    d0, d1 = norm(x / sx, u / su, w / sw), norm(fx / sx, fu / su, fw / sw)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    gx, gu, gw = fun(t + h0, (x + h0 * fx, u + h0 * fu, w + h0 * fw))
    d2 = norm((gx - fx) / sx, (gu - fu) / su, (gw - fw) / sw) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** expo
    h_abs, nfev, ts, ys = min(100 * h0, h1, t_bound - t), 2, [t], [y]
    while t < t_bound:
        min_step, cap = 10 * (math.nextafter(t, math.inf) - t), MAX_FACTOR
        k0[0], k0[1], k0[2] = f
        h_abs = max(h_abs, min_step)
        while h_abs >= min_step:  # try a step; after a rejection never grow
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            for c, dot, a, k in stages:
                dx, du, dw = dot(a).tolist()
                k[0], k[1], k[2] = fun(t + c * h, (x + dx * h, u + du * h, w + dw * h))
            bx, bu, bw = b_dot(RK45.B).tolist()
            y_new = xn, un, wn = x + h * bx, u + h * bu, w + h * bw
            k6[0], k6[1], k6[2] = f_new = fun(t + h, y_new)
            nfev += RK45.n_stages
            ex, eu, ew = e_dot(RK45.E).tolist()
            err = norm(ex * h / (atol + max(abs(x), abs(xn)) * rtol),
                       eu * h / (atol + max(abs(u), abs(un)) * rtol),
                       ew * h / (atol + max(abs(w), abs(wn)) * rtol))
            factor = MAX_FACTOR if err == 0 else SAFETY * err ** -expo
            if err < 1:  # never for a NaN err: builtin max(MIN_FACTOR, NaN) shrinks h
                h_abs *= min(cap, factor)
                break
            h_abs, cap = h_abs * max(MIN_FACTOR, factor), 1
        else:
            break  # the step fell below scipy's minimum: success is False
        t, y, f, (x, u, w) = t_new, y_new, f_new, y_new
        ts.append(t)
        ys.append(y)
    return SimpleNamespace(t=np.array(ts), y=np.array(ys).T, nfev=nfev, success=t == t_bound)


@dataclass
class LGeodesic:
    """A radially shot geodesic of the weighted path energy."""

    v: float                # initial dgamma/dsigma at sigma = 0
    sigma_bar: float
    sigmas: np.ndarray      # strictly increasing sample grid from 0 to sigma_bar
    xs: np.ndarray          # comoving positions at the samples
    us: np.ndarray          # dgamma/dsigma at the samples
    length: float           # accumulated path energy

    @property
    def x_end(self):
        return float(self.xs[-1])

    @property
    def u_end(self):
        return float(self.us[-1])


def _rhs(flow):
    """The sigma-form ODE in (x, u, L), the flow's closed-form coefficients bound
    once per shot and evaluated in `FlowGeometry`'s order: m^2 = c(-tau) and
    R = n(n-1)/c, the constants 1 and 0 on static flows.  All realized models
    are homogeneous in x (d_x(m^2) = d_x R = 0), so only u is read."""
    dm2_dtau, ups0, n1 = -flow.dm2_dt(), flow.upsilon(), flow.n - 1

    def rhs(sigma, state):
        u, tau = state[1], 0.25 * sigma * sigma
        m2 = 1.0 - dm2_dtau * -tau      # c(t) = 1 - 2(n-1) t at t = -tau
        v = ups0 / m2                   # the eigenvalue of Upsilon
        return u, -sigma * u * dm2_dtau / (2.0 * m2), m2 * u * u + tau * (v + n1 * v)
    return rhs


def shoot_l_geodesic(flow, v, sigma_bar):
    """Integrate the sigma-form geodesic ODE from the center with speed v.

    Returns an LGeodesic sampled at the solver's accepted steps; raises
    ShootingError (carrying the exit parameter) if the trajectory leaves the
    domain before sigma_bar.  x is monotone on the homogeneous models, so the
    last sample decides an exit, and the samples bracketing the cap locate it.
    """
    if sigma_bar <= 0:
        raise DomainError("sigma_bar must be positive")
    if not math.isfinite(v):
        raise DomainError("initial speed must be finite")
    flow.check_time(-0.25 * sigma_bar ** 2)

    sol = solve_ivp(_rhs(flow), (0.0, sigma_bar), (0.0, float(v), 0.0),
                    method="RK45", rtol=ODE_RTOL, atol=ODE_ATOL)
    x_cap = flow.x_max() - 1e-9
    exited = sol.y[0, -1] >= x_cap
    if exited or not sol.success:
        exit_sigma = float(np.interp(x_cap, sol.y[0], sol.t) if exited else sol.t[-1])
        raise ShootingError(f"geodesic left the domain at sigma = {exit_sigma:.6g}",
                            exit_sigma=exit_sigma)
    return LGeodesic(v=float(v), sigma_bar=float(sigma_bar), sigmas=sol.t,
                     xs=sol.y[0], us=sol.y[1], length=float(sol.y[2, -1]))


def l_length(flow, path, sigma_bar, path_dot=None):
    """Path energy of an arbitrary curve sigma -> comoving position.

    The derivative is taken by central differences unless ``path_dot`` is
    given.  Returns (value, error_estimate).
    """
    if sigma_bar <= 0:
        raise DomainError("sigma_bar must be positive")
    hd = 1e-6 * max(1.0, sigma_bar)

    def dot(s):
        if path_dot is not None:
            return path_dot(s)
        lo, hi = max(0.0, s - hd), min(sigma_bar, s + hd)
        return (path(hi) - path(lo)) / (hi - lo)

    def integrand(s):
        x = path(s)
        tau = 0.25 * s * s
        t = -tau
        rho = flow.rho_of_x(abs(x), t)
        if rho >= flow.rho_max(t):
            raise DomainError(f"path leaves the domain at sigma = {s}")
        u = dot(s)
        return flow.m2(t) * u * u + 0.25 * s * s * flow.scalar_R(t)

    return integrate_1d(integrand, 0.0, sigma_bar, epsabs=1e-12, epsrel=1e-10)


class ReducedDistanceField:
    """Reduced distance of a model flow, centered at the pole at time zero, by
    shooting: the oracle of the closed form, which `reduced_volume` integrates."""

    def __init__(self, flow):
        self.flow = flow
        self.n = flow.n

    # ------------------------------------------------------------------ #
    # shooting to a target
    # ------------------------------------------------------------------ #
    def _solve_velocity(self, x_target, tau):
        """Initial speed whose geodesic ends at x_target at tau.

        Radial minimizers of the homogeneous flows have constant momentum, so
        the endpoint is linear in the speed: from the flat speed, rescaling by
        x_target / x_end lands.  Raises ShootingError when a shot leaves the
        domain or MAX_SHOTS shots do not land.
        """
        sigma_bar = 2.0 * math.sqrt(tau)
        v = x_target / sigma_bar   # 0 at the center, where the first shot lands
        for _ in range(MAX_SHOTS):
            geod = shoot_l_geodesic(self.flow, v, sigma_bar)
            if abs(geod.x_end - x_target) <= TARGET_TOL * max(1.0, abs(x_target)):
                return v, geod
            v *= x_target / geod.x_end
        raise ShootingError(
            f"{MAX_SHOTS} shots did not reach x = {x_target} at tau = {tau}")

    def geodesic_to(self, rho, tau):
        """Minimizing geodesic from the center to geodesic radius rho at tau, shot."""
        if tau <= 0:
            raise DomainError("backward time tau must be positive")
        self.flow.check_point(rho, -tau)
        return self._solve_velocity(self.flow.x_of_rho(rho, -tau), tau)[1]

    # ------------------------------------------------------------------ #
    # reduced distance and derived quantities
    # ------------------------------------------------------------------ #
    def ell_cm(self, x, tau):
        """Reduced distance at comoving position x, by shooting."""
        if tau <= 0:
            raise DomainError("backward time tau must be positive")
        _, geod = self._solve_velocity(x, tau)
        return geod.length / (2.0 * math.sqrt(tau))

    def ell(self, rho, tau):
        self.flow.check_point(rho, -tau)
        return self.ell_cm(self.flow.x_of_rho(rho, -tau), tau)

    def length_cm(self, x, tau):
        return 2.0 * math.sqrt(tau) * self.ell_cm(x, tau)

    def reduced_volume(self, tau):
        """Spatial integral of the closed-form kernel (4 pi tau)^(-n/2)
        exp(-ell) on its slice at backward time tau."""
        sl = SubHeatKernel(self).at(tau)
        area, n = unit_sphere_area(self.n), self.n

        def f(x):
            return float(sl.value(x) * area * sl.warp(x) ** (n - 1) * sl.sm)

        hi = self.flow.x_max()
        if math.isinf(hi):
            hi = 14.0 * math.sqrt(tau)  # integrand under 1e-18 beyond this
        return integrate_1d(f, 0.0, hi, epsabs=1e-9, epsrel=1e-8)

    def first_order_residuals(self, rho, tau):
        """Residuals of the endpoint-derivative identities of the energy.

        Returns (res_space, res_time, res_eikonal): the closed form's exact
        derivatives of L = 2 sqrt(tau) ell (`ReducedSlice.ell_jet`) against
        the terminal velocity X of the shot minimizer,

            (spatial gradient of L) = 2 sqrt(tau) X,
            dL/dtau = sqrt(tau) (R - |X|^2),

        and the first-order equation -2 ell_tau - |grad ell|^2 + R - ell/tau
        with the shot's ell.
        """
        flow = self.flow
        x = flow.x_of_rho(rho, -tau)
        if x <= 0:
            raise DomainError("residuals need a point off the center")
        geod = self.geodesic_to(rho, tau)
        ell, ell_x, _, ell_tau = SubHeatKernel(self).at(tau).ell_jet(x)
        m2, rt, R = flow.m2(-tau), math.sqrt(tau), flow.scalar_R(-tau)
        sm = math.sqrt(m2)
        res_space = abs(2.0 * rt * ell_x / sm - 2.0 * sm * geod.u_end)  # = 2 sqrt(tau) |X|
        X2 = m2 * geod.u_end ** 2 / tau
        res_time = abs(ell / rt + 2.0 * rt * ell_tau - rt * (R - X2))
        res_eik = abs(-2.0 * ell_tau - ell_x ** 2 / m2 + R - geod.length / (2.0 * rt * tau))
        return res_space, res_time, res_eik

    def k_curvature_integral(self, rho, tau_bar):
        """Weighted curvature integral along the minimizer to (rho, tau_bar).

        Integrates tau^(3/2) H(X) with
        H(X) = -dR/dtau - R/tau - 2 <X, grad R> + 2 Ric(X, X) along the
        closed-form minimizer, X its tau-velocity: its momentum
        p = m^2 dx/dsigma is constant and x(sigma) = p A(sigma) lands at
        xbar, so p = xbar ell2 sigmabar and |X|^2 = p^2 / (m^2 tau).
        Returns (value, error) of the tanh-sinh rule on the nodes' array.
        """
        flow, ell2 = self.flow, SubHeatKernel(self).at(tau_bar).ell2
        flow.check_point(rho, -tau_bar)
        p = float(flow.x_of_rho(rho, -tau_bar) * ell2 * 2.0 * math.sqrt(tau_bar))

        def integrand(tau):  # -dR/dtau = dR/dt; <X, grad R> = 0 as R depends on time alone
            t = -tau
            X2 = p * p / (flow.m2(t) * tau)
            return tau ** 1.5 * (flow.dR_dt(t) - flow.scalar_R(t) / tau + 2.0 * flow.ricci(t) * X2)

        return integrate_de(integrand, 0.0, tau_bar, atol=1e-14, rtol=1e-13)
