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
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import CutLocusWarning, DomainError, ShootingError
from .geometry import unit_sphere_area
from .quad import integrate_1d

ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
TARGET_TOL = 1e-12
V_MAX = 10.0          # largest initial speed of the bracketed fallback
MULTI_STARTS = 8      # geometric speeds in (0, V_MAX] it brackets between


def _qkey(v):
    """Relative quantization (~1e-12) of a float for memo keys."""
    m, e = math.frexp(v)
    return int(m * (1 << 40)), e


@dataclass
class LGeodesic:
    """A radially shot geodesic of the weighted path energy."""

    v: float                # initial dgamma/dsigma at sigma = 0
    sigma_bar: float
    sigmas: np.ndarray      # strictly increasing sample grid from 0 to sigma_bar
    xs: np.ndarray          # comoving positions at the samples
    us: np.ndarray          # dgamma/dsigma at the samples
    length: float           # accumulated path energy
    tau_bar: float
    sol: object = None      # dense-output solution, states (x, u, L)

    @property
    def x_end(self):
        return float(self.xs[-1])

    @property
    def u_end(self):
        return float(self.us[-1])

    def rho_end(self, flow):
        return flow.rho_of_x(self.x_end, -self.tau_bar)


def _rhs(flow, sigma, state):
    x, u = state[0], state[1]
    tau = 0.25 * sigma * sigma
    t = -tau
    m2 = flow.m2(x, t)
    dm2_dtau = -flow.dm2_dt(x, t)
    rho = flow.rho_of_x(abs(x), t)
    R = flow.scalar_R(rho, t)
    # all realized models are homogeneous in x: d_x(m^2) = d_x R = 0
    du = -sigma * u * dm2_dtau / (2.0 * m2)
    dL = m2 * u * u + 0.25 * sigma * sigma * R
    return (u, du, dL)


def shoot_l_geodesic(flow, v, sigma_bar, dense=False):
    """Integrate the sigma-form geodesic ODE from the center with speed v.

    Returns an LGeodesic sampled at the solver's accepted steps; raises
    ShootingError (carrying the exit parameter) if the trajectory leaves the
    domain before sigma_bar.
    """
    if sigma_bar <= 0:
        raise DomainError("sigma_bar must be positive")
    if not math.isfinite(v):
        raise DomainError("initial speed must be finite")
    flow.check_time(-0.25 * sigma_bar ** 2)

    x_cap = flow.x_max(0.0)
    events = None
    if math.isfinite(x_cap):
        def exit_event(sigma, state):
            return state[0] - (x_cap - 1e-9)
        exit_event.terminal = True
        exit_event.direction = 1.0
        events = exit_event

    sol = solve_ivp(lambda s, y: _rhs(flow, s, y), (0.0, sigma_bar),
                    (0.0, float(v), 0.0), method="RK45",
                    rtol=ODE_RTOL, atol=ODE_ATOL, dense_output=dense,
                    events=events)
    if not sol.success or sol.t[-1] < sigma_bar * (1.0 - 1e-12):
        exit_sigma = sol.t_events[0][0] if events and len(sol.t_events[0]) else sol.t[-1]
        raise ShootingError(
            f"geodesic left the domain at sigma = {exit_sigma:.6g}",
            exit_sigma=float(exit_sigma))
    return LGeodesic(v=float(v), sigma_bar=float(sigma_bar), sigmas=sol.t,
                     xs=sol.y[0], us=sol.y[1], length=float(sol.y[2, -1]),
                     tau_bar=0.25 * sigma_bar ** 2,
                     sol=sol.sol if dense else None)


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
        return flow.m2(x, t) * u * u + 0.25 * s * s * flow.scalar_R(rho, t)

    return integrate_1d(integrand, 0.0, sigma_bar, epsabs=1e-12, epsrel=1e-10)


class ReducedDistanceField:
    """Reduced distance of a model flow, centered at the pole at time zero.

    Values come from shooting; a quantized (x, tau) memo caches results so
    kernel quadratures that revisit nearby points stay affordable.  The memo
    is read-mostly: concurrent readers are safe and inserts are atomic
    (a plain dict assignment).
    """

    def __init__(self, flow):
        self.flow = flow
        self.n = flow.n
        self._memo = {}
        self._slope = {}  # sigma_bar -> d(x_end)/dv, secant warm starts

    # ------------------------------------------------------------------ #
    # shooting to a target
    # ------------------------------------------------------------------ #
    def _solve_velocity(self, x_target, tau):
        """Initial speed whose geodesic ends at x_target at backward time tau.

        Proportional secant iteration; the endpoint map of the realized
        homogeneous flows is linear in the speed, so a cached slope per
        sigma_bar makes the first guess land within root tolerance.
        """
        sigma_bar = 2.0 * math.sqrt(tau)
        if x_target == 0.0:
            return 0.0, shoot_l_geodesic(self.flow, 0.0, sigma_bar)

        skey = _qkey(sigma_bar)
        slope = self._slope.get(skey)
        v = x_target / slope if slope else x_target / sigma_bar
        for _ in range(60):
            try:
                geod = shoot_l_geodesic(self.flow, v, sigma_bar)
            except ShootingError:
                v *= 0.5
                continue
            if geod.x_end > 0.0:
                self._slope[skey] = geod.x_end / v
            err = geod.x_end - x_target
            if abs(err) <= TARGET_TOL * max(1.0, abs(x_target)):
                return v, geod
            if geod.x_end <= 0.0:
                break
            v *= x_target / geod.x_end
        return self._solve_velocity_bracketed(x_target, tau)

    def _solve_velocity_bracketed(self, x_target, tau):
        """Multi-start bracketing fallback over geometric speeds."""
        sigma_bar = 2.0 * math.sqrt(tau)

        def endpoint(v):
            try:
                return shoot_l_geodesic(self.flow, v, sigma_bar).x_end
            except ShootingError:
                return math.inf

        speeds = np.concatenate(
            ([0.0], np.geomspace(1e-3, V_MAX, MULTI_STARTS)))
        ends = [endpoint(v) - x_target for v in speeds]
        roots = []
        for a, b, fa, fb in zip(speeds[:-1], speeds[1:], ends[:-1], ends[1:]):
            if not (math.isfinite(fa) and math.isfinite(fb)) or fa * fb > 0:
                continue
            vr = brentq(lambda v: endpoint(v) - x_target, a, b,
                        xtol=1e-14, rtol=1e-14)
            roots.append(vr)
        if not roots:
            raise ShootingError(
                f"no initial speed in [0, {V_MAX}] reaches x = {x_target}")
        geods = [shoot_l_geodesic(self.flow, v, sigma_bar) for v in roots]
        lengths = sorted(g.length for g in geods)
        if len(lengths) > 1 and lengths[1] - lengths[0] > 1e-6:
            warnings.warn(
                "distinct shooting minima differ; target may be past the cut locus",
                CutLocusWarning)
        best = min(geods, key=lambda g: g.length)
        return best.v, best

    def geodesic_to(self, rho, tau, dense=False):
        """Minimizing geodesic from the center to geodesic radius rho at tau."""
        if tau <= 0:
            raise DomainError("backward time tau must be positive")
        self.flow.check_point(rho, -tau)
        x_target = self.flow.x_of_rho(rho, -tau)
        v, _ = self._solve_velocity(x_target, tau)
        return shoot_l_geodesic(self.flow, v, 2.0 * math.sqrt(tau), dense=dense)

    # ------------------------------------------------------------------ #
    # reduced distance and derived quantities
    # ------------------------------------------------------------------ #
    def ell_cm(self, x, tau):
        """Reduced distance at comoving position x (memoized)."""
        if tau <= 0:
            raise DomainError("backward time tau must be positive")
        key = (_qkey(x), _qkey(tau)) if x != 0.0 else (0, _qkey(tau))
        hit = self._memo.get(key)
        if hit is not None:
            return hit[0]
        v, geod = self._solve_velocity(x, tau)
        ell = geod.length / (2.0 * math.sqrt(tau))
        self._memo[key] = (ell, v)
        return ell

    def ell(self, rho, tau):
        self.flow.check_point(rho, -tau)
        return self.ell_cm(self.flow.x_of_rho(rho, -tau), tau)

    def length_cm(self, x, tau):
        return 2.0 * math.sqrt(tau) * self.ell_cm(x, tau)

    def reduced_volume(self, tau, epsabs=1e-9):
        """Spatial integral of (4 pi tau)^(-n/2) exp(-ell) at backward time tau."""
        if tau <= 0:
            raise DomainError("backward time tau must be positive")
        flow, n, t = self.flow, self.n, -tau
        area = unit_sphere_area(n)
        pref = (4.0 * math.pi * tau) ** (-n / 2.0)

        def f(x):
            w = flow.warp_cm(x, t)
            return (pref * math.exp(-self.ell_cm(x, tau))
                    * area * w ** (n - 1) * math.sqrt(flow.m2(x, t)))

        hi = flow.x_max(t)
        if math.isinf(hi):
            hi = 14.0 * math.sqrt(tau)  # integrand under 1e-18 beyond this
        return integrate_1d(f, 0.0, hi, epsabs=epsabs, epsrel=1e-8)

    def first_order_residuals(self, rho, tau, h=1e-4):
        """Residuals of the endpoint-derivative identities of the energy.

        Returns (res_space, res_time, res_eikonal) where the first two compare
        finite differences of L = 2 sqrt(tau) ell against the terminal
        velocity formulas

            (spatial gradient of L) = 2 sqrt(tau) X,
            dL/dtau = sqrt(tau) (R - |X|^2),

        and the third is the first-order equation
        -2 ell_tau - |grad ell|^2 + R - ell/tau evaluated by the same
        differences.
        """
        flow = self.flow
        x = flow.x_of_rho(rho, -tau)
        if x <= 0:
            raise DomainError("residuals need a point off the center")
        geod = self.geodesic_to(rho, tau)
        m2 = flow.m2(x, -tau)
        sm = math.sqrt(m2)

        hx = h * max(1.0, x)
        dL_dx = (self.length_cm(x + hx, tau)
                 - self.length_cm(x - hx, tau)) / (2.0 * hx)
        grad_L = dL_dx / sm
        rhs_space = 2.0 * sm * geod.u_end          # = 2 sqrt(tau) |X|
        res_space = abs(grad_L - rhs_space)

        ht = h * tau
        dL_dtau = (self.length_cm(x, tau + ht)
                   - self.length_cm(x, tau - ht)) / (2.0 * ht)
        X2 = m2 * geod.u_end ** 2 / tau
        R = flow.scalar_R(rho, -tau)
        res_time = abs(dL_dtau - math.sqrt(tau) * (R - X2))

        ell0 = self.ell_cm(x, tau)
        dell_dx = (self.ell_cm(x + hx, tau) - self.ell_cm(x - hx, tau)) / (2.0 * hx)
        ht2 = 1e-4 * tau
        dell_dtau = (self.ell_cm(x, tau + ht2)
                     - self.ell_cm(x, tau - ht2)) / (2.0 * ht2)
        grad_ell2 = (dell_dx / sm) ** 2
        res_eik = abs(-2.0 * dell_dtau - grad_ell2 + R - ell0 / tau)
        return res_space, res_time, res_eik

    def k_curvature_integral(self, rho, tau_bar):
        """Weighted curvature integral along the minimizer to (rho, tau_bar).

        Integrates tau^(3/2) H(X) with
        H(X) = -dR/dtau - R/tau - 2 <X, grad R> + 2 Ric(X, X) along the
        minimizing geodesic, X its tau-velocity.  Returns (value, error).
        """
        flow = self.flow
        geod = self.geodesic_to(rho, tau_bar, dense=True)

        def integrand(tau):
            sigma = 2.0 * math.sqrt(tau)
            x, u = geod.sol(sigma)[0], geod.sol(sigma)[1]
            t = -tau
            r = flow.rho_of_x(abs(x), t)
            R = flow.scalar_R(r, t)
            dR_dtau = -flow.dR_dt(r, t)
            ric_rad, _ = flow.ricci_eigenvalues(r, t)
            X2 = flow.m2(x, t) * u * u / tau
            H = -dR_dtau - R / tau + 2.0 * ric_rad * X2
            return tau ** 1.5 * H

        return integrate_1d(integrand, 0.0, tau_bar, epsabs=1e-11, epsrel=1e-9)
