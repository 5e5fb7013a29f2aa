"""Parabolic mean value identities over heat-ball regions and the monotone
quantities of the Ricci-flow and mean-curvature-flow comparison kernels.

Each mean value identity is a monotone quantity plus a correction term.
Sphere form (exact kernels on static models, R = 0 cases of the evolving
statement): the center value of a smooth v(y, t) is

    v(x0, 0) = J_v(r) + int_{E_r} (H - r^(-n)) (d/dt - Delta) v dmu dt,
    J_v(r)   = int_{dE_r} v |grad H|^2 / sqrt(|grad H|^2 + H_t^2) dA~
             + (1/r^n) int_{E_r} R v dmu dt,

with dA~ the space-time area element.  Integrating in the level parameter
gives the ball form

    v(x0, 0) = I_v(r) + (n/r^n) int_0^r eta^(n-1)
                        [ int_{E_eta} (H - eta^(-n)) (d/dt - Delta) v ] deta,
    I_v(r)   = (1/r^n) int_{E_r} (|grad log H|^2 + R log(H r^n)) v dmu dt.

A point of E_r lies in E_eta exactly when eta > H^(-1/n), so by Fubini the
iterated correction is the single integral

    (1/r^n) int_{E_r} (e^psi - 1 - psi) (d/dt - Delta) v,   psi = log(H r^n).

`_j_term` and `_i_term` evaluate J_v and I_v over a region built once by
the caller; `_heat_op_ball_term` integrates a weight of the kernel against
(d/dt - Delta) v over it, for the sphere form's correction.  The ball form
sums its correction into the I_v integrand (`_i_density`): one pass.  Volume
integrands map a matrix of radii, one row per time slice, to numpy arrays.

The monotone surface quantity for a kernel K (Li-Yau numerator) is

    Jhat(r) = int_{dE_r} (|grad K|^2 - K K_tau) / sqrt(|grad K|^2 + K_tau^2) dA~,

and the companion volume average over an annulus of heat balls is

    Ihat(a, r) = (r^n - a^n)^(-1) int_{E_r \\ E_a}
                 ( |grad log K|^2 - (log K)_tau ) dmu dtau.

For the reduced-distance kernel these are non-increasing in r (and Ihat in
a); on the flat model both equal 1.  For the ambient Gaussian on a
mean-curvature-flow track the analogous quantities are non-decreasing and,
on the homothetic shrinking sphere, constant and equal to the Gaussian
density of the track.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import make_field
from .kernels import McfShrinkingSphereTrack, SubHeatKernel, liyau_expression
from .quad import integrate_1d
from .regions import ball_integrate, heatball_profile, sphere_integrate
from .sweeps import SweepReport

# quadrature settings per kernel backing: closed forms can be driven hard,
# shot kernels carry finite-difference bias around 1e-6 relative
_EPS_EXACT = {"epsabs": 1e-10, "epsrel": 1e-9}
_EPS_SHOT = {"epsabs": 1e-7, "epsrel": 1e-7}


def _eps(kernel):
    return _EPS_SHOT if isinstance(kernel, SubHeatKernel) else _EPS_EXACT


def surface_weight_term(kernel, field, region):
    """int over dE_r of v |grad K|^2 / sqrt(|grad K|^2 + K_tau^2) dA~."""
    def f(s):
        return (field.mean_value_np(s.rho, -s.tau) * s.grad ** 2
                / np.hypot(s.grad, s.dtau))

    return sphere_integrate(region, f, **_eps(kernel))


def _heat_op_ball_term(kernel, field, region, weight):
    """int over E_r of weight(K) * (d/dt - Delta)v dmu dt."""
    if "caloric" in field.tags:
        return 0.0, 0.0

    def f(sl):
        value, rho, t = sl.value, sl.rho, sl.t
        return lambda x: weight(value(x)) * field.mean_heat_op_np(rho(x), t)

    return ball_integrate(region, f, **_eps(kernel))


def _scalar_R_ball_term(kernel, field, region):
    """int over E_r of R v dmu dt; zero on static models."""
    geom = kernel.geom
    if geom.is_static:
        return 0.0, 0.0

    def f(sl):
        rho, t = sl.rho, sl.t

        def g(x):
            r = rho(x)
            return geom.scalar_R(r, t) * field.mean_value_np(r, t)
        return g

    return ball_integrate(region, f, **_eps(kernel))


def _j_term(kernel, field, region):
    """J_v over the region: surface weight plus (1/r^n) int R v."""
    scale = region.r ** kernel.n
    surf, e1 = surface_weight_term(kernel, field, region)
    rv, e2 = _scalar_R_ball_term(kernel, field, region)
    return surf + rv / scale, e1 + e2 / scale


def _i_density(kernel, field, region, correction=False):
    """Integrand of r^n I_v, (|grad log K|^2 + R log(K r^n)) v; with
    ``correction`` plus the Fubini-collapsed heat-ball correction
    (e^psi - 1 - psi) (d/dt - Delta) v, where e^psi = K r^n."""
    geom = kernel.geom
    scale = region.r ** kernel.n
    logr_n = kernel.n * math.log(region.r)
    static = geom.is_static

    def f(sl):
        def g(x):
            rho, val = sl.rho(x), sl.value(x)
            out = (sl.grad(x, val) / val) ** 2
            if not static:
                out = out + geom.scalar_R(rho, sl.t) * (np.log(val) + logr_n)
            out = out * field.mean_value_np(rho, sl.t)
            if correction:  # e^psi - 1 - psi with e^psi = q = K r^n
                q = val * scale
                out = out + (q - 1.0 - np.log(q)) * field.mean_heat_op_np(rho, sl.t)
            return out
        return g

    return f


def _i_term(kernel, field, region):
    """I_v over the region: (1/r^n) int (|grad log K|^2 + R log(K r^n)) v."""
    scale = region.r ** kernel.n
    val, err = ball_integrate(region, _i_density(kernel, field, region), **_eps(kernel))
    return val / scale, err / scale


def mv_heat_sphere(kernel, field, r):
    """Heat-sphere mean value theorem; returns (lhs, rhs, residual)."""
    region = heatball_profile(kernel, r)
    lhs = field.center_value(0.0)
    jv, _ = _j_term(kernel, field, region)
    level = region.level
    corr, _ = _heat_op_ball_term(kernel, field, region, lambda k: k - level)
    rhs = jv + corr
    return lhs, rhs, abs(lhs - rhs)


def mv_heat_ball(kernel, field, r):
    """Heat-ball mean value theorem; returns (lhs, rhs, residual)."""
    region = heatball_profile(kernel, r)
    lhs = field.center_value(0.0)
    # I_v and its correction in one pass over the region
    density = _i_density(kernel, field, region, "caloric" not in field.tags)
    rhs = ball_integrate(region, density, **_eps(kernel))[0] / r ** kernel.n
    return lhs, rhs, abs(lhs - rhs)


def jhat_quantity(kernel, r):
    """Surface-only form of the monotone J quantity (v = 1)."""
    region = heatball_profile(kernel, r)

    def f(s):
        return (s.grad ** 2 - s.value * s.dtau) / np.hypot(s.grad, s.dtau)

    return sphere_integrate(region, f, **_eps(kernel))


def liyau_ball_integral(kernel, r):
    """int over E_r of the Li-Yau expression of the kernel."""
    region = heatball_profile(kernel, r)
    return ball_integrate(region, lambda sl: sl.liyau, **_eps(kernel))


def ihat_quantity(kernel, a, r, _cache=None):
    """Annulus average of the Li-Yau expression; a = 0 gives the ball form."""
    if not 0.0 <= a < r:
        raise ValueError("need 0 <= a < r")
    n = kernel.n

    def V(radius):
        if _cache is not None and radius in _cache:
            return _cache[radius]
        out = liyau_ball_integral(kernel, radius)
        if _cache is not None:
            _cache[radius] = out
        return out

    vr, er = V(r)
    va, ea = V(a) if a > 0.0 else (0.0, 0.0)
    scale = r ** n - a ** n
    return (vr - va) / scale, (er + ea) / scale


def sphere_ball_chain_residual(kernel, r):
    """Relative residual of r^n Ihat(0, r) = n int_0^r eta^(n-1) Jhat deta.

    The right side uses a fixed 10-point Gauss rule.
    """
    n = kernel.n
    lhs = r ** n * ihat_quantity(kernel, 0.0, r)[0]
    xs, ws = np.polynomial.legendre.leggauss(10)
    nodes = 0.5 * r * (xs + 1.0)
    weights = 0.5 * r * ws
    rhs = n * sum(w * eta ** (n - 1) * jhat_quantity(kernel, eta)[0]
                  for eta, w in zip(nodes, weights))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)


def jhat_sweep(kernel, r_grid, a_fracs=(0.0, 0.5), tol=1e-6):
    """Sweep Jhat and Ihat over the radius grid for a sub-heat kernel.

    Returns a dict with SweepReports "jhat" and "ihat0" (both declared
    non-increasing) and a list "pairs" of (a, r, ihat, ihat_err) for the
    ordering check Jhat(r) <= Ihat(a, r).
    """
    cache = {}
    jvals, jerrs = [], []
    for r in r_grid:
        v, e = jhat_quantity(kernel, r)
        jvals.append(v)
        jerrs.append(e)

    ivals, ierrs, pairs = [], [], []
    for r in r_grid:
        for frac in a_fracs:
            a = frac * r
            iv, ie = ihat_quantity(kernel, a, r, _cache=cache)
            if frac == 0.0:
                ivals.append(iv)
                ierrs.append(ie)
            pairs.append((a, r, iv, ie))

    # the finite-difference bias of shot kernels sets the monotonicity slack
    slack = tol if not isinstance(kernel, SubHeatKernel) else max(tol, 3e-6)
    return {
        "jhat": SweepReport(name="jhat", grid=list(r_grid), values=jvals,
                            errors=jerrs, direction="non-increasing",
                            tol=slack),
        "ihat0": SweepReport(name="ihat(0,r)", grid=list(r_grid),
                             values=ivals, errors=ierrs,
                             direction="non-increasing", tol=slack),
        "pairs": pairs,
    }


def forward_j_sweep(kernel, field, r_grid, tol=1e-6):
    """Surface-only J sweep for solutions of the backward heat equation.

    Declared non-increasing when the field is a supersolution of the forward
    conjugate heat equation (on static models: (d/dt - Delta) v >= 0).
    """
    direction = "non-increasing" if (
        "supercaloric" in field.tags or "caloric" in field.tags) else "none"
    vals, errs = [], []
    for r in r_grid:
        region = heatball_profile(kernel, r)
        v, e = surface_weight_term(kernel, field, region)
        vals.append(v)
        errs.append(e)
    return SweepReport(name=f"Jf[{field.name}]", grid=list(r_grid),
                       values=vals, errors=errs, direction=direction, tol=tol)


def surface_form_residual(kernel, r):
    """Residuals between original and rewritten monotone quantities (v = 1).

    Returns (j_residual, i_residual): the J comparison checks the pure
    surface rewrite against surface weight + volume curvature term; the I
    comparison checks the Li-Yau integrand against
    |grad log K|^2 + R log(K r^n).
    """
    one = make_field("constant-1", kernel.geom)
    region = heatball_profile(kernel, r)
    j_orig, _ = _j_term(kernel, one, region)
    j_new, _ = jhat_quantity(kernel, r)
    i_orig, _ = _i_term(kernel, one, region)
    i_new = liyau_ball_integral(kernel, r)[0] / r ** kernel.n
    return abs(j_orig - j_new), abs(i_orig - i_new)


def truncation_convergence(kernel, field, r, s_values):
    """Cap integrals of v (K - level) at slices tau = s; tends to v(x0, 0)."""
    from .regions import cap_integral
    region = heatball_profile(kernel, r)
    return [cap_integral(region, field.mean_value_np, s) for s in s_values]


# --------------------------------------------------------------------------- #
# soliton identities and Li-Yau decompositions
# --------------------------------------------------------------------------- #
@dataclass
class SolitonCheck:
    """Residual fields of the shrinking-soliton identities at sample points."""

    flow: object
    samples: list                      # (rho, tau) pairs
    conjugate_heat: list = dc_field(default_factory=list)
    first_order: list = dc_field(default_factory=list)
    entropy_v: list = dc_field(default_factory=list)
    soliton_tensor: list = dc_field(default_factory=list)

    @property
    def max_abs_conjugate_heat(self):
        return max(abs(v) for v in self.conjugate_heat)

    @property
    def min_conjugate_heat(self):
        return min(self.conjugate_heat)

    @property
    def max_abs_first_order(self):
        return max(abs(v) for v in self.first_order)

    @property
    def max_abs_entropy(self):
        return max(abs(v) for v in self.entropy_v)

    @property
    def max_abs_soliton_tensor(self):
        return max(abs(v) for v in self.soliton_tensor)


def soliton_residuals(rd_field, samples):
    """Evaluate the soliton identity residuals at (rho, tau) samples.

    conjugate_heat is ell_tau - Lap(ell) + |grad ell|^2 - R + n/(2 tau): zero on
    the flat model, nonnegative in general (the kernel is a subsolution of
    the conjugate heat equation).  first_order is the first-order identity
    -2 ell_tau - |grad ell|^2 + R - ell/tau, zero along minimizers.
    entropy_v is the pointwise entropy integrand
    (tau (2 Lap ell - |grad ell|^2 + R) + ell - n) K, zero on shrinkers.
    soliton_tensor is the largest frame component of
    Ric + Hess(ell) - g/(2 tau).
    """
    flow = rd_field.flow
    n = flow.n
    check = SolitonCheck(flow=flow, samples=list(samples))
    for rho, tau in samples:
        t = -tau
        x = flow.x_of_rho(rho, t)
        m2 = flow.m2(x, t)
        hx = 1e-3 * max(1.0, x)
        if x < 2.0 * hx:
            raise ValueError("samples must sit away from the center")
        lp = rd_field.ell_cm(x + hx, tau)
        lm = rd_field.ell_cm(x - hx, tau)
        l0 = rd_field.ell_cm(x, tau)
        ell_x = (lp - lm) / (2.0 * hx)
        ell_xx = (lp - 2.0 * l0 + lm) / (hx * hx)
        ht = 1e-4 * tau
        ell_tau = (rd_field.ell_cm(x, tau + ht)
                   - rd_field.ell_cm(x, tau - ht)) / (2.0 * ht)

        w = flow.warp_cm(x, t)
        wx = flow.dwarp_cm_dx(x, t)
        grad2 = ell_x ** 2 / m2
        hess_rad = ell_xx / m2
        hess_tan = wx / (w * m2) * ell_x
        lap = hess_rad + (n - 1) * hess_tan
        R = flow.scalar_R(rho, t)
        ric_rad, ric_tan = flow.ricci_eigenvalues(rho, t)
        if flow.is_static:
            ric_rad = ric_tan = 0.0  # deformation tensor, not metric Ricci

        check.conjugate_heat.append(ell_tau - lap + grad2 - R + n / (2.0 * tau))
        check.first_order.append(-2.0 * ell_tau - grad2 + R - l0 / tau)
        khat = (4.0 * math.pi * tau) ** (-n / 2.0) * math.exp(-l0)
        check.entropy_v.append(
            (tau * (2.0 * lap - grad2 + R) + l0 - n) * khat)
        half = 1.0 / (2.0 * tau)
        check.soliton_tensor.append(max(
            abs(ric_rad + hess_rad - half), abs(ric_tan + hess_tan - half)))
    return check


def ly_ricci_residual(rd_field, rho, tau):
    """Two-path residual of the Li-Yau decomposition on a Ricci flow.

    The left side evaluates the Li-Yau expression of the reduced-distance
    kernel by finite differences; the right side is
    n/(2 tau) - K_curv/(2 tau^(3/2)) with the curvature integral taken by
    quadrature along the minimizing geodesic.
    """
    lhs = liyau_expression(SubHeatKernel(rd_field), rho, tau)
    kval, _ = rd_field.k_curvature_integral(rho, tau)
    rhs = rd_field.n / (2.0 * tau) - kval / (2.0 * tau ** 1.5)
    return abs(lhs - rhs), lhs, rhs


def ly_mcf_residual(track, tau):
    """Residual of the Li-Yau decomposition on the shrinking-sphere track.

    All terms are closed-form: the tangential gradient vanishes, the
    material time derivative gives the left side, and the right side
    combines the mean curvature with the normal part of grad log K.
    """
    lhs = (track.grad_tangential(tau) ** 2
           - track.dtau_material(tau) / track.value(tau))
    s = track.slice_radius(tau)
    normal_grad = s / (2.0 * tau)            # |(grad log K)^perp|
    mean_curv = track.n / s                   # |H|, pointing with the normal
    rhs = (track.n / (2.0 * tau) + mean_curv * normal_grad - normal_grad ** 2)
    return abs(lhs - rhs), lhs, rhs


# --------------------------------------------------------------------------- #
# mean curvature flow: shrinking-sphere track quantities
# --------------------------------------------------------------------------- #
def gaussian_density(n, tau=1.0):
    """Gaussian density of the shrinking-sphere track (tau-independent)."""
    track = McfShrinkingSphereTrack(n)
    return track.value(tau) * track.slice_area(tau)


def jbar_quantity(track, r):
    """Surface form of the track's J quantity at level parameter r.

    The ambient Gaussian is constant on every slice, so the level boundary
    is the whole slice at the top time and the surface integrand reduces to
    the kernel value.
    """
    tau_m = track.tau_max(r)
    dtau = track.dtau_material(tau_m)
    grad = track.grad_tangential(tau_m)
    integrand = (grad ** 2 - track.value(tau_m) * dtau) / math.hypot(grad, dtau)
    return integrand * track.slice_area(tau_m), 0.0


def ibar_quantity(track, a, r):
    """Annulus average of the Li-Yau expression over the track heat balls."""
    if not 0.0 <= a < r:
        raise ValueError("need 0 <= a < r")
    n = track.n
    tau_a = track.tau_max(a) if a > 0.0 else 0.0
    tau_r = track.tau_max(r)

    def f(tau):
        # on the homothetic track the Li-Yau expression is exactly n/(2 tau):
        # the tangential gradient vanishes and log K varies as -(n/2) log tau
        return n / (2.0 * tau) * track.slice_area(tau)

    val, err = integrate_1d(f, tau_a, tau_r, epsabs=1e-12, epsrel=1e-10)
    scale = r ** n - a ** n
    return val / scale, err / scale


def mcf_sweep(n, r_grid, tol=1e-6):
    """Sweep Jbar and Ibar on the shrinking-sphere track (non-decreasing)."""
    track = McfShrinkingSphereTrack(n)
    jvals, jerrs, ivals, ierrs, pairs = [], [], [], [], []
    for r in r_grid:
        jv, je = jbar_quantity(track, r)
        jvals.append(jv)
        jerrs.append(je)
        for frac in (0.0, 0.5):
            a = frac * r
            iv, ie = ibar_quantity(track, a, r)
            if frac == 0.0:
                ivals.append(iv)
                ierrs.append(ie)
            pairs.append((a, r, iv, ie))
    return {
        "jbar": SweepReport(name="jbar", grid=list(r_grid), values=jvals,
                            errors=jerrs, direction="non-decreasing", tol=tol),
        "ibar0": SweepReport(name="ibar(0,r)", grid=list(r_grid),
                             values=ivals, errors=ierrs,
                             direction="non-decreasing", tol=tol),
        "pairs": pairs,
        "density": gaussian_density(n),
    }
