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
the caller; `_heat_op_ball_term` integrates H - r^(-n) against
(d/dt - Delta) v over it, the sphere form's correction.  The ball form
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
from .quad import integrate_1d  # noqa: F401  (perfbench/tracer.py QUAD_CONSUMERS patches it)
from .regions import ball_integrate, cap_integral, heatball_profile, sphere_integrate
from .sweeps import sweep

# quadrature settings of every region integral: all kernels are closed forms
_EPS = {"epsabs": 1e-10, "epsrel": 1e-9}


def surface_weight_term(field, region):
    """int over dE_r of v |grad K|^2 / sqrt(|grad K|^2 + K_tau^2) dA~."""
    def f(s):
        return (field.mean_value_np(s.rho, -s.tau) * s.grad ** 2
                / np.hypot(s.grad, s.dtau))

    return sphere_integrate(region, f, **_EPS)


def _heat_op_ball_term(field, region):
    """int over E_r of (K - r^(-n)) (d/dt - Delta)v dmu dt."""
    if "caloric" in field.tags:
        return 0.0, 0.0
    level = region.level

    def f(sl):
        value, rho, t = sl.value, sl.rho, sl.t
        return lambda x: (value(x) - level) * field.mean_heat_op(rho(x), t)

    return ball_integrate(region, f, **_EPS)


def _scalar_R_ball_term(field, region):
    """int over E_r of R v dmu dt; zero on static models."""
    geom = region.kernel.geom
    if geom.is_static:
        return 0.0, 0.0

    def f(sl):
        rho, t = sl.rho, sl.t
        return lambda x: geom.scalar_R(t) * field.mean_value_np(rho(x), t)

    return ball_integrate(region, f, **_EPS)


def _j_term(field, region):
    """J_v over the region: surface weight plus (1/r^n) int R v."""
    scale = region.r ** region.kernel.n
    surf, e1 = surface_weight_term(field, region)
    rv, e2 = _scalar_R_ball_term(field, region)
    return surf + rv / scale, e1 + e2 / scale


def _i_density(field, region, correction=False):
    """Integrand of r^n I_v, (|grad log K|^2 + R log(K r^n)) v; with
    ``correction`` plus the Fubini-collapsed heat-ball correction
    (e^psi - 1 - psi) (d/dt - Delta) v, where e^psi = K r^n."""
    kernel = region.kernel
    geom = kernel.geom
    scale = region.r ** kernel.n
    logr_n = kernel.n * math.log(region.r)
    static = geom.is_static

    def f(sl):
        def g(x):
            rho, val = sl.rho(x), sl.value(x)
            out = (sl.grad(x, val) / val) ** 2
            if not static:
                out = out + geom.scalar_R(sl.t) * (np.log(val) + logr_n)
            out = out * field.mean_value_np(rho, sl.t)
            if correction:  # e^psi - 1 - psi with e^psi = q = K r^n
                q = val * scale
                out = out + (q - 1.0 - np.log(q)) * field.mean_heat_op(rho, sl.t)
            return out
        return g

    return f


def _i_term(field, region):
    """I_v over the region: (1/r^n) int (|grad log K|^2 + R log(K r^n)) v."""
    scale = region.r ** region.kernel.n
    val, err = ball_integrate(region, _i_density(field, region), **_EPS)
    return val / scale, err / scale


def mv_heat_sphere(kernel, field, r):
    """Heat-sphere mean value theorem; returns (lhs, rhs, residual)."""
    region = heatball_profile(kernel, r)
    lhs = field.center_value(0.0)
    jv, _ = _j_term(field, region)
    corr, _ = _heat_op_ball_term(field, region)
    rhs = jv + corr
    return lhs, rhs, abs(lhs - rhs)


def mv_heat_ball(kernel, field, r):
    """Heat-ball mean value theorem; returns (lhs, rhs, residual)."""
    region = heatball_profile(kernel, r)
    lhs = field.center_value(0.0)
    # I_v and its correction in one pass over the region
    density = _i_density(field, region, "caloric" not in field.tags)
    rhs = ball_integrate(region, density, **_EPS)[0] / r ** kernel.n
    return lhs, rhs, abs(lhs - rhs)


def jhat_quantity(kernel, r):
    """Surface-only form of the monotone J quantity (v = 1)."""
    region = heatball_profile(kernel, r)

    def f(s):
        return (s.grad ** 2 - s.value * s.dtau) / np.hypot(s.grad, s.dtau)

    return sphere_integrate(region, f, **_EPS)


def liyau_ball_integral(kernel, r):
    """int over E_r of the Li-Yau expression of the kernel."""
    region = heatball_profile(kernel, r)
    return ball_integrate(region, lambda sl: sl.liyau, **_EPS)


def ihat_quantity(kernel, a, r, _cache=None):
    """Annulus average of the Li-Yau expression; a = 0 gives the ball form."""
    if not 0.0 <= a < r:
        raise ValueError("need 0 <= a < r")
    n = kernel.n

    cache = {} if _cache is None else _cache

    def V(radius):
        if radius not in cache:
            cache[radius] = liyau_ball_integral(kernel, radius)
        return cache[radius]

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


def _liyau_sweep(name, j, i, r_grid, direction, tol):
    """Sweeps of J(r) = ``j(r)`` and of I(0, r), I(a, r) = ``i(a, r)``, both
    declared ``direction``, keyed ``name`` ("jhat" or "jbar") and its "i"
    twin plus "0" ("ihat0", "ibar0"); "pairs" lists (a, r, I, I_err) at
    a = 0 and a = r/2 for the ordering check J(r) <= I(a, r)."""
    pairs = []

    def i0(r):
        pairs.extend([(0.0, r) + i(0.0, r), (0.5 * r, r) + i(0.5 * r, r)])
        return pairs[-2][2:]

    iname = "i" + name[1:]
    return {name: sweep(name, j, r_grid, direction, tol),
            iname + "0": sweep(iname + "(0,r)", i0, r_grid, direction, tol),
            "pairs": pairs}


def jhat_sweep(kernel, r_grid, tol=1e-6):
    """Sweep Jhat and Ihat over the radius grid for a sub-heat kernel (both
    non-increasing); see `_liyau_sweep`.  The pairs at r and Ihat(0, r)
    share the ball integrals."""
    cache = {}
    return _liyau_sweep("jhat", lambda r: jhat_quantity(kernel, r),
                        lambda a, r: ihat_quantity(kernel, a, r, _cache=cache),
                        r_grid, "non-increasing", tol)


def forward_j_sweep(kernel, field, r_grid, tol=1e-6):
    """Surface-only J sweep for solutions of the backward heat equation.

    Declared non-increasing when the field is a supersolution of the forward
    conjugate heat equation (on static models: (d/dt - Delta) v >= 0).
    """
    direction = "non-increasing" if (
        "supercaloric" in field.tags or "caloric" in field.tags) else "none"
    return sweep(f"Jf[{field.name}]", lambda r: surface_weight_term(
        field, heatball_profile(kernel, r)), r_grid, direction, tol)


def surface_form_residual(kernel, r):
    """Residuals between original and rewritten monotone quantities (v = 1).

    Returns (j_residual, i_residual): the J comparison checks the pure
    surface rewrite against surface weight + volume curvature term; the I
    comparison checks the Li-Yau integrand against
    |grad log K|^2 + R log(K r^n).
    """
    one = make_field("constant-1", kernel.geom)
    region = heatball_profile(kernel, r)
    j_orig, _ = _j_term(one, region)
    j_new, _ = jhat_quantity(kernel, r)
    i_orig, _ = _i_term(one, region)
    i_new = liyau_ball_integral(kernel, r)[0] / r ** kernel.n
    return abs(j_orig - j_new), abs(i_orig - i_new)


def truncation_convergence(kernel, field, r, s_values):
    """Cap integrals of v (K - level) at slices tau = s; tends to v(x0, 0)."""
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
        return np.max(np.abs(self.conjugate_heat))

    @property
    def max_abs_first_order(self):
        return np.max(np.abs(self.first_order))

    @property
    def max_abs_entropy(self):
        return np.max(np.abs(self.entropy_v))

    @property
    def max_abs_soliton_tensor(self):
        return np.max(np.abs(self.soliton_tensor))


def soliton_residuals(rd_field, samples):
    """Evaluate the soliton identity residuals at (rho, tau) samples off the
    center, with the exact derivatives of the closed-form ell
    (`ReducedSlice.ell_jet`).

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
    kernel = SubHeatKernel(rd_field)
    check = SolitonCheck(flow=flow, samples=list(samples))
    for rho, tau in samples:
        t = -tau
        x = flow.x_of_rho(rho, t)
        if x <= 0:
            raise ValueError("samples must sit away from the center")
        m2 = flow.m2(t)
        l0, ell_x, ell_xx, ell_tau = kernel.at(tau).ell_jet(x)

        w = flow.warp_cm(x, t)
        wx = flow.dwarp_cm_dx(x, t)
        grad2 = ell_x ** 2 / m2
        hess_rad = ell_xx / m2
        hess_tan = wx / (w * m2) * ell_x
        lap = hess_rad + (n - 1) * hess_tan
        R = flow.scalar_R(t)
        ups = flow.upsilon(t)  # deformation tensor, not metric Ricci

        check.conjugate_heat.append(ell_tau - lap + grad2 - R + n / (2.0 * tau))
        check.first_order.append(-2.0 * ell_tau - grad2 + R - l0 / tau)
        khat = (4.0 * math.pi * tau) ** (-n / 2.0) * math.exp(-l0)
        check.entropy_v.append(
            (tau * (2.0 * lap - grad2 + R) + l0 - n) * khat)
        half = 1.0 / (2.0 * tau)
        check.soliton_tensor.append(max(
            abs(ups + hess_rad - half), abs(ups + hess_tan - half)))
    return check


def ly_ricci_residual(rd_field, rho, tau):
    """Two-path residual of the Li-Yau decomposition on a Ricci flow.

    The left side is the Li-Yau expression of the closed-form
    reduced-distance kernel; the right side is
    n/(2 tau) - K_curv/(2 tau^(3/2)) with the curvature integral taken by
    quadrature along the closed-form minimizing geodesic.
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
    """Annulus average of the Li-Yau expression over the track heat balls.

    On the homothetic track the Li-Yau expression is n/(2 tau), so the
    integrand n/(2 tau) slice_area(tau) is d/dtau slice_area(tau).  The error
    bounds the rounding: (n + 7) eps of each area, for the top time, the
    power, the sphere area and the scale r^n - a^n.
    """
    if not 0.0 <= a < r:
        raise ValueError("need 0 <= a < r")
    n = track.n
    area_a = track.slice_area(track.tau_max(a)) if a > 0.0 else 0.0
    area_r = track.slice_area(track.tau_max(r))
    scale = r ** n - a ** n
    return ((area_r - area_a) / scale,
            (n + 7) * np.finfo(float).eps * (area_r + area_a) / scale)


def mcf_sweep(n, r_grid, tol=1e-6):
    """Sweep Jbar and Ibar on the shrinking-sphere track (non-decreasing; see
    `_liyau_sweep`), with the Gaussian density as "density"."""
    track = McfShrinkingSphereTrack(n)
    out = _liyau_sweep("jbar", lambda r: jbar_quantity(track, r),
                       lambda a, r: ibar_quantity(track, a, r),
                       r_grid, "non-decreasing", tol)
    return {**out, "density": gaussian_density(n)}
