"""Level regions: root quality, closed-form level sets against Brent roots,
root-solve counts, quadrature engines (the batched slice quadrature against
scipy's quad, and its error estimates against oracles), nesting, the co-area
relation and the truncation-cap convergence."""

import gc
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import brentq

from mvlab import kernels, regions, suites
from mvlab import mv_elliptic as mve
from mvlab import mv_parabolic as mvp
from mvlab.errors import DomainError, NoRegionError
from mvlab.fields import make_field
from mvlab.geometry import FlowGeometry, unit_sphere_area
from mvlab.kernels import (GreenKernel, HeatKernel, McfShrinkingSphereTrack,
                           SubGreenKernel, SubHeatKernel, SupGreenKernel)
from mvlab.quad import integrate_1d, integrate_de
from mvlab.reduced import ReducedDistanceField
from mvlab.regions import (ball_integrate, cap_integral, green_ball,
                           heatball_profile, level_radius, sphere_integrate)

RADII = np.linspace(0.3, 3.0, 10)


def brent_root(f, lo, hi):
    """Oracle: the level-set root to full precision, independent of mvlab."""
    return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)


def green_kernels():
    """Exact, sub- (k = 1) and sup-Green kernels on E3 and H3."""
    return [cls(geom) for geom in (FlowGeometry.euclidean(3),
                                   FlowGeometry.hyperbolic(3))
            for cls in (GreenKernel, SubGreenKernel, SupGreenKernel)]


@pytest.fixture()
def brent_calls(monkeypatch):
    """Arguments of every root solve the regions module makes."""
    calls = []
    solve = regions.brentq

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(regions, "brentq", counted)
    return calls


# --------------------------------------------------------------------------- #
# elliptic regions
# --------------------------------------------------------------------------- #
def test_level_radius_examples(e3, h3):
    g = GreenKernel(e3)
    assert level_radius(g, 1.0) == pytest.approx(1.0 / (4.0 * math.pi),
                                                 rel=1e-12)
    assert level_radius(g, 2.0) == pytest.approx(2.0 / math.pi, rel=1e-12)
    sub = SubGreenKernel(h3, k=1.0)
    rho = level_radius(sub, 1.0)
    assert 0.0 < rho <= 1.0 / (4.0 * math.pi) + 1e-15


def test_level_radius_root_quality(e3):
    g = GreenKernel(e3)
    for r in (0.3, 1.0, 2.5):
        rho = level_radius(g, r)
        assert abs(g.value(rho) / r ** (-3) - 1.0) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.2, 3.0), b=st.floats(0.2, 3.0))
def test_level_radius_monotone(a, b):
    g = GreenKernel(FlowGeometry.euclidean(3))
    lo, hi = sorted((a, b))
    assert level_radius(g, lo) <= level_radius(g, hi) + 1e-15


def test_green_radius_closed_form_matches_brent():
    for kern in green_kernels():
        for r in RADII:
            level = r ** (-3)
            root = brent_root(lambda rho: kern.value(rho) - level, 1e-6, 50.0)
            assert level_radius(kern, r) == pytest.approx(root, rel=1e-13)


def test_level_radius_kernel_solve():
    # H2 and H4 radii are the kernel's own: a closed form on H2, Newton on H4
    for n in (2, 4):
        g = GreenKernel(FlowGeometry.hyperbolic(n))
        for r in (1.0, 2.0, 3.0):
            rho = level_radius(g, r)
            assert abs(g.value(rho) * r ** n - 1.0) <= 1e-12
    # radii far below 1 are solved to relative accuracy: rho ~ 5e-8 and ~ 9.58e-31
    g2 = GreenKernel(FlowGeometry.hyperbolic(2))
    assert abs(g2.value(level_radius(g2, 0.6)) * 0.6 ** 2 - 1.0) <= 1e-14
    rho = level_radius(g2, 0.3)
    assert rho == pytest.approx(9.58e-31, rel=1e-3)
    assert abs(g2.value(rho) * 0.3 ** 2 - 1.0) <= 1e-14


@settings(max_examples=50, deadline=None)
@given(a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3))
def test_h4_level_radius_monotone(a, b):
    g = GreenKernel(FlowGeometry.hyperbolic(4))
    lo, hi = sorted((a, b))
    assert level_radius(g, lo) <= level_radius(g, hi)


@pytest.mark.parametrize("n, k, r", [
    (3, 0.0, 1e120), (3, 1.0, 1e120),  # r^3 overflows
    (3, 0.0, 1e60),  # the radius 8e178 is a float, its sphere area is not
    (4, 1.0, 1e100),  # r^(-4) underflows: Newton would solve for G = 0
    (2, 1.0, 0.05),  # the radius underflows to 0
    (9, 10.0, 1.26e34),  # r^(-9) ~ 1e-306 is normal, the power (2q)^8 of G's series is not
])
def test_unrepresentable_green_ball_is_no_region(n, k, r):
    geom = FlowGeometry.hyperbolic(n, k) if k else FlowGeometry.euclidean(n)
    with pytest.raises(NoRegionError, match="out of float range"):
        level_radius(GreenKernel(geom), r)
    with pytest.raises(NoRegionError, match="out of float range"):
        green_ball(GreenKernel(geom), r)


def test_unrepresentable_numpy_radius_is_no_region(e3):
    # a numpy r overflows to inf rather than raising: refused all the same
    with np.errstate(over="ignore"), pytest.raises(NoRegionError):
        level_radius(GreenKernel(e3), np.float64(1e200))


def test_ball_integrals_euclid3(e3):
    g = GreenKernel(e3)
    reg = green_ball(g, 1.0)
    val, err = ball_integrate(reg, lambda rho: (g.grad_norm(rho) / g.value(rho)) ** 2)
    assert val == pytest.approx(1.0, abs=1e-8)      # equals r^n

    vol, _ = ball_integrate(reg, lambda rho: 1.0)
    # closed-form oracle: (4 pi / 3) rho_star^3 with rho_star = 1/(4 pi)
    expect = (4.0 * math.pi / 3.0) * (1.0 / (4.0 * math.pi)) ** 3
    assert expect == pytest.approx(2.1108579925e-3, rel=1e-9)
    assert vol == pytest.approx(expect, rel=1e-10)


def test_green_flux_sphere_integrate(e3):
    g = GreenKernel(e3)
    for r in (0.5, 1.0, 2.0):
        reg = green_ball(g, r)
        val, _ = sphere_integrate(reg, g.grad_norm)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_elliptic_nesting(e3):
    g = GreenKernel(e3)
    rhos = [green_ball(g, r).rho_star for r in (0.4, 0.8, 1.2, 1.6)]
    assert all(a < b for a, b in zip(rhos, rhos[1:]))


def test_coarea_relation_radial_weight(e3):
    # volume integral of f |grad log G|^2 over the ball against the layered
    # surface integrals of f |grad G|
    g = GreenKernel(e3)
    r = 1.0
    f = lambda rho: math.exp(-rho)
    reg = green_ball(g, r)
    lhs, _ = ball_integrate(
        reg, lambda rho: f(rho) * (g.grad_norm(rho) / g.value(rho)) ** 2)

    def layer(eta):
        sub = green_ball(g, eta)
        v, _ = sphere_integrate(sub, lambda rho: f(rho) * g.grad_norm(rho))
        return eta ** 2 * v

    rhs = 3.0 * integrate_1d(layer, 0.0, r, epsabs=1e-12, epsrel=1e-10)[0]
    assert abs(lhs - rhs) / abs(rhs) <= 1e-6


# --------------------------------------------------------------------------- #
# parabolic regions
# --------------------------------------------------------------------------- #
def test_heatball_top_time(e2):
    h = HeatKernel(e2)
    reg = heatball_profile(h, 1.0)
    assert reg.tau_max == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-13)
    tau = 1.0 / (8.0 * math.pi)
    assert reg.profile_rho(tau) == pytest.approx(
        math.sqrt(math.log(2.0) / (2.0 * math.pi)), rel=1e-12)


def test_heatball_profile_closed_form(e2):
    h = HeatKernel(e2)
    reg = heatball_profile(h, 1.0)
    n = 2
    worst = 0.0
    for u in np.linspace(0.02, 0.98, 31):
        tau = u * reg.tau_max
        exact = math.sqrt(2.0 * n * tau * math.log(
            1.0 / (4.0 * math.pi * tau)))
        worst = max(worst, abs(reg.profile_rho(tau) - exact))
    assert worst <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_flat_heat_level_set_matches_brent(n):
    h = HeatKernel(FlowGeometry.euclidean(n))
    for r in (0.3, 1.0, 3.0):
        level = r ** (-n)
        reg = heatball_profile(h, r)
        top = brent_root(lambda tau: h.at(tau).value(0.0) - level, 1e-6, 10.0)
        assert reg.tau_max == pytest.approx(top, rel=1e-13)
        for u in np.linspace(0.02, 0.98, 13):
            tau = u * reg.tau_max
            value = h.at(tau).value
            x = brent_root(lambda s: value(s) - level, 0.0, 10.0 * r)
            assert reg.profile_x(tau) == pytest.approx(x, rel=1e-13)


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
def test_profile_row_is_the_distance_to_the_brent_root(scale, monkeypatch):
    """The parabolic suite's `heatball_profile_closed_form` row, a Newton step
    of the level equation at the profile, reads the distance to its Brent
    root, for the closed-form profile and for one moved off it by 1e-9.  At
    r = 0.5 the level is 4, so a step in K rather than log K reads 4 times
    the distance; at the row's r = 1 the two agree to first order."""
    profile_x = HeatKernel.profile_x
    monkeypatch.setattr(HeatKernel, "profile_x",
                        lambda self, *args: scale * profile_x(self, *args))
    h = HeatKernel(FlowGeometry.euclidean(2))
    for r in (0.5, 1.0):
        reg = heatball_profile(h, r)
        gaps = []
        for u in np.linspace(0.02, 0.98, 25):
            tau = u * reg.tau_max
            value = h.at(tau).value
            gaps.append(abs(reg.profile_x(tau) - brent_root(lambda s: value(s) - reg.level,
                                                            0.0, 10.0)))
        assert abs(suites._profile_closed_form(h, r) - max(gaps)) <= 1e-14, r
        assert max(gaps) > 1e-10 if scale != 1.0 else max(gaps) < 1e-14


def test_h3_top_time_lambert_w(h3):
    h = HeatKernel(h3)
    for r in RADII:
        level = r ** (-3)
        top = brent_root(lambda tau: h.at(tau).value(0.0) - level, 1e-6, 10.0)
        assert heatball_profile(h, r).tau_max == pytest.approx(top, rel=1e-13)


def test_closed_forms_solve_no_roots(brent_calls, h3, rd_s3):
    for kern in green_kernels():
        for r in RADII:
            green_ball(kern, r)
    for n in (2, 3):
        reg = heatball_profile(HeatKernel(FlowGeometry.euclidean(n)), 1.0)
        for u in np.linspace(0.05, 0.95, 7):
            reg.profile_x(u * reg.tau_max)
    # the H3 heat profile is batched Newton, on spheres and balls alike
    kern = HeatKernel(h3)
    for r in (0.5, 1.0, 1.5):
        reg = heatball_profile(kern, r)
        reg.profile_x(reg.tau_max * np.array([1e-15, 0.5, 1.0 - 1e-12]))
        mvp.jhat_quantity(kern, r)
        mvp.mv_heat_sphere(kern, make_field("exp-radial", h3), r)
        mvp.mv_heat_ball(kern, make_field("exp-radial", h3), r)
    # the reduced-distance kernel solves its own top time and profile
    khat_s3 = SubHeatKernel(rd_s3)
    for r in (0.8, 1.4):
        reg = heatball_profile(khat_s3, r)
        reg.profile_x(reg.tau_max * np.array([1e-15, 0.5, 1.0 - 1e-12]))
        mvp.jhat_quantity(khat_s3, r)
        mvp.ihat_quantity(khat_s3, 0.0, r)
    # Green radii without a closed form are the kernel's Newton, on H4
    green_ball(GreenKernel(FlowGeometry.hyperbolic(4)), 1.0)
    green_ball(GreenKernel(FlowGeometry.hyperbolic(2)), 1.0)
    assert brent_calls == []


# H3 heat profiles on a grid of curvatures, level radii and times from
# 1e-18 tau_max to within 1e-13 of tau_max
H3_CURVATURES = (0.5, 1.0, 2.0, 5.0)
H3_RADII = np.geomspace(0.01, 20.0, 40)
H3_TIMES = np.concatenate([np.geomspace(1e-18, 0.5, 85),
                           1.0 - np.geomspace(0.5, 1e-13, 86)[1:]])


def test_h3_newton_profile_needs_no_root_solve(brent_calls):
    # Newton reaches roundoff at every time of the grid; Brent's roots of
    # kernel = level agree to 1e-12 wherever they are well conditioned (the
    # kernel is flat in x next to tau_max: tests/test_kernels.py holds those
    # times to 40-digit roots)
    for k in H3_CURVATURES:
        kern = HeatKernel(FlowGeometry.hyperbolic(3, k))
        for i, r in enumerate(H3_RADII):
            reg = heatball_profile(kern, r)
            taus = reg.tau_max * H3_TIMES
            x = reg.profile_x(taus)
            assert np.all(np.isfinite(x) & (x >= 0.0))
            if i % 4:
                continue
            for tau, got in zip(taus[H3_TIMES <= 0.99], x[H3_TIMES <= 0.99]):
                value = kern.at(tau).value
                want = brent_root(lambda s: value(s) - reg.level, 0.0, 2.0 * got + 1.0)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert brent_calls == []


def test_h3_newton_short_of_roundoff_raises(h3, monkeypatch):
    # one Newton step leaves most times short of roundoff: an error, and not
    # NoRegionError, which would read as a profile that does not close
    kern = HeatKernel(h3)
    reg = heatball_profile(kern, 1.0)
    taus = reg.tau_max * np.array([1e-6, 0.1, 0.5, 0.9])
    monkeypatch.setattr(kernels, "_NEWTON_STEPS", 1)
    for call in (lambda: kern.profile_x(1.0, taus), lambda: reg.profile_x(taus),
                 lambda: reg.profile_x(float(taus[1]))):
        with pytest.raises(RuntimeError, match="Newton did not converge"):
            call()


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_level_parameter_must_be_finite_positive(r, e2, e3, h3, khat_s3):
    # closed-form and Newton paths, elliptic and parabolic
    for kern in (GreenKernel(e3), GreenKernel(FlowGeometry.hyperbolic(4))):
        with pytest.raises(DomainError):
            level_radius(kern, r)
    for kern in (HeatKernel(e2), HeatKernel(h3), khat_s3):
        with pytest.raises(DomainError):
            heatball_profile(kern, r)
    with pytest.raises(DomainError):
        McfShrinkingSphereTrack(2).tau_max(r)


def test_profile_level_and_slope(e2):
    h = HeatKernel(e2)
    reg = heatball_profile(h, 1.3)
    level = reg.level
    for u in (0.1, 0.5, 0.9):
        tau = u * reg.tau_max
        x = reg.profile_x(tau)
        assert abs(h.at(tau).value(x) / level - 1.0) <= 1e-11
        # implicit slope against the closed-form profile derivative
        eps = 1e-6 * tau
        fd = (reg.profile_rho(tau + eps) - reg.profile_rho(tau - eps)) / (2 * eps)
        assert reg.profile_slope(tau) == pytest.approx(fd, rel=1e-5)


def test_watson_weight(e2):
    h = HeatKernel(e2)
    reg = heatball_profile(h, 1.0)
    # parabolic integrands are factories: a slice on a column of times gives
    # g(x) on a matrix of radii, one row per time
    def integrand(sl):
        def g(x):
            rho = sl.rho(x)
            return rho * rho / (4.0 * sl.tau * sl.tau)
        return g

    val, err = ball_integrate(reg, integrand)
    assert val == pytest.approx(1.0, abs=1e-6)


# --------------------------------------------------------------------------- #
# batched slice quadrature
# --------------------------------------------------------------------------- #
# slices from next to tau = 0, where the region is a few kernel widths across
# and QK21 on the whole slice misses the tolerance, to next to the top
SLICE_FRACS = [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9, 0.999,
               1.0 - 1e-6, 1.0 - 1e-9]
SLICE_TOL = (1e-11, 1e-10)   # what ball_integrate asks of a slice at _EPS


def slice_densities(geom, region):
    """Slice integrands: K (d/dt - Delta) v on every model and, on flat ones,
    the ball form's I_v plus its correction.

    Both are well conditioned.  (K - level) loses the digits of K near the
    profile, and H3's I_v density jumps by about 1e-10 relative where
    ``HeatSlice.dlog`` changes formula at k x = 1e-4: neither QK21 nor the
    oracle resolves those to 1e-12 of a slice.
    """
    name = "superharmonic" if geom.is_flat else "exp-radial"
    field = make_field(name, geom)
    out = [lambda sl: lambda x: sl.value(x) * field.mean_heat_op(sl.rho(x), sl.t)]
    if geom.is_flat:
        out.append(mvp._i_density(field, region, correction=True))
    return out


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("model", ["e2", "e3", "h3"])
def test_slice_integrals_match_quad(model, r, request):
    geom = request.getfixturevalue(model)
    kern = HeatKernel(geom)
    region = heatball_profile(kern, r)
    taus = region.tau_max * np.array(SLICE_FRACS)
    x_hi = np.array([region.profile_x(t) for t in taus])
    area = unit_sphere_area(kern.n)
    for density in slice_densities(geom, region):
        vals, errs = regions._slice_integrals(kern, density, taus, x_hi, *SLICE_TOL)
        for tau, x_top, val, err in zip(taus, x_hi, vals, errs):
            # the oracle integrates the same array integrand, one node at a time
            sl = kern.at(np.array([[tau]]))
            g = density(sl)

            def f(x):
                x = np.array([[x]])
                return (g(x) * area * sl.warp(x) ** (kern.n - 1) * sl.sm).item()

            oracle = integrate.quad(f, 0.0, x_top, epsabs=0.0, epsrel=2e-14,
                                    limit=200)[0]
            assert abs(val - oracle) <= 1e-12 * abs(oracle)
            assert abs(val - oracle) <= err


@pytest.mark.parametrize("model", ["e2", "e3", "h3"])
def test_narrow_slices_bisect(model, request, monkeypatch):
    # one QK21 over the narrowest slice misses the tolerance its bisected
    # pieces meet
    geom = request.getfixturevalue(model)
    kern = HeatKernel(geom)
    region = heatball_profile(kern, 1.0)
    tau = np.array([1e-12 * region.tau_max])
    x_top = np.array([region.profile_x(tau[0])])
    density = slice_densities(geom, region)[0]
    whole = regions._slice_integrals(kern, density, tau, x_top, *SLICE_TOL)
    monkeypatch.setattr(regions, "_DEPTH", 0)
    one_rule = regions._slice_integrals(kern, density, tau, x_top, *SLICE_TOL)
    assert one_rule[1][0] > max(SLICE_TOL[0], SLICE_TOL[1] * abs(one_rule[0][0]))
    assert whole[1][0] <= max(SLICE_TOL[0], SLICE_TOL[1] * abs(whole[0][0]))


def test_parabolic_ball_integrate_is_not_adaptive(h3, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_1d(*args, **kwargs)

    monkeypatch.setattr(regions, "integrate_1d", counted)
    kern = HeatKernel(h3)
    val, _ = ball_integrate(heatball_profile(kern, 1.0), lambda sl: sl.liyau)
    assert calls == [] and val > 0.0
    ball_integrate(green_ball(GreenKernel(FlowGeometry.euclidean(3)), 1.0),
                   lambda rho: 1.0)
    assert len(calls) == 1     # the elliptic radial integral stays adaptive


@settings(max_examples=30, deadline=None, derandomize=True)
@given(r=st.floats(0.4, 1.6), model=st.sampled_from(["e2", "e3", "h3"]))
def test_heat_ball_error_is_true_and_informative(r, model):
    # Ihat(0, r) = 1 on flat models; I_1 = 1 on the H3 heat ball
    geom = {"e2": FlowGeometry.euclidean(2), "e3": FlowGeometry.euclidean(3),
            "h3": FlowGeometry.hyperbolic(3)}[model]
    kern = HeatKernel(geom)
    if geom.is_flat:
        value, err = mvp.ihat_quantity(kern, 0.0, r)
    else:
        value, err = mvp._i_term(make_field("constant-1", geom),
                                 heatball_profile(kern, r))
    eps, scale = mvp._EPS, r ** kern.n
    tol = (eps["epsabs"] + eps["epsrel"] * scale) / scale
    assert abs(value - 1.0) <= err <= tol


@settings(max_examples=60, deadline=None, derandomize=True)
@given(r=st.floats(0.2, 2.5),
       case=st.sampled_from([("e3", "harmonic-quadratic"), ("e3", "constant-1"),
                             ("h3", "constant-1")]))
def test_green_ball_error_is_true_and_informative(r, case):
    # I_v(r) = v(x) for harmonic v and the exact Green's function
    model, name = case
    geom = {"e3": FlowGeometry.euclidean(3), "h3": FlowGeometry.hyperbolic(3)}[model]
    field = make_field(name, geom)
    value, err = mve.i_quantity(GreenKernel(geom), field, r)
    assert abs(value - field.center_value()) <= err <= 1e-8


def test_profile_slope_shrinking_sphere(khat_s3):
    reg = heatball_profile(khat_s3, 0.8)
    for u in (0.2, 0.5, 0.8):
        tau = u * reg.tau_max
        eps = 1e-6 * tau
        fd = (reg.profile_rho(tau + eps) - reg.profile_rho(tau - eps)) / (2 * eps)
        assert reg.profile_slope(tau) == pytest.approx(fd, rel=1e-6)


def test_parabolic_surface_weight(e2):
    h = HeatKernel(e2)
    reg = heatball_profile(h, 1.0)
    val, _ = sphere_integrate(
        reg, lambda s: s.grad ** 2 / np.hypot(s.grad, s.dtau))
    assert val == pytest.approx(1.0, abs=1e-5)


def test_heat_sphere_area_consistency(e2):
    h = HeatKernel(e2)
    reg = heatball_profile(h, 1.0)
    a1, _ = sphere_integrate(reg, lambda s: 1.0)
    a2, _ = sphere_integrate(reg, lambda s: 1.0, epsabs=1e-12, epsrel=1e-10)
    assert a1 > 0.0 and math.isfinite(a1)
    assert abs(a1 - a2) / a2 <= 1e-5


def per_node_sphere_integrate(region, integrand, epsabs, epsrel):
    """Oracle: the heat-sphere integral one tanh-sinh node at a time, with
    one slice at a float time and one scalar SurfaceSample per node, as the surface
    engine was before it took a level's times in one batch."""
    kern, n = region.kernel, region.kernel.n
    area, tau_max = unit_sphere_area(n), region.tau_max

    def f(tau):
        if tau <= tau_max * regions.TIME_CLIP_LO or tau >= tau_max * (1.0 - regions.TIME_CLIP_HI):
            return 0.0
        x = region.profile_x(tau)
        sl = kern.at(tau)
        value, grad, dtau = sl.sample(x)
        if grad <= 0.0:
            return 0.0
        s = regions.SurfaceSample(rho=sl.rho(x), tau=tau, value=value, grad=grad, dtau=dtau)
        return integrand(s) * (math.hypot(grad, dtau) / grad) * area * sl.warp(x) ** (n - 1)

    return integrate_de(lambda taus: np.array([f(t) for t in taus.tolist()]),
                        0.0, tau_max, atol=epsabs, rtol=epsrel)


def jhat_density(s):
    return (s.grad ** 2 - s.value * s.dtau) / math.hypot(s.grad, s.dtau)


@pytest.mark.parametrize("model", ["e2", "e3", "h3"])
def test_batched_sphere_matches_per_node(model, request):
    geom = request.getfixturevalue(model)
    kern = HeatKernel(geom)
    field = make_field("superharmonic" if geom.is_flat else "exp-radial", geom)

    def weight(s):
        return field.mean_value(s.rho, -s.tau) * s.grad ** 2 / math.hypot(s.grad, s.dtau)

    for r in (0.5, 1.0, 1.5):
        region = heatball_profile(kern, r)
        pairs = [(mvp.jhat_quantity(kern, r)[0], jhat_density),
                 (mvp.surface_weight_term(field, region)[0], weight)]
        for got, density in pairs:
            want, _ = per_node_sphere_integrate(region, density, **mvp._EPS)
            assert abs(got - want) <= 1e-13 * abs(want)


def test_batched_sphere_matches_per_node_shot_kernel(khat_s3):
    # the reduced-distance kernel of the shrinking sphere, on one slice per
    # level of times and on float slices node by node
    got, _ = mvp.jhat_quantity(khat_s3, 1.1)
    want, _ = per_node_sphere_integrate(heatball_profile(khat_s3, 1.1), jhat_density,
                                        **mvp._EPS)
    assert abs(got - want) <= 1e-13 * abs(want)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(r=st.floats(0.4, 1.6), model=st.sampled_from(["e2", "e3", "h3"]))
def test_heat_sphere_error_is_true_and_informative(r, model):
    # Jhat = 1 on flat models; the surface weight of v = 1 is 1 on the H3
    # heat sphere
    geom = {"e2": FlowGeometry.euclidean(2), "e3": FlowGeometry.euclidean(3),
            "h3": FlowGeometry.hyperbolic(3)}[model]
    kern = HeatKernel(geom)
    if geom.is_flat:
        value, err = mvp.jhat_quantity(kern, r)
    else:
        value, err = mvp.surface_weight_term(make_field("constant-1", geom),
                                             heatball_profile(kern, r))
    eps = mvp._EPS
    assert abs(value - 1.0) <= err <= eps["epsabs"] + eps["epsrel"] * abs(value)


@pytest.mark.parametrize("clip", [1e-9, 1e-6])
def test_clipped_sliver_enters_the_error(clip, e2, monkeypatch):
    # the Jhat density of E2 is constant in tau: a wider clip at the top
    # drops clip * Jhat, and the error must carry it
    monkeypatch.setattr(regions, "TIME_CLIP_HI", clip)
    value, err = mvp.jhat_quantity(HeatKernel(e2), 1.0)
    assert 0.5 * clip <= abs(value - 1.0) <= err <= 2.0 * clip


def test_parabolic_nesting(e2):
    h = HeatKernel(e2)
    small = heatball_profile(h, 0.7)
    big = heatball_profile(h, 1.2)
    assert small.tau_max < big.tau_max
    for u in np.linspace(0.05, 0.95, 9):
        tau = u * small.tau_max
        assert small.profile_rho(tau) <= big.profile_rho(tau) + 1e-12


def test_compactness_rejection(rd_s3):
    kern = SubHeatKernel(rd_s3)
    with pytest.raises(NoRegionError, match="90% of the domain radius at tau = 0.7088"):
        heatball_profile(kern, 20.0)
    # past the domain radius the closed-form profile is rejected too
    with pytest.raises(NoRegionError, match="does not close inside the domain"):
        heatball_profile(kern, 30.0)


@pytest.mark.parametrize("r,message", [
    (15.0, "reaches 90% of the domain radius at tau = 1.363"),
    (18.0, "does not close inside the domain"),
    (20.0, "reaches 90% of the domain radius at tau = 0.7088")])
def test_rejection_names_the_first_time_that_fails(khat_s3, r, message):
    # the domain check solves its 9 times at once; at r = 18 the first time
    # that fails does not close, and at r = 20 a later time's profile does
    # not close, and the wide time before it is still the one reported, as
    # a check of one time after the other would
    with pytest.raises(NoRegionError, match=message):
        heatball_profile(khat_s3, r)


@pytest.mark.parametrize("r,message", [
    (20.0, "90% of the domain radius"),
    (1e3, "does not close inside the domain"),
    (1e20, "no root inside the time domain")])  # tau0 = 8e38 is past the last time
def test_wide_reduced_balls_have_no_region(khat_s3, r, message):
    with pytest.raises(NoRegionError, match=message):
        heatball_profile(khat_s3, r)


@pytest.mark.parametrize("model,r", [("e2", 1e16), ("e2", 1e20), ("e2", 1e200), ("h3", 1e200)])
def test_heat_balls_past_the_last_time_have_no_region(request, model, r):
    # the exact kernels' top time passes the last time 1e30 from r ~ 3.5e15 on
    # E2, and r * r overflows at 1e200: both are rejected at the build, not
    # in the first integral (DomainError) or by an empty array (ValueError)
    kern = HeatKernel(request.getfixturevalue(model))
    for build in (heatball_profile, mvp.jhat_quantity):
        with pytest.raises(NoRegionError, match="no root inside the time domain"):
            build(kern, r)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_heat_top_time_needs_a_positive_finite_r(e2, h3, r):
    for geom in (e2, h3):
        with pytest.raises(DomainError, match="positive and finite"):
            HeatKernel(geom).tau_max(r)


def test_wide_gaussian_balls_are_solved(khat_flat2):
    # no search caps the top time: r = 1e5 has tau_max = 8e8
    val, err = mvp.jhat_quantity(khat_flat2, 1e5)
    assert abs(val - 1.0) <= err


def test_heatball_domain_errors(e2):
    h = HeatKernel(e2)
    reg = heatball_profile(h, 1.0)
    with pytest.raises(DomainError):
        reg.profile_x(reg.tau_max * 1.5)
    with pytest.raises(DomainError):
        level_radius(GreenKernel(FlowGeometry.euclidean(3)), -1.0)


def test_cap_convergence(e2):
    h = HeatKernel(e2)
    reg = heatball_profile(h, 1.0)
    drifts = [abs(cap_integral(reg, lambda rho, t: 1.0, s) - 1.0)
              for s in (1e-2, 1e-3, 1e-4)]
    assert drifts[0] > drifts[1] > drifts[2]
    assert drifts[2] <= 0.02


# --------------------------------------------------------------------------- #
# the kernel's heat-ball memo
# --------------------------------------------------------------------------- #
MEMO_MODELS = {
    "e2": (lambda: HeatKernel(FlowGeometry.euclidean(2)), "superharmonic"),
    "h3": (lambda: HeatKernel(FlowGeometry.hyperbolic(3)), "exp-radial"),
    "s3": (lambda: SubHeatKernel(ReducedDistanceField(FlowGeometry.shrinking_sphere(3))),
           "constant-1"),
}


def memo_queries(name, r=0.9):
    """Every parabolic quantity over the heat ball E_r, each a function of
    the kernel; ``name`` is the field of the identities."""
    def field(kern, which=name):
        return make_field(which, kern.geom)

    return [lambda k: mvp.jhat_quantity(k, r),
            lambda k: mvp.ihat_quantity(k, 0.0, r),
            lambda k: mvp.ihat_quantity(k, 0.5 * r, r),
            lambda k: mvp.mv_heat_sphere(k, field(k), r),
            lambda k: mvp.mv_heat_ball(k, field(k), r),
            lambda k: mvp.surface_form_residual(k, r),
            lambda k: mvp.truncation_convergence(k, field(k, "constant-1"), r, (1e-2, 1e-3))]


@pytest.mark.parametrize("model", sorted(MEMO_MODELS))
def test_warm_memo_gives_the_same_floats(model):
    # each query on its own fresh kernel against all of them, backwards and
    # then forwards, on one kernel whose memo the earlier queries filled
    make, name = MEMO_MODELS[model]
    queries = memo_queries(name)
    fresh = [q(make()) for q in queries]
    warm = make()
    backwards = [q(warm) for q in reversed(queries)][::-1]
    assert len(warm.heatballs) == 2 and warm.heatballs[0.9][1]
    assert [q(warm) for q in queries] == backwards == fresh
    assert all(np.all(np.isfinite(q)) for q in fresh)


def test_memo_keeps_its_bound(e2):
    kern, grid = HeatKernel(e2), [float(r) for r in np.linspace(0.4, 1.6, 40)]
    rep = mvp.forward_j_sweep(kern, make_field("superharmonic", e2), grid)
    assert rep.monotone_ok
    # the newest radii, each a top time and a dict of levels
    assert list(kern.heatballs) == grid[-regions._MEMO_RADII:]


def memo_leaves(obj):
    """Types of everything a memo entry holds, containers opened."""
    if isinstance(obj, (dict, tuple)):
        items = obj.values() if isinstance(obj, dict) else obj
        return {t for item in items for t in memo_leaves(item)}
    if isinstance(obj, regions.SurfaceSample):
        return {t for a in vars(obj).values() for t in memo_leaves(a)}
    return {type(obj)}


def test_full_memo_holds_arrays_and_frees_by_refcount(e2):
    kern = HeatKernel(e2)
    field = make_field("superharmonic", e2)
    for r in np.linspace(0.4, 1.6, regions._MEMO_RADII + 2):
        mvp.mv_heat_sphere(kern, field, float(r))  # sphere and ball levels
    assert len(kern.heatballs) == regions._MEMO_RADII
    assert memo_leaves(dict(kern.heatballs)) == {float, np.ndarray}
    ref = weakref.ref(kern)
    gc.disable()  # no cyclic collection may free it
    try:
        del kern
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("model", ["e2", "h3"])
def test_profile_solved_once_per_level(model, monkeypatch):
    # Jhat, Ihat(0, r), the heat sphere (its J and correction terms) and the
    # heat ball: five time integrals, one profile solve per level of times
    # (the first level, 34 times, meets the tolerance of all five here)
    make, name = MEMO_MODELS[model]
    kern, r = make(), 0.9
    solved, evaluated = [], []
    profile_x, integrate = kern.profile_x, regions.integrate_de

    def counted_profile(radius, tau, sl=None):
        solved.append(tau.tobytes())
        return profile_x(radius, tau, sl)

    def counted_de(f, *args, **kwargs):
        return integrate(lambda x: evaluated.append(x.size) or f(x), *args, **kwargs)

    monkeypatch.setattr(kern, "profile_x", counted_profile)
    monkeypatch.setattr(regions, "integrate_de", counted_de)
    field = make_field(name, kern.geom)
    mvp.jhat_quantity(kern, r)
    mvp.ihat_quantity(kern, 0.0, r)
    mvp.mv_heat_sphere(kern, field, r)
    mvp.mv_heat_ball(kern, field, r)
    levels = kern.heatballs[r][1]
    assert len(solved) == len(levels) and set(solved) == set(levels)
    assert len(evaluated) >= 5 * len(levels) > 0


def test_threads_sharing_kernels_match_one_thread():
    serial = suites.run_suite("parabolic", jobs=1)
    parallel = suites.run_suite("parabolic", jobs=2)
    assert len(parallel.checks) == len(serial.checks)
    for one, two in zip(serial.checks, parallel.checks):
        assert two.to_dict() == one.to_dict()


def test_concurrent_eviction(e2):
    # more threads than cores fill one kernel's memo past its bound at once,
    # twice over, with thread switches far more frequent than by default
    grid = [float(r) for r in np.linspace(0.3, 1.7, 4 * regions._MEMO_RADII)] * 2
    want = [mvp.jhat_quantity(HeatKernel(e2), r) for r in grid]
    kern, interval = HeatKernel(e2), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda r: mvp.jhat_quantity(kern, r), grid, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want and len(kern.heatballs) <= regions._MEMO_RADII
