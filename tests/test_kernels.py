"""Kernels: closed-form values, flux normalization, heat-equation residuals,
Li-Yau expressions, masses and monotone level structure."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mvlab import kernels
from mvlab.errors import DomainError, NoRegionError, UnsupportedError
from mvlab.geometry import FlowGeometry, unit_sphere_area
from mvlab.kernels import (GreenKernel, HeatKernel, McfShrinkingSphereTrack,
                           SubGreenKernel, SubHeatKernel, SupGreenKernel,
                           _lambertw0, liyau_expression)
from mvlab.quad import integrate_1d
from mvlab.reduced import ODE_RTOL, ReducedDistanceField


def _d1(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def _d2(f, x, h):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h)
            - f(x - 2 * h)) / (12 * h * h)


# --------------------------------------------------------------------------- #
# elliptic kernels
# --------------------------------------------------------------------------- #
def test_green_values(e3, h3):
    g = GreenKernel(e3)
    assert g.value(0.5) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    sup = SupGreenKernel(h3)
    assert sup.value(1.0) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)

    sub = SubGreenKernel(h3, k=1.0)
    # short-distance euclidean asymptotics: value * 4 pi d -> 1
    d = 1e-6
    assert sub.value(d) * 4.0 * math.pi * d == pytest.approx(1.0, abs=1e-5)
    # the comparison kernel sits below the flat profile
    for rho in (0.2, 0.7, 1.5, 3.0):
        assert sub.value(rho) <= 1.0 / (4.0 * math.pi * rho)


def test_green_flux_normalization(e3, h3):
    for kern in (GreenKernel(e3), GreenKernel(h3), SubGreenKernel(h3, k=1.0)):
        area = unit_sphere_area(kern.n)
        for rho in (0.3, 0.8, 1.5):
            flux = kern.grad_norm(rho) * area * kern.geom.warp(rho) ** (kern.n - 1)
            assert flux == pytest.approx(1.0, rel=1e-12)


def test_green_derivative_consistency(e3, h3):
    for kern in (GreenKernel(e3), SubGreenKernel(h3, k=1.0), SupGreenKernel(h3)):
        for rho in (0.4, 1.1):
            fd = _d1(kern.value, rho, 1e-3 * rho)
            assert fd == pytest.approx(kern.dvalue(rho), rel=1e-8)
            assert kern.dvalue(rho) <= 0.0


def test_green_unsupported():
    with pytest.raises(UnsupportedError):
        GreenKernel(FlowGeometry.euclidean(2))
    with pytest.raises(UnsupportedError):
        GreenKernel(FlowGeometry.shrinking_sphere(3))
    with pytest.raises(DomainError):
        SubGreenKernel(FlowGeometry.hyperbolic(3, k=2.0), k=1.0)
    with pytest.raises(DomainError):
        GreenKernel(FlowGeometry.euclidean(3)).value(-0.5)


def test_subgreen_general_dimension(rng):
    # quadrature profile agrees with the closed form in n = 3
    h3 = FlowGeometry.hyperbolic(3)
    closed = SubGreenKernel(h3, k=1.0)
    area = unit_sphere_area(4)
    h4 = FlowGeometry.hyperbolic(4)
    quad4 = SubGreenKernel(h4, k=1.0)
    for rho in (0.5, 1.0):
        # flux normalization of the numeric profile
        flux = quad4.grad_norm(rho) * area * h4.warp(rho) ** 3
        assert flux == pytest.approx(1.0, rel=1e-10)
        fd = _d1(quad4.value, rho, 1e-3)
        assert fd == pytest.approx(quad4.dvalue(rho), rel=1e-7)


@pytest.mark.parametrize("d", [1e-30, 1e-20, 1e-10, 1e-5, 0.1, 0.5, 0.9,
                               1.0, 2.0])
def test_green_quadrature_profile_closed_forms(d):
    # the H2 and H4 Green's functions against their closed forms, down to
    # distances where the profile is singular
    h2 = -math.log(math.tanh(d / 2.0)) / (2.0 * math.pi)
    h4 = (0.5 / (math.sinh(d) * math.tanh(d))
          + 0.5 * math.log(math.tanh(d / 2.0))) / (2.0 * math.pi ** 2)
    g2 = GreenKernel(FlowGeometry.hyperbolic(2)).value(d)
    g4 = GreenKernel(FlowGeometry.hyperbolic(4)).value(d)
    assert g2 == pytest.approx(h2, rel=1e-13, abs=0)
    assert g4 == pytest.approx(h4, rel=1e-13, abs=0)


def _hyperbolic_green_closed_form(n, k, d):
    """H2 and H4 Green's functions, evaluated in 40-digit decimal arithmetic:
    log tanh(u/2) and csch(u) coth(u) cancel to e^(-3u) far out on H4."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        u = Decimal(k) * Decimal(d)
        q = (-u).exp()
        log_tanh = ((1 - q) / (1 + q)).ln()
        if n == 2:
            return float(-log_tanh) / (2.0 * math.pi)
        csch_coth = 2 * q * (1 + q * q) / (1 - q * q) ** 2
        return float(Decimal(k) ** 2 * (csch_coth + log_tanh)) / (4.0 * math.pi ** 2)


@pytest.mark.parametrize("d", [2.0, 3.0, 5.0, 8.0])
@pytest.mark.parametrize("k", [1.0, 2.0])
@pytest.mark.parametrize("n", [2, 4])
def test_green_profile_far_tail(n, k, d):
    # relative accuracy where the value decays like exp(-(n-1) k d)
    g = GreenKernel(FlowGeometry.hyperbolic(n, k=k)).value(d)
    # a plain ratio: pytest.approx would add its 1e-12 absolute tolerance
    assert abs(g / _hyperbolic_green_closed_form(n, k, d) - 1.0) <= 1e-12


def _mp_green(mp, n, k, d):
    """int_u^inf csch^m = 2^m z^m / m 2F1(m/2, m; m/2 + 1; z^2), z = e^(-u),
    m = n - 1, u = k d, the Green's function of H^n_k in mpmath, with the
    extra digits that resolve 1 - z^2 at small u; for m = 1, 2 atanh(z) =
    -log tanh(u/2), as mpmath's 2F1 next to 1 takes seconds."""
    m = n - 1
    area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
    if m == 1:
        return -mp.log(mp.tanh(k * mp.mpf(d) / 2)) / area
    with mp.extradps(max(0, -int(mp.log10(k * d)))):
        z = mp.exp(-k * mp.mpf(d))
        green = (mp.mpf(k) ** (m - 1) * 2 ** m * z ** m / m / area
                 * mp.hyp2f1(mp.mpf(m) / 2, m, mp.mpf(m) / 2 + 1, z * z))
    return +green


@pytest.mark.parametrize("n", [2, 4, 5, 6, 7])
def test_green_against_mpmath(n):
    # the recurrence below k d = 1 and the series from there on against the
    # 2F1 form at 30 digits; both cancel nowhere, so 2e-15 relative holds
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for k in (0.5, 1.0, 2.0):
            kern = GreenKernel(FlowGeometry.hyperbolic(n, k=k))
            for u in (1e-8, 1e-3, 0.3, 0.9, 0.999, 1.0, 1.001, 1.5, 5.0):
                d = u / k
                assert abs(kern.value(d) / _mp_green(mp, n, k, d) - 1) <= 2e-15, (k, d)


@pytest.mark.parametrize("n", [2, 4, 5, 6, 7])
def test_green_radius_against_mpmath(n):
    # GreenKernel on H^n_k and SubGreenKernel(E^n, k), the same function,
    # against the 30-digit root of G = r^(-n) (Newton in log rho on the 2F1
    # form from the float radius) and scipy's brentq on the float kernel,
    # with r from 1e-3 to 1e3: within 4e-15 relative, in at most
    # _NEWTON_STEPS kernel values.  The H2 closed form is held to its
    # condition number c = n / |d log G / d log rho| (a relative change of r
    # moves rho c times as much): 1,257 at r = 0.1, where 2 pi / r^2 carries
    # its rounding into rho, 4.0e-14 off.  Below r = 0.1 the H2 radius
    # underflows, and only there is the ball refused.
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mp.workdps(30):
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        for k in (0.5, 1.0, 2.0):
            kerns = [GreenKernel(FlowGeometry.hyperbolic(n, k=k)),
                     SubGreenKernel(FlowGeometry.euclidean(n), k=k)]
            values = []
            for kern in kerns:
                value = kern.value
                kern.value = lambda rho, value=value: values.append(rho) or value(rho)
            for r in np.geomspace(1e-3, 1e3, 13).tolist():
                if n == 2 and r < 0.1:
                    for kern in kerns:
                        with pytest.raises(NoRegionError):
                            kern.level_radius(r)
                    assert 2 * mp.exp(-2 * mp.pi / mp.mpf(r) ** 2) / k < 1e-308
                    continue
                rho = kerns[0].level_radius(r)
                values.clear()
                assert kerns[1].level_radius(r) == rho
                assert len(values) <= kernels._NEWTON_STEPS, (k, r)
                s = mp.log(rho)
                for _ in range(2):  # quadratic from a float root
                    d = mp.exp(s)
                    green = _mp_green(mp, n, k, d)
                    slope = -d * (k / mp.sinh(k * d)) ** (n - 1) / (area * green)
                    s -= (mp.log(green) + n * mp.log(r)) / slope
                tol = 4e-15 * max(1.0, float(n / abs(slope)) / 2)
                assert abs(rho / mp.exp(s) - 1) <= tol, (k, r)
                level = r ** -n
                want = brentq(lambda x: kerns[0].value(x) - level, 0.5 * rho, 2.0 * rho,
                              xtol=1e-300, rtol=4 * eps)
                assert abs(rho / want - 1) <= 2 * tol, (k, r)


def test_green_radius_newton_wide_grid():
    # Newton's Green radius for n in 4..11, k from 0.1 to 10 and r from 1e-15
    # to 1e6 (n = 9, k = 10, r = 1 among them): at its roundoff, |log(G r^n)|
    # within a few eps of the slope d log G / d log rho, in at most
    # _NEWTON_STEPS kernel values
    eps = np.finfo(float).eps
    for n in range(4, 12):
        for k in (0.1, 1.0, 10.0):
            kern = SubGreenKernel(FlowGeometry.euclidean(n), k=k)
            values, value = [], kern.value
            kern.value = lambda rho: values.append(rho) or value(rho)
            for r in np.geomspace(1e-15, 1e6, 43).tolist():
                values.clear()
                rho = kern.level_radius(r)
                assert len(values) <= kernels._NEWTON_STEPS, (n, k, r)
                slope = rho * kern.dvalue(rho) / value(rho)
                assert abs(math.log(value(rho) * r ** n)) <= 8 * eps * (1 - slope), (n, k, r)


# --------------------------------------------------------------------------- #
# parabolic kernels
# --------------------------------------------------------------------------- #
def test_heat_kernel_values(e2, h3):
    h = HeatKernel(e2)
    assert h.at(0.25).value(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)

    hk = HeatKernel(h3)
    expect = (4.0 * math.pi * 0.5) ** (-1.5) * (1.0 / math.sinh(1.0)) \
        * math.exp(-1.0 / 2.0 - 0.5)
    assert hk.at(0.5).value(1.0) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(1.9877e-2, rel=1e-4)


def test_lambertw0_and_h3_top_time():
    # the Halley W_0 of the H3 top time: within 1 ulp of 30-digit W and 2 of
    # scipy's lambertw from 0 to 1e6; tau_max(r) solves the on-center
    # equation 1.5 log(4 pi tau) + k^2 tau = 3 log r to its own roundoff
    mp = pytest.importorskip("mpmath")
    from scipy.special import lambertw
    eps = np.finfo(float).eps
    with mp.workdps(30):
        assert _lambertw0(0.0) == 0.0
        for z in np.geomspace(1e-12, 1e6, 2000).tolist():
            w, want = _lambertw0(z), mp.lambertw(z)
            ulp = math.ulp(float(want))
            assert abs(w - want) <= ulp
            assert abs(w - lambertw(z).real) <= 2 * ulp
        for k in (0.25, 1.0, 2.0):
            kern = HeatKernel(FlowGeometry.hyperbolic(3, k))
            for r in np.geomspace(0.01, 100.0, 21).tolist():
                tau = kern.tau_max(r)
                resid = (1.5 * mp.log(4 * mp.pi * tau) + mp.mpf(k) ** 2 * tau
                         - 3 * mp.log(r))
                assert abs(resid) <= 4 * eps * (1.5 + k * k * tau)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduced_top_time_against_mpmath(n, monkeypatch):
    # Newton's top time on the shrinking n-sphere against a 300-digit
    # bisection of the on-center equation (n/2) v + ell0(tau0 e^v) = 0 in
    # v = log(tau / tau0), tau0 = r^2 / (4 pi), where ell0 = (n/2)(1 -
    # arctan(b) / b), b = beta sigma, cancels at small tau; within 2e-14
    # relative (2.1e-15 at most from 1e-60 to 1e14), in at most 6 slices
    mp = pytest.importorskip("mpmath")
    kern = SubHeatKernel(ReducedDistanceField(FlowGeometry.shrinking_sphere(n)))
    slices, at = [], kern.at
    monkeypatch.setattr(kern, "at", lambda tau: slices.append(tau) or at(tau))
    with mp.workdps(300):
        beta = mp.sqrt(mp.mpf(n - 1) / 2)
        for r in (1e-60, 1e-3, 0.3, 1.0, 2.3, 5.0):
            tau0 = mp.mpf(r) ** 2 / (4 * mp.pi)

            def g(v):
                b = 2 * beta * mp.sqrt(tau0 * mp.exp(v))
                return n * v / 2 + n * (1 - mp.atan(b) / b) / 2

            lo, hi = mp.mpf(-1), mp.mpf(0)
            for _ in range(100):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
            slices.clear()
            got = kern.tau_max(r)
            assert abs(got / (tau0 * mp.exp(lo)) - 1) <= 2e-14
            assert 1 <= len(slices) <= 6


@pytest.mark.parametrize("n", [2, 3])
def test_reduced_top_time_flat_is_the_flat_root(n):
    # ell0 = 0 on the gaussian: the first slice returns r^2 / (4 pi) as is
    kern = SubHeatKernel(ReducedDistanceField(FlowGeometry.gaussian_soliton(n)))
    for r in np.geomspace(1e-60, 1e14, 75).tolist() + [0.2, 0.5, 0.8]:
        assert kern.tau_max(r) == r * r / (4 * math.pi)


@pytest.mark.parametrize("geom_name,tol", [("euclidean3", 1e-8),
                                           ("hyperbolic3", 1e-6)])
def test_heat_equation_residual(geom_name, tol, rng):
    geom = (FlowGeometry.euclidean(3) if geom_name == "euclidean3"
            else FlowGeometry.hyperbolic(3))
    kern = HeatKernel(geom)
    worst = 0.0
    for _ in range(10):
        d = float(rng.uniform(0.2, 1.2))
        tau = float(rng.uniform(0.3, 0.9))
        value = kern.at(tau).value
        dtau = _d1(lambda s: kern.at(s).value(d), tau, 5e-3 * tau)
        lap = (_d2(value, d, 5e-3)
               + (geom.n - 1) * geom.warp_dr(d) / geom.warp(d) * _d1(value, d, 5e-3))
        worst = max(worst, abs(dtau - lap))
    assert worst <= tol


def test_heat_kernel_analytic_derivatives(h3, rng):
    kern = HeatKernel(h3)
    for _ in range(5):
        d = float(rng.uniform(0.2, 1.5))
        tau = float(rng.uniform(0.2, 0.8))
        sl = kern.at(tau)
        assert _d1(sl.value, d, 1e-3) == pytest.approx(sl.dx(d), rel=1e-9)
        assert _d1(lambda s: kern.at(s).value(d), tau, 1e-3 * tau) == pytest.approx(
            sl.dtau(d), rel=1e-9)


def _per_point_heat(kern, x, tau):
    """The per-point math-library HeatKernel arithmetic, as the reference
    for the numpy slices: (value, |grad|, d/dtau, Li-Yau)."""
    n, k = kern.n, kern._k
    value = (4.0 * math.pi * tau) ** (-n / 2.0) * math.exp(-x * x / (4.0 * tau))
    if k == 0.0:
        dlog = -x / (2.0 * tau)
        liyau = n / (2.0 * tau)
    else:
        kx = k * x
        ratio = kx / math.sinh(kx) if kx > 1e-8 else 1.0 - kx * kx / 6.0
        value = value * ratio * math.exp(-k ** 2 * tau)
        if kx < 1.0:  # (u coth u - 1) / u^2 by seven levels of Lambert's fraction
            d = 17.0
            for j in (15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0):
                d = j + kx * kx / d
            cothc = 1.0 / d
        else:
            cothc = (kx / math.tanh(kx) - 1.0) / (kx * kx)
        dlog = -x * (k ** 2 * cothc + 1.0 / (2.0 * tau))
    grad = abs(value * dlog) / math.sqrt(kern.geom.m2(-tau))
    dtau_log = -n / (2.0 * tau) + x * x / (4.0 * tau * tau) - k ** 2
    dtau = value * (-n / (2.0 * tau) + x * x / (4.0 * tau * tau) - k ** 2)
    if k != 0.0:
        liyau = dlog * dlog - dtau_log
    return value, grad, dtau, liyau


def _within_4ulp(got, want):
    """numpy's exp, sinh, tanh and pow may differ from the math library's in
    the last bits; 4 ulp of each entry of want."""
    return all(abs(g - w) <= 4.0 * np.spacing(abs(w)) for g, w in zip(got, want))


@pytest.mark.parametrize("geom", [FlowGeometry.euclidean(2), FlowGeometry.euclidean(3),
                                  FlowGeometry.hyperbolic(3)],
                         ids=["e2", "e3", "h3"])
def test_heat_slice_bits(geom):
    # x = 0 and x on each branch of the H3 formulas: kx <= 1e-8, kx < 1 and
    # kx >= 1
    kern = HeatKernel(geom)
    for tau in (0.03, 0.17, 0.4, 0.93, 2.5):
        sl = kern.at(tau)
        for x in (0.0, 5e-9, 5e-5, 0.3, 0.71, 1.3, 2.0):
            want = _per_point_heat(kern, x, tau)
            assert _within_4ulp((sl.value(x), sl.grad(x), sl.dtau(x), sl.liyau(x)), want)
            assert _within_4ulp(sl.sample(x), want[:3])


@pytest.mark.parametrize("name", ["e2", "e3", "h3", "khat_flat2", "khat_s3"])
def test_column_slices_match_scalar_slices(name, request):
    # a float, a 1-d array (one radius per time) and a column of times (a
    # matrix of radii) give the kernel's one slice class, and the arrays
    # agree with the float slices node by node: to the bit for the
    # reduced-distance kernel, within 1e-14 for the heat kernel, whose float
    # prefactor takes libm's pow and the arrays numpy's
    shot = name.startswith("khat")
    kern = request.getfixturevalue(name) if shot else HeatKernel(request.getfixturevalue(name))
    taus = (0.1, 0.2) if shot else (0.03, 0.4, 2.5)
    xs = (0.0, 5e-9, 1.5e-4, 0.3, 0.7) if shot else (0.0, 5e-9, 5e-5, 0.3, 0.71, 1.3, 2.0)
    rel = 0.0 if shot else 1e-14
    grid = np.array([xs] * len(taus))
    column = kern.at(np.array(taus)[:, None])
    flat = kern.at(np.repeat(taus, len(xs)))
    assert type(column) is type(flat) is type(kern.at(taus[0])) is kern.slice_class
    for method in ("rho", "warp", "value", "grad", "dtau", "liyau"):
        got = (np.broadcast_to(getattr(column, method)(grid), grid.shape),
               getattr(flat, method)(grid.ravel()).reshape(grid.shape))
        for (i, j), x in np.ndenumerate(grid):
            want = getattr(kern.at(taus[i]), method)(x)
            for g in got:
                assert g[i, j] == pytest.approx(want, rel=rel, abs=0.0), method
    got = np.reshape(flat.sample(grid.ravel()), (3,) + grid.shape)
    for (i, j), x in np.ndenumerate(grid):
        assert got[:, i, j] == pytest.approx(kern.at(taus[i]).sample(x), rel=rel, abs=0.0)


def test_generic_column_slices_evaluate_node_by_node(khat_s3):
    taus = np.array([[0.1], [0.2]])
    xs = np.array([[0.3, 0.7], [0.4, 0.9]])
    batch = khat_s3.at(taus)
    for method in ("rho", "warp", "value", "grad", "liyau"):
        got = getattr(batch, method)(xs)
        for (i, j), x in np.ndenumerate(xs):
            assert got[i, j] == getattr(khat_s3.at(float(taus[i, 0])), method)(x)
    assert np.array_equal(batch.sm, [[khat_s3.at(0.1).sm], [khat_s3.at(0.2).sm]])
    with pytest.raises(DomainError):
        khat_s3.at(np.array([[0.1], [0.0]]))
    # a 1-d array of times takes one radius per slice, as surface nodes do
    flat, x = khat_s3.at(np.array([0.1, 0.2])), np.array([0.3, 0.9])
    got = flat.sample(x)
    for i, tau in enumerate((0.1, 0.2)):
        sl = khat_s3.at(tau)
        assert tuple(col[i] for col in got) == sl.sample(x[i])
        assert (flat.rho(x)[i], flat.warp(x)[i]) == (sl.rho(x[i]), sl.warp(x[i]))


@pytest.mark.parametrize("geom", [FlowGeometry.euclidean(2), FlowGeometry.hyperbolic(3)],
                         ids=["e2", "h3"])
def test_heat_slices_take_one_radius_per_time(geom):
    kern = HeatKernel(geom)
    taus, xs = np.array([0.03, 0.4, 2.5]), np.array([0.0, 5e-5, 1.3])
    got = kern.at(taus).sample(xs)
    for i, (tau, x) in enumerate(zip(taus, xs)):
        want = kern.at(float(tau)).sample(x)
        for g, w in zip(got, want):
            assert g[i] == pytest.approx(w, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("tau", [0.05, 0.5, 1e20])
def test_heat_dlog_against_mpmath(tau, h3):
    # d log H / dx = 1/x - k coth(kx) - x / (2 tau) on a kx grid across the
    # old series branch at 1e-4 and the continued-fraction branch at 1; at
    # tau = 1e20 the curvature term is all of it
    mp = pytest.importorskip("mpmath")
    kern = HeatKernel(h3)
    xs = np.concatenate([np.geomspace(1e-7, 5.0, 120),
                         [0.99999e-4, 1e-4, 1.00001e-4, 1.2e-4, 1e-3, 0.5,
                          np.nextafter(1.0, 0.0), 1.0, 1.000001]])
    scalar, batch = kern.at(tau), kern.at(np.array([tau] * xs.size))
    with mp.workdps(40):
        for x, g in zip(xs, batch.dlog(xs)):
            want = 1 / mp.mpf(x) - mp.coth(mp.mpf(x)) - mp.mpf(x) / (2 * mp.mpf(tau))
            for value in (scalar.dlog(x), g):
                assert abs((value - want) / want) <= 1e-14


@pytest.mark.parametrize("r", [0.4, 1.0, 1.6, 3.0])
def test_h3_profile_against_mpmath(r, h3):
    # Newton's roots, one array of times from next to tau = 0 to within
    # 1e-12 of tau_max, against 40-digit roots of the same level equation
    # F(y) = a - y / (4 tau) + log(u / sinh u) = 0 in y = x^2 (bisection).
    # Rounding a's terms moves the root by up to 4 tau eps (|terms| + 1)
    # (|dF/dy| >= 1 / (4 tau)); Newton stays within 4 of that, and no
    # farther out on the grid than Brent's roots of kernel = level
    mp = pytest.importorskip("mpmath")
    kern, eps = HeatKernel(h3), np.finfo(float).eps
    tau_max = kern.tau_max(r)
    us = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.7,
                   0.9, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
    taus = tau_max * us
    got = kern.profile_x(r, taus)
    assert [kern.profile_x(r, float(t)) for t in taus] == got.tolist()
    newton, brent = [], []
    with mp.workdps(40):
        for tau, x in zip(taus, got):
            t = mp.mpf(tau)
            a = -1.5 * mp.log(4 * mp.pi * t) - t + 3 * mp.log(mp.mpf(r))

            def F(y):
                u = mp.sqrt(y)
                return a - y / (4 * t) + (mp.log(u / mp.sinh(u)) if y else 0)

            lo, hi = mp.mpf(0), 2 * mp.mpf(x) ** 2
            for _ in range(160):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if F(mid) > 0 else (lo, mid)
            sl = kern.at(float(tau))
            xb = brentq(lambda s: sl.value(s) - r ** -3.0, 0.0, 10.0,
                        xtol=1e-14, rtol=4.0 * eps)
            shift = 4.0 * tau * eps * (abs(1.5 * math.log(4.0 * math.pi * tau)) + tau
                                       + abs(3.0 * math.log(r)) + 1.0)
            newton.append(float(abs(x * x - lo)) / shift)
            brent.append(float(abs(xb * xb - lo)) / shift)
    assert max(newton) <= 4.0
    assert max(newton) <= max(brent)


@pytest.mark.parametrize("geom", [FlowGeometry.gaussian_soliton(2),
                                  FlowGeometry.shrinking_sphere(2),
                                  FlowGeometry.shrinking_sphere(3), FlowGeometry.hyperbolic(3)],
                         ids=["gaussian2", "s2", "s3", "h3"])
def test_reduced_slice_matches_shooting(geom):
    # the closed-form slice against the shot ell on a (rho, tau) grid: the
    # value to 1e-10 relative, d log K/dx and d log K/dtau against centered
    # differences of the shot ell within their step error, which is
    # |D(2h) - D(h)| (three times the h^2 error of D(h)) plus the shots'
    # ODE_RTOL noise over the step
    field = ReducedDistanceField(geom)
    kern, n = SubHeatKernel(field), geom.n
    for tau in (0.05, 0.2, 0.4):
        sl = kern.at(tau)
        for rho in (0.0, 0.3, 0.8, 1.5):
            x = geom.x_of_rho(rho, -tau)
            ell = field.ell_cm(x, tau)
            want = (4.0 * math.pi * tau) ** (-n / 2.0) * math.exp(-ell)
            assert sl.value(x) == pytest.approx(want, rel=1e-10, abs=0.0)
            noise = ODE_RTOL * (1.0 + ell)

            def dtau(h):
                return -n / (2.0 * tau) - (field.ell_cm(x, tau + h)
                                           - field.ell_cm(x, tau - h)) / (2.0 * h)
            h = 1e-3 * tau
            step = abs(dtau(2.0 * h) - dtau(h)) + noise / h
            assert abs(sl.dtau_log(x) - dtau(h)) <= step
            if x == 0.0:
                assert sl.dlog(x) == 0.0
                continue

            def dx(h):
                return -(field.ell_cm(x + h, tau) - field.ell_cm(x - h, tau)) / (2.0 * h)
            h = 1e-3 * x
            step = abs(dx(2.0 * h) - dx(h)) + noise / h
            assert abs(sl.dlog(x) - dx(h)) <= step


@pytest.mark.parametrize("tau", [0.0, -0.1, -math.inf])
def test_slice_needs_positive_tau(tau, e2, h3, khat_s3):
    for kern in (HeatKernel(e2), HeatKernel(h3), khat_s3):
        with pytest.raises(DomainError):
            kern.at(tau)


def test_heat_kernel_unsupported():
    with pytest.raises(UnsupportedError):
        HeatKernel(FlowGeometry.hyperbolic(2))
    with pytest.raises(UnsupportedError):
        HeatKernel(FlowGeometry.shrinking_sphere(3))


def kernel_mass(kern, tau):
    """Spatial integral of a parabolic kernel at backward time tau."""
    sl = kern.at(tau)
    area = unit_sphere_area(kern.n)

    def f(x):
        return sl.value(x) * area * sl.warp(x) ** (kern.n - 1) * sl.sm

    hi = kern.geom.x_max()
    if math.isinf(hi):
        hi = 2.0 * math.sqrt(4.0 * tau * 745.0)  # exp underflow horizon
    val, _ = integrate_1d(f, 0.0, hi, epsabs=1e-10, epsrel=1e-9)
    return val


def test_masses(e2, e3, h3, khat_flat2, khat_s3):
    assert kernel_mass(HeatKernel(e2), 0.3) == pytest.approx(1.0, abs=1e-9)
    assert kernel_mass(HeatKernel(e3), 0.5) == pytest.approx(1.0, abs=1e-9)
    assert kernel_mass(HeatKernel(h3), 0.4) == pytest.approx(1.0, abs=1e-8)
    assert kernel_mass(khat_flat2, 0.25) == pytest.approx(1.0, abs=1e-6)
    # on the shrinking sphere the mass is the reduced volume: at most one
    assert kernel_mass(khat_s3, 0.2) <= 1.0 + 1e-6


def test_level_monotonicity(e2, h3, khat_s3):
    for kern, taus in ((HeatKernel(e2), (0.1, 0.3)), (HeatKernel(h3), (0.2,)),
                       (khat_s3, (0.15,))):
        for tau in taus:
            xs = np.linspace(0.05, 1.2, 12)
            vals = [kern.at(tau).value(x) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_liyau_values(e2, e3, khat_flat2):
    h2 = HeatKernel(e2)
    assert liyau_expression(h2, 0.7, 0.25) == pytest.approx(4.0, abs=1e-12)
    h3e = HeatKernel(e3)
    assert liyau_expression(h3e, 1.3, 0.5) == pytest.approx(3.0, abs=1e-12)
    # reduced-distance kernel on the flat model: the closed form is the Gaussian's
    assert liyau_expression(khat_flat2, 0.9, 0.25) == pytest.approx(4.0, abs=1e-12)


def test_liyau_upper_bound_euclidean(e2, rng):
    kern = HeatKernel(e2)
    for _ in range(10):
        d, tau = float(rng.uniform(0, 2)), float(rng.uniform(0.05, 1.0))
        assert liyau_expression(kern, d, tau) <= 2.0 / (2.0 * tau) + 1e-10


def test_liyau_hyperbolic_evaluates_only(h3):
    # negative curvature: the n/(2 tau) bound is not claimed, only that the
    # expression evaluates consistently with the value-based route
    kern = HeatKernel(h3)
    for d, tau in ((0.5, 0.2), (1.5, 0.4), (1e-5, 0.2)):
        q = liyau_expression(kern, d, tau)
        assert math.isfinite(q)
        val, grad, dtau = kern.at(tau).sample(d)
        assert q == pytest.approx((grad / val) ** 2 - dtau / val, rel=1e-12)


def test_subheat_flat_values(khat_flat2):
    sl = khat_flat2.at(0.25)
    val, grad, dtau = sl.sample(1.0)
    assert val == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-9)
    assert sl.value(0.0) == pytest.approx(1.0 / math.pi, rel=1e-9)
    # gradient matches the Gaussian's
    assert grad == pytest.approx(val * 1.0 / (2.0 * 0.25), rel=1e-12)


def test_subheat_subsolution_direction_s3(rd_s3, khat_s3):
    """(d/dtau - Lap + R) of the reduced-distance kernel is < 0.

    Evaluated through the second-order residual of ell, from the closed
    form's exact derivatives; the expression is strictly positive on the
    shrinking sphere away from the flat limit, so the kernel is a strict
    subsolution of the conjugate heat equation.
    """
    from mvlab.mv_parabolic import soliton_residuals
    samples = [(0.5, 0.1), (0.8, 0.2), (1.2, 0.3)]
    chk = soliton_residuals(rd_s3, samples)
    for (rho, tau), w in zip(samples, chk.conjugate_heat):
        khat = khat_s3.at(tau).value(khat_s3.geom.x_of_rho(rho, -tau))
        assert -khat * w < 0.0  # a strict subsolution
        assert w > 0.0          # one-sided: the expression itself is positive


# --------------------------------------------------------------------------- #
# mean curvature flow kernel
# --------------------------------------------------------------------------- #
def mcf_sup_heat_kernel(x0, y, tau, n):
    """Ambient Gaussian with intrinsic normalization n at backward time tau."""
    if tau <= 0:
        raise DomainError("backward time tau must be positive")
    d2 = sum((float(a) - float(b)) ** 2 for a, b in zip(x0, y))
    return (4.0 * math.pi * tau) ** (-n / 2.0) * math.exp(-d2 / (4.0 * tau))


def mean_curvature_sq(track, tau):
    # |H|^2 = (n / radius)^2 = n / (2 tau)
    return track.n / (2.0 * tau)


def test_mcf_kernel_values():
    val = mcf_sup_heat_kernel((0.0,), (math.sqrt(2.0),), 1.0, 1)
    assert val == pytest.approx((4.0 * math.pi) ** -0.5 * math.exp(-0.5),
                                rel=1e-14)
    assert val == pytest.approx(0.1710991, abs=1e-6)
    assert mcf_sup_heat_kernel((0.0, 0.0), (0.0, 0.0), 1.0, 2) == \
        pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)
    with pytest.raises(DomainError):
        mcf_sup_heat_kernel((0.0,), (1.0,), 0.0, 1)


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.25, 4.0), y=st.floats(-3.0, 3.0), tau=st.floats(0.05, 2.0))
def test_mcf_kernel_parabolic_scaling(lam, y, tau):
    n = 1
    base = mcf_sup_heat_kernel((0.0,), (y,), tau, n)
    scaled = mcf_sup_heat_kernel((0.0,), (lam * y,), lam * lam * tau, n)
    assert scaled == pytest.approx(base * lam ** (-n), rel=1e-12)


def test_mcf_track_basics():
    track = McfShrinkingSphereTrack(1)
    assert track.slice_radius(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert mean_curvature_sq(track, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert track.tau_max(1.0) == pytest.approx(1.0 / (4.0 * math.pi * math.e),
                                               rel=1e-15)
