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

from mvlab.errors import DomainError, UnsupportedError
from mvlab.geometry import FlowGeometry, unit_sphere_area
from mvlab.kernels import (GreenKernel, HeatKernel, McfShrinkingSphereTrack,
                           SubGreenKernel, SubHeatKernel, SupGreenKernel,
                           liyau_expression, mcf_sup_heat_kernel)
from mvlab.quad import integrate_1d


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
    # the radial quadrature of H2 and H4 against their closed forms, down to
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


# --------------------------------------------------------------------------- #
# parabolic kernels
# --------------------------------------------------------------------------- #
def test_heat_kernel_values(e2, h3):
    h = HeatKernel(e2)
    assert h.value(0.0, 0.25) == pytest.approx(1.0 / math.pi, rel=1e-15)

    hk = HeatKernel(h3)
    expect = (4.0 * math.pi * 0.5) ** (-1.5) * (1.0 / math.sinh(1.0)) \
        * math.exp(-1.0 / 2.0 - 0.5)
    assert hk.value(1.0, 0.5) == pytest.approx(expect, rel=1e-14)
    assert expect == pytest.approx(1.9877e-2, rel=1e-4)


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
        dtau = _d1(lambda s: kern.value_cm(d, s), tau, 5e-3 * tau)
        lap = (_d2(lambda x: kern.value_cm(x, tau), d, 5e-3)
               + (geom.n - 1) * geom.warp_dr(d) / geom.warp(d)
               * _d1(lambda x: kern.value_cm(x, tau), d, 5e-3))
        worst = max(worst, abs(dtau - lap))
    assert worst <= tol


def test_heat_kernel_analytic_derivatives(h3, rng):
    kern = HeatKernel(h3)
    for _ in range(5):
        d = float(rng.uniform(0.2, 1.5))
        tau = float(rng.uniform(0.2, 0.8))
        assert _d1(lambda x: kern.value_cm(x, tau), d, 1e-3) == pytest.approx(
            kern.dx_cm(d, tau), rel=1e-9)
        assert _d1(lambda s: kern.value_cm(d, s), tau, 1e-3 * tau) == pytest.approx(
            kern.dtau_cm(d, tau), rel=1e-9)


def _per_point_heat(kern, x, tau):
    """The per-point HeatKernel arithmetic the slices replaced, as the
    reference for their bits: (value, |grad|, d/dtau, Li-Yau)."""
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
    grad = abs(value * dlog) / math.sqrt(kern.geom.m2(x, -tau))
    dtau_log = -n / (2.0 * tau) + x * x / (4.0 * tau * tau) - k ** 2
    dtau = value * (-n / (2.0 * tau) + x * x / (4.0 * tau * tau) - k ** 2)
    if k != 0.0:
        liyau = dlog * dlog - dtau_log
    return value, grad, dtau, liyau


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
            value, grad, dtau, liyau = _per_point_heat(kern, x, tau)
            assert (sl.value(x), sl.grad(x), sl.dtau(x), sl.liyau(x)) == \
                (value, grad, dtau, liyau)
            assert sl.sample(x) == (value, grad, dtau)
            assert (kern.value_cm(x, tau), kern.grad_norm_cm(x, tau),
                    kern.dtau_cm(x, tau), kern.liyau_cm(x, tau)) == \
                (value, grad, dtau, liyau)


@pytest.mark.parametrize("geom", [FlowGeometry.euclidean(2), FlowGeometry.euclidean(3),
                                  FlowGeometry.hyperbolic(3)],
                         ids=["e2", "e3", "h3"])
def test_column_slices_match_scalar_slices(geom):
    # the numpy forms on a (times x radii) matrix against the scalar forms,
    # node by node: numpy's exp, sinh and tanh may differ in the last bit
    kern = HeatKernel(geom)
    taus = np.array([[0.03], [0.4], [2.5]])
    xs = np.array([[5e-9, 5e-5, 0.3, 0.71, 1.3, 2.0]] * 3)
    batch = kern.at(taus)
    value = batch.value(xs)
    got = {"value": value, "grad": batch.grad(xs, value), "dtau": batch.dtau(xs, value),
           "liyau": np.broadcast_to(batch.liyau(xs), xs.shape), "warp": batch.warp(xs)}
    for (i, j), x in np.ndenumerate(xs):
        sl = kern.at(float(taus[i, 0]))
        want = {"value": sl.value(x), "grad": sl.grad(x), "dtau": sl.dtau(x),
                "liyau": sl.liyau(x), "warp": sl.warp(x)}
        for name, w in want.items():
            assert got[name][i, j] == pytest.approx(w, rel=1e-14, abs=0.0), name


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
            xb = brentq(lambda s: sl.value_cm(s) - r ** -3.0, 0.0, 10.0,
                        xtol=1e-14, rtol=4.0 * eps)
            shift = 4.0 * tau * eps * (abs(1.5 * math.log(4.0 * math.pi * tau)) + tau
                                       + abs(3.0 * math.log(r)) + 1.0)
            newton.append(float(abs(x * x - lo)) / shift)
            brent.append(float(abs(xb * xb - lo)) / shift)
    assert max(newton) <= 4.0
    assert max(newton) <= max(brent)


def test_generic_slice_keeps_radius_round_trip(khat_s3):
    # ball integrands evaluate at the geodesic radius like the radius-based
    # methods; the level set evaluates at x itself
    tau = 0.2
    sl = khat_s3.at(tau)
    for x in (0.3, 0.7):
        rho = khat_s3.rho_of_x(x, tau)
        assert sl.rho(x) == rho
        assert sl.value(x) == khat_s3.value(rho, tau)
        assert sl.grad(x) == khat_s3.grad_norm(rho, tau)
        assert sl.liyau(x) == khat_s3.liyau(rho, tau)
        assert sl.value_cm(x) == khat_s3.value_cm(x, tau)
        assert sl.sample(x) == (khat_s3.value_cm(x, tau), khat_s3.grad_norm_cm(x, tau),
                                khat_s3.dtau_cm(x, tau))


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
    with pytest.raises(DomainError):
        HeatKernel(FlowGeometry.euclidean(2)).value(0.5, -0.1)


def kernel_mass(kern, tau):
    """Spatial integral of a parabolic kernel at backward time tau."""
    sl = kern.at(tau)
    area = unit_sphere_area(kern.n)

    def f(x):
        return sl.value_cm(x) * area * sl.warp(x) ** (kern.n - 1) * sl.sm

    hi = kern.geom.x_max(-tau)
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
            vals = [kern.value_cm(x, tau) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_liyau_values(e2, e3, khat_flat2):
    h2 = HeatKernel(e2)
    assert liyau_expression(h2, 0.7, 0.25) == pytest.approx(4.0, abs=1e-12)
    h3e = HeatKernel(e3)
    assert liyau_expression(h3e, 1.3, 0.5) == pytest.approx(3.0, abs=1e-12)
    # reduced-distance kernel on the flat model: finite-difference path
    assert liyau_expression(khat_flat2, 0.9, 0.25) == pytest.approx(4.0, abs=1e-5)


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
        val, grad, dtau = kern.evaluate(d, tau)
        assert q == pytest.approx((grad / val) ** 2 - dtau / val, rel=1e-12)


def test_subheat_flat_values(khat_flat2):
    val, grad, dtau = khat_flat2.evaluate(1.0, 0.25)
    assert val == pytest.approx(math.exp(-1.0) / math.pi, rel=1e-9)
    assert khat_flat2.value(0.0, 0.25) == pytest.approx(1.0 / math.pi, rel=1e-9)
    # gradient matches the Gaussian's
    assert grad == pytest.approx(val * 1.0 / (2.0 * 0.25), rel=1e-5)


def test_subheat_subsolution_direction_s3(rd_s3, khat_s3):
    """(d/dtau - Lap + R) of the reduced-distance kernel is <= 0.

    Evaluated through the second-order residual of ell; the expression is
    strictly positive on the shrinking sphere away from the flat limit, so
    the kernel is a strict subsolution of the conjugate heat equation.
    """
    from mvlab.mv_parabolic import soliton_residuals
    samples = [(0.5, 0.1), (0.8, 0.2), (1.2, 0.3)]
    chk = soliton_residuals(rd_s3, samples)
    for (rho, tau), w in zip(samples, chk.conjugate_heat):
        khat = khat_s3.value(rho, tau)
        assert -khat * w <= 1e-6   # subsolution, up to FD noise
        assert w >= -1e-4          # one-sided: never significantly negative


# --------------------------------------------------------------------------- #
# mean curvature flow kernel
# --------------------------------------------------------------------------- #
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
    assert track.mean_curvature_sq(1.0) == pytest.approx(0.5, rel=1e-15)
    assert track.tau_max(1.0) == pytest.approx(1.0 / (4.0 * math.pi * math.e),
                                               rel=1e-15)
