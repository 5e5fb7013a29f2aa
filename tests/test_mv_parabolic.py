"""Parabolic mean value identities, the Ricci-flow and MCF monotone
quantities, surface-form rewrites and the soliton identities."""

import math

import numpy as np
import pytest

from mvlab.fields import make_field
from mvlab.kernels import (HeatKernel, McfShrinkingSphereTrack, SubHeatKernel,
                           liyau_expression)
from mvlab import mv_parabolic as mvp
from mvlab.quad import integrate_1d
from mvlab.regions import heatball_profile


def fixed_gauss(f, a, b, order=24):
    """Non-adaptive Gauss-Legendre rule; f may be scalar-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    xs = 0.5 * (b - a) * x + 0.5 * (b + a)
    return 0.5 * (b - a) * sum(wi * f(xi) for xi, wi in zip(xs, w))


@pytest.fixture(scope="module")
def heat2(e2):
    return HeatKernel(e2)


@pytest.fixture(scope="module")
def heat3h(h3):
    return HeatKernel(h3)


# --------------------------------------------------------------------------- #
# identities with exact kernels
# --------------------------------------------------------------------------- #
def test_watson_identity(heat2, e2):
    cq = make_field("caloric-quadratic", e2)
    for r in (0.5, 1.0):
        lhs, rhs, resid = mvp.mv_heat_ball(heat2, cq, r)
        assert lhs == 0.0
        assert resid <= 1e-5


def test_heat_sphere_identities(heat2, e2):
    one = make_field("constant-1", e2)
    assert mvp.mv_heat_sphere(heat2, one, 1.0)[2] <= 1e-5
    cq = make_field("caloric-quadratic", e2)
    lhs, rhs, resid = mvp.mv_heat_sphere(heat2, cq, 1.0)
    assert lhs == 0.0 and resid <= 1e-5


def test_heat_ball_unit_field_r3(e3):
    kern = HeatKernel(e3)
    one = make_field("constant-1", e3)
    assert mvp.mv_heat_ball(kern, one, 1.0)[2] <= 1e-5


def test_heat_sphere_curved_static(heat3h, h3):
    for name in ("constant-1", "exp-radial"):
        f = make_field(name, h3)
        _, _, resid = mvp.mv_heat_sphere(heat3h, f, 1.0)
        assert resid <= 1e-4


def test_heat_ball_noncaloric(heat2, e2):
    f = make_field("superharmonic", e2, C=10.0)
    lhs, rhs, resid = mvp.mv_heat_ball(heat2, f, 0.8)
    assert lhs == 10.0
    assert resid <= 1e-5


def test_ball_equals_layered_spheres(heat2, e2):
    # the ball form rhs agrees with the sphere forms integrated in the level
    # parameter (both recover the center value, by independent routes)
    f = make_field("superharmonic", e2, C=10.0)
    r = 0.8
    _, rhs_ball, _ = mvp.mv_heat_ball(heat2, f, r)

    def sphere_rhs(eta):
        _, rhs, _ = mvp.mv_heat_sphere(heat2, f, eta)
        return eta * rhs  # n - 1 = 1 power

    chain = 2.0 * r ** (-2) * fixed_gauss(sphere_rhs, 0.0, r, order=20)
    assert abs(rhs_ball - chain) <= 1e-5


def nested_eta_correction(kernel, field, r):
    """The ball form's correction as the iterated integral of its definition:
    (n/r^n) int_0^r eta^(n-1) int_{E_eta} (K - eta^(-n)) (d/dt - Delta) v."""
    n = kernel.n

    def eta_term(eta):
        sub = heatball_profile(kernel, eta)
        inner, _ = mvp._heat_op_ball_term(field, sub)
        return eta ** (n - 1) * inner

    iterated, _ = integrate_1d(eta_term, 0.0, r, epsabs=1e-11, epsrel=1e-8,
                               limit=60)
    return n * r ** (-n) * iterated


@pytest.mark.parametrize("r", [0.5, 0.8, 1.5])
@pytest.mark.parametrize("model,name", [("e2", "superharmonic"),
                                        ("e3", "superharmonic"),
                                        ("h3", "exp-radial")])
def test_heat_ball_fubini_matches_nested_eta(model, name, r, request):
    geom = request.getfixturevalue(model)
    kern = HeatKernel(geom)
    f = make_field(name, geom, **({"C": 10.0} if name == "superharmonic" else {}))
    assert "caloric" not in f.tags
    _, rhs, _ = mvp.mv_heat_ball(kern, f, r)
    i_v, _ = mvp._i_term(f, heatball_profile(kern, r))
    assert abs(rhs - (i_v + nested_eta_correction(kern, f, r))) <= 1e-9


def test_truncation_cap_convergence(heat2, e2):
    one = make_field("constant-1", e2)
    caps = mvp.truncation_convergence(heat2, one, 1.0, [1e-2, 1e-3, 1e-4])
    drifts = [abs(c - 1.0) for c in caps]
    assert drifts[0] > drifts[1] > drifts[2]
    assert drifts[2] <= 0.02


def test_surface_form_rewrite_static(heat2):
    jr, ir = mvp.surface_form_residual(heat2, 1.0)
    assert jr <= 1e-6 and ir <= 1e-6


def test_forward_j_monotone(heat2, e2):
    f = make_field("superharmonic", e2, C=10.0)
    rep = mvp.forward_j_sweep(heat2, f, [0.5, 0.75, 1.0, 1.25])
    assert rep.direction == "non-increasing"
    assert rep.monotone_ok
    assert rep.values[0] > rep.values[-1]  # strict decrease for this field


# --------------------------------------------------------------------------- #
# Ricci flow quantities
# --------------------------------------------------------------------------- #
def test_flat_equality_case(khat_flat2):
    for r in (0.3, 0.5, 0.8):
        jv, _ = mvp.jhat_quantity(khat_flat2, r)
        iv, _ = mvp.ihat_quantity(khat_flat2, 0.0, r)
        assert abs(jv - 1.0) <= 1e-10
        assert abs(iv - 1.0) <= 1e-10


def test_flat_annulus_constant(khat_flat2):
    r = 0.8
    cache = {}
    for a_frac in (0.0, 0.4, 0.7):
        iv, _ = mvp.ihat_quantity(khat_flat2, a_frac * r, r, _cache=cache)
        assert abs(iv - 1.0) <= 1e-10


def test_s3_sweep_monotone(s3_ricci_sweep):
    out = s3_ricci_sweep
    assert out["jhat"].monotone_ok
    assert out["ihat0"].monotone_ok
    assert out["jhat"].values[0] > out["jhat"].values[-1]


def test_s3_ordering_jhat_le_ihat(s3_ricci_sweep):
    out = s3_ricci_sweep
    grid = out["jhat"].grid
    for a, r, iv, ie in out["pairs"]:
        idx = grid.index(r)
        jv, je = out["jhat"].values[idx], out["jhat"].errors[idx]
        assert jv <= iv + ie + je


def test_s3_ihat_decreasing_in_inner_radius(s3_ricci_sweep):
    # at fixed r the annulus average decreases as the inner radius grows
    out = s3_ricci_sweep
    by_r = {}
    for a, r, iv, ie in out["pairs"]:
        by_r.setdefault(r, []).append((a, iv, ie))
    for r, entries in by_r.items():
        entries.sort()
        for (a0, v0, e0), (a1, v1, e1) in zip(entries, entries[1:]):
            assert v1 <= v0 + e0 + e1


def test_s3_surface_form_rewrite(khat_s3):
    jr, ir = mvp.surface_form_residual(khat_s3, 1.4)
    assert jr <= 1e-4 and ir <= 1e-5


def test_s3_sphere_ball_chain(khat_s3):
    assert mvp.sphere_ball_chain_residual(khat_s3, 1.4) <= 1e-4


def test_flat_sphere_ball_chain(khat_flat2):
    assert mvp.sphere_ball_chain_residual(khat_flat2, 0.5) <= 1e-4


# --------------------------------------------------------------------------- #
# soliton identities and Li-Yau decompositions
# --------------------------------------------------------------------------- #
def test_soliton_identities_flat(rd_flat3):
    # the closed form's exact derivatives: every residual reads 0.0; the
    # bound is 100 roundings of the largest term, n / (2 tau) = 15, and a
    # 1e-9 change of one slice coefficient moves a residual by 1e-9 or more
    samples = [(0.5, 0.2), (1.0, 0.25), (1.5, 0.4), (0.8, 0.1)]
    chk = mvp.soliton_residuals(rd_flat3, samples)
    assert chk.max_abs_conjugate_heat <= 1e-13
    assert chk.max_abs_first_order <= 1e-13
    assert chk.max_abs_entropy <= 1e-13
    assert chk.max_abs_soliton_tensor <= 1e-13


def min_conjugate_heat(chk):
    return np.min(chk.conjugate_heat)


def test_soliton_identities_s3(rd_s3):
    samples = [(0.5, 0.1), (0.8, 0.2), (1.0, 0.3)]
    chk = mvp.soliton_residuals(rd_s3, samples)
    assert chk.max_abs_first_order <= 1e-12  # reads 2.7e-15
    # subsolution direction: the second-order expression stays nonnegative
    assert min_conjugate_heat(chk) >= 0.0
    # and is strictly positive here: the flow is not centered at its
    # singular time, so the soliton equality cannot hold
    assert min_conjugate_heat(chk) > 1e-3


def test_liyau_decomposition_flat(rd_flat2):
    kern = SubHeatKernel(rd_flat2)
    kval, _ = rd_flat2.k_curvature_integral(1.0, 0.25)
    assert abs(kval) <= 1e-10
    lhs = liyau_expression(kern, 1.0, 0.25)
    assert abs(lhs - 2.0 / (2.0 * 0.25)) <= 1e-12


def test_liyau_decomposition_s3(rd_s3):
    for rho, tau in ((0.8, 0.2), (1.2, 0.3)):
        resid, lhs, rhs = mvp.ly_ricci_residual(rd_s3, rho, tau)
        assert resid <= 1e-8


def test_liyau_decomposition_circle():
    for tau in (0.5, 1.0):
        resid, lhs, rhs = mvp.ly_mcf_residual(McfShrinkingSphereTrack(1), tau)
        assert resid <= 1e-8


# --------------------------------------------------------------------------- #
# mean curvature flow
# --------------------------------------------------------------------------- #
def test_gaussian_density_values():
    assert mvp.gaussian_density(1) == pytest.approx(
        math.sqrt(2.0 * math.pi / math.e), abs=1e-12)
    assert mvp.gaussian_density(2) == pytest.approx(4.0 / math.e, rel=1e-12)
    # tau-independence on the homothetic track
    assert mvp.gaussian_density(1, tau=0.3) == pytest.approx(
        mvp.gaussian_density(1, tau=2.0), rel=1e-13)


def test_track_quantities_equal_density():
    for n in (1, 2):
        track = McfShrinkingSphereTrack(n)
        theta = mvp.gaussian_density(n)
        for r in (0.5, 1.0, 2.0):
            assert mvp.jbar_quantity(track, r)[0] == pytest.approx(
                theta, abs=1e-4)
            assert mvp.ibar_quantity(track, 0.0, r)[0] == pytest.approx(
                theta, abs=1e-4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_track_ibar_integrates_exact_liyau(n):
    # the homothetic track's Li-Yau expression n/(2 tau) against its
    # two-path form |grad^T log K|^2 - (log K)_tau
    track = McfShrinkingSphereTrack(n)
    for tau in np.geomspace(1e-6, 1e3, 37):
        two_path = (track.grad_tangential(tau) ** 2
                    - track.dtau_material(tau) / track.value(tau))
        assert abs(n / (2.0 * tau) - two_path) <= 4 * math.ulp(n / (2.0 * tau))
    theta = mvp.gaussian_density(n)
    for r in (0.5, 1.0, 2.0):
        for a in (0.0, r / 2):
            val, err = mvp.ibar_quantity(track, a, r)
            assert abs(val - theta) <= err


@pytest.mark.parametrize("n", [1, 2, 3])
def test_track_ibar_against_mpmath(n):
    # the difference of slice areas against a 30-digit quadrature of the
    # Li-Yau integrand n/(2 tau) slice_area(tau) between the same top times,
    # within the rounding bound it reports
    mp = pytest.importorskip("mpmath")
    track = McfShrinkingSphereTrack(n)
    with mp.workdps(30):
        area = 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
        for r in (0.5, 1.0, 2.0):
            for a in (0.0, r / 2):
                val, err = mvp.ibar_quantity(track, a, r)
                lo = track.tau_max(a) if a else 0
                want = mp.quad(lambda tau: n / (2 * tau) * area * (2 * n * tau) ** (mp.mpf(n) / 2),
                               [lo, track.tau_max(r)]) / (mp.mpf(r) ** n - mp.mpf(a) ** n)
                assert abs(val - want) <= err <= 1e-14, (r, a)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_track_jbar_against_mpmath(n):
    # the Gaussian density (4 pi)^(-n/2) e^(-n/2) (2n)^(n/2) |S^n| at 30
    # digits, within the rounding bound jbar reports
    mp = pytest.importorskip("mpmath")
    track = McfShrinkingSphereTrack(n)
    with mp.workdps(30):
        area = 2 * mp.pi ** (mp.mpf(n + 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
        want = (2 * n / (4 * mp.pi)) ** (mp.mpf(n) / 2) * mp.exp(-mp.mpf(n) / 2) * area
        for r in (0.5, 1.0, 1.5):
            val, err = mvp.jbar_quantity(track, r)
            assert abs(val - want) <= err <= 1e-14, r


def test_mcf_sweep_directions():
    out = mvp.mcf_sweep(2, [0.5, 1.0, 1.5, 2.0])
    assert out["jbar"].monotone_ok and out["ibar0"].monotone_ok
    for a, r, iv, ie in out["pairs"]:
        assert iv == pytest.approx(out["density"], abs=1e-4)


def test_mcf_chain_relation():
    # r^n Ibar(0, r) = n int_0^r eta^(n-1) Jbar(eta) deta on the track
    n = 2
    track = McfShrinkingSphereTrack(n)
    r = 1.2
    lhs = r ** n * mvp.ibar_quantity(track, 0.0, r)[0]
    rhs = n * fixed_gauss(
        lambda eta: eta ** (n - 1) * mvp.jbar_quantity(track, eta)[0],
        0.0, r, order=24)
    assert abs(lhs - rhs) / abs(rhs) <= 1e-6
