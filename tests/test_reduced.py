"""Reduced geometry: shooting against closed-form oracles, the endpoint
derivative identities, reduced volume and the curvature integral."""

import math
import warnings

import numpy as np
import pytest

from mvlab.errors import CutLocusWarning, DomainError, ShootingError
from mvlab.quad import integrate_1d
from mvlab.reduced import (LGeodesic, ReducedDistanceField, l_length,
                           shoot_l_geodesic)


def sphere_ell_oracle(n, x, tau):
    """Closed form of the reduced distance on the shrinking round sphere.

    Radial geodesics of the homogeneous flow have constant momentum, so the
    angle, the energy and therefore ell are elementary integrals:
    with beta^2 = (n-1)/2 and A = arctan(beta sigma)/beta,

        ell(x, tau) = [ beta^2 x^2 / (beta A) ... ] / sigma
                    = ( x^2 / A + (n/2)(sigma - A) ) / sigma.
    """
    sigma = 2.0 * math.sqrt(tau)
    beta = math.sqrt((n - 1) / 2.0)
    A = math.atan(beta * sigma) / beta
    return (x * x / A + 0.5 * n * (sigma - A)) / sigma


def test_flat_straight_lines(rd_flat2):
    geod = shoot_l_geodesic(rd_flat2.flow, 1.0, 1.0)
    assert geod.x_end == pytest.approx(1.0, abs=1e-11)
    assert geod.length == pytest.approx(1.0, abs=1e-11)
    assert np.allclose(geod.xs, geod.v * geod.sigmas, atol=1e-11)
    assert np.all(np.diff(geod.sigmas) > 0)


def test_flat_ell_oracle_grid(rd_flat2):
    worst = max(abs(rd_flat2.ell(rho, tau) - rho * rho / (4.0 * tau))
                for rho in np.linspace(0.1, 2.0, 10)
                for tau in np.linspace(0.05, 1.0, 10))
    assert worst <= 1e-8


def test_l_length_examples(rd_flat2, s3):
    val, err = l_length(rd_flat2.flow, lambda s: 0.7 * s, 1.0)
    assert val == pytest.approx(0.49, abs=1e-9)
    assert err < 1e-9

    # constant path at the center of the shrinking sphere: pure R-term
    n = 3
    sigma_bar = 1.0
    beta = math.sqrt((n - 1) / 2.0)
    expect = 0.5 * n * (sigma_bar - math.atan(beta * sigma_bar) / beta)
    val, _ = l_length(s3, lambda s: 0.0, sigma_bar)
    assert val == pytest.approx(expect, rel=1e-9)
    geod = shoot_l_geodesic(s3, 0.0, sigma_bar)
    assert geod.length == pytest.approx(expect, rel=1e-9)
    assert geod.x_end == 0.0

    with pytest.raises(DomainError):
        l_length(s3, lambda s: 4.0 * s, 2.0)  # exits the sphere


def test_length_matches_path_quadrature(rd_s3):
    # the accumulated energy agrees with an independent quadrature along the
    # dense solution
    geod = shoot_l_geodesic(rd_s3.flow, 1.3, 1.0, dense=True)
    val, _ = l_length(rd_s3.flow, lambda s: float(geod.sol(s)[0]), 1.0,
                      path_dot=lambda s: float(geod.sol(s)[1]))
    assert val == pytest.approx(geod.length, rel=1e-9)


def test_sphere_ell_against_closed_form(rd_s3):
    worst = 0.0
    for rho in np.linspace(0.1, 1.5, 6):
        for tau in np.linspace(0.05, 0.3, 6):
            x = rd_s3.flow.x_of_rho(rho, -tau)
            worst = max(worst, abs(rd_s3.ell_cm(x, tau)
                                   - sphere_ell_oracle(3, x, tau)))
    assert worst <= 1e-9


def test_center_ell(rd_s3, rd_flat2):
    assert rd_flat2.ell(0.0, 0.3) == 0.0
    n, tau = 3, 0.2
    sigma_bar = 2.0 * math.sqrt(tau)
    beta = math.sqrt((n - 1) / 2.0)
    expect = 0.5 * n * (sigma_bar - math.atan(beta * sigma_bar) / beta) / sigma_bar
    assert rd_s3.ell(0.0, tau) == pytest.approx(expect, rel=1e-9)


def test_endpoint_monotone_in_speed(s3):
    ends = [shoot_l_geodesic(s3, v, 1.0).x_end
            for v in np.linspace(0.0, 2.0, 9)]
    assert all(b > a for a, b in zip(ends, ends[1:]))


def test_gauss_identities_flat(rd_flat2):
    for rho, tau in ((1.0, 0.25), (2.0, 1.0), (0.5, 0.1)):
        rs, rt = rd_flat2.first_order_residuals(rho, tau)[:2]
        assert rs <= 1e-6 and rt <= 1e-6
        assert rd_flat2.ell(rho, tau) == pytest.approx(
            rho * rho / (4.0 * tau), abs=1e-9)


def test_gauss_identities_sphere(rd_s3):
    for rho, tau in ((0.8, 0.2), (1.2, 0.3), (0.5, 0.1)):
        rs, rt, eik = rd_s3.first_order_residuals(rho, tau)
        assert rs <= 1e-4 and rt <= 1e-4
        assert eik <= 1e-4


def test_reduced_volume_flat(rd_flat2):
    for tau in (1e-2, 1e-3, 0.25):
        val, err = rd_flat2.reduced_volume(tau)
        assert val == pytest.approx(1.0, abs=1e-6)
        assert err <= 1e-6


def test_reduced_volume_sphere_monotone(rd_s3):
    taus = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    vals = [rd_s3.reduced_volume(t)[0] for t in taus]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b <= a + 1e-5 for a, b in zip(vals, vals[1:]))


def test_k_curvature_flat(rd_flat3):
    val, err = rd_flat3.k_curvature_integral(1.0, 0.25)
    assert abs(val) <= 1e-12


def test_k_curvature_center_oracle(rd_s3, s3):
    # at the center the velocity vanishes and the integral reduces to a
    # one-dimensional quadrature of the closed-form curvature history
    tau_bar = 0.25
    val, _ = rd_s3.k_curvature_integral(0.0, tau_bar)

    def oracle(tau):
        c = 1.0 + 4.0 * tau            # n = 3: c(tau) = 1 + 2(n-1) tau
        R = 6.0 / c
        dR_dtau = -24.0 / (c * c)
        return tau ** 1.5 * (-dR_dtau - R / tau)

    expect, _ = integrate_1d(oracle, 0.0, tau_bar, epsabs=1e-13, epsrel=1e-11)
    assert val == pytest.approx(expect, rel=1e-8)


def test_shooting_errors(s3, rd_s3):
    with pytest.raises(ShootingError) as exc:
        shoot_l_geodesic(s3, 8.0, 1.5)  # crosses the antipode
    assert exc.value.exit_sigma is not None
    assert 0.0 < exc.value.exit_sigma < 1.5

    with pytest.raises(ShootingError):
        rd_s3._solve_velocity_bracketed(3.0, 0.01)  # unreachable target

    with pytest.raises(DomainError):
        shoot_l_geodesic(s3, 1.0, -1.0)
    with pytest.raises(DomainError):
        rd_s3.ell(0.5, -0.1)


def test_cut_locus_warning(monkeypatch, flat2):
    """Distinct bracketed minima trigger the ambiguity warning."""
    import mvlab.reduced as reduced_mod

    field = ReducedDistanceField(flat2)
    real = reduced_mod.shoot_l_geodesic

    def fake(flow, v, sigma_bar, dense=False):
        geod = real(flow, v, sigma_bar, dense)
        # bend the endpoint map into a parabola so two well-separated speeds
        # reach the same target with different energies
        bent = (geod.x_end - 1.0) ** 2 + 0.1
        return LGeodesic(v=geod.v, sigma_bar=geod.sigma_bar,
                         sigmas=geod.sigmas, xs=np.array([0.0, bent]),
                         us=geod.us, length=geod.length,
                         tau_bar=geod.tau_bar)

    monkeypatch.setattr(reduced_mod, "shoot_l_geodesic", fake)
    with pytest.warns(CutLocusWarning):
        field._solve_velocity_bracketed(0.35, 0.25)


def test_ell_upper_bound_by_comparison_curve(rd_s3):
    # the minimizer never exceeds the energy of the constant-speed radial
    # comparison curve to the same endpoint
    for rho, tau in ((0.6, 0.15), (1.1, 0.25)):
        sigma_bar = 2.0 * math.sqrt(tau)
        x_target = rd_s3.flow.x_of_rho(rho, -tau)
        comp, _ = l_length(rd_s3.flow, lambda s: x_target * s / sigma_bar,
                           sigma_bar,
                           path_dot=lambda s: x_target / sigma_bar)
        assert rd_s3.ell(rho, tau) <= comp / (2.0 * math.sqrt(tau)) + 1e-10


def test_ell_continuity_on_grid(rd_s3):
    tau = 0.2
    xs = np.linspace(0.05, 1.4, 28)
    vals = [rd_s3.ell_cm(x, tau) for x in xs]
    steps = np.abs(np.diff(vals))
    assert np.max(steps) <= 0.35  # Lipschitz-scale increments, no jumps
    assert all(b >= a for a, b in zip(vals, vals[1:]))  # radial monotonicity


def test_memo_reuse(rd_flat2):
    before = len(rd_flat2._memo)
    v1 = rd_flat2.ell(1.234567, 0.321)
    mid = len(rd_flat2._memo)
    v2 = rd_flat2.ell(1.234567, 0.321)
    assert v1 == v2
    assert len(rd_flat2._memo) == mid > before - 1
