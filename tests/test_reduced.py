"""Reduced geometry: shooting against closed-form oracles, the endpoint
derivative identities, reduced volume and the curvature integral."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvlab import reduced
from mvlab.errors import DomainError, ShootingError
from mvlab.geometry import FlowGeometry
from mvlab.kernels import ReducedSlice, SubHeatKernel
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


def test_length_matches_path_quadrature(rd_flat2, rd_s3):
    """A variational oracle: the closed-form radial minimizer x(sigma) =
    p A(sigma), A = arctan(beta sigma) / beta (sigma on flat space), has
    constant momentum p = m^2 dx/dsigma, and its path energy by quadrature is
    sigmabar ell and the shot's length; a sine bump of either sign that keeps
    both ends makes it longer."""
    for field, beta, rho, tau in ((rd_flat2, 0.0, 1.0, 0.25), (rd_s3, 1.0, 0.8, 0.2)):
        flow, sigma_bar = field.flow, 2.0 * math.sqrt(tau)
        x_bar = flow.x_of_rho(rho, -tau)
        p = x_bar * beta / math.atan(beta * sigma_bar) if beta else x_bar / sigma_bar
        k = math.pi / sigma_bar
        ell = SubHeatKernel(field).at(tau).ell_jet(x_bar)[0]
        for bump in (0.0, 1e-2, -1e-2):
            val, _ = l_length(
                flow, lambda s: (p * math.atan(beta * s) / beta if beta else p * s)
                + bump * math.sin(k * s), sigma_bar,
                path_dot=lambda s: p / flow.m2(-0.25 * s * s) + bump * k * math.cos(k * s))
            if bump:
                assert val > sigma_bar * ell + 1e-6
            else:
                assert abs(val - sigma_bar * ell) <= 1e-12
                assert val == pytest.approx(field.geodesic_to(rho, tau).length, rel=1e-10)


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
        # the shot reads the closed form to roundoff: 4.4e-16 at most
        rs, rt = rd_flat2.first_order_residuals(rho, tau)[:2]
        assert rs <= 1e-13 and rt <= 1e-13
        assert rd_flat2.ell(rho, tau) == pytest.approx(
            rho * rho / (4.0 * tau), abs=1e-13)


def test_gauss_identities_sphere(rd_s3):
    for rho, tau in ((0.8, 0.2), (1.2, 0.3), (0.5, 0.1)):
        # the RK45 shot against the closed form: 2.2e-11 and 3.8e-11 at most
        rs, rt, eik = rd_s3.first_order_residuals(rho, tau)
        assert rs <= 1e-8 and rt <= 1e-8
        assert eik <= 1e-8


def reshot_geodesic_to(self, rho, tau):
    """A `geodesic_to` that lands the speed, then shoots it a second time."""
    v, _ = self._solve_velocity(self.flow.x_of_rho(rho, -tau), tau)
    return shoot_l_geodesic(self.flow, v, 2.0 * math.sqrt(tau))


def count_shots(monkeypatch):
    """Wrap `reduced.solve_ivp`; the returned list grows by one per shot."""
    calls, solve_ivp = [], reduced.solve_ivp

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)
    monkeypatch.setattr(reduced, "solve_ivp", counted)
    return calls


def test_residuals_reuse_the_landed_geodesic(rd_s3, monkeypatch):
    # the derivatives come from the closed form, so the landed geodesic is
    # the only one shot (flat speed and rescale), and it is the one a second
    # shot at its speed would give: the same residuals bit for bit
    calls = count_shots(monkeypatch)
    residuals = rd_s3.first_order_residuals(0.8, 0.2)
    assert len(calls) == 2
    monkeypatch.setattr(ReducedDistanceField, "geodesic_to", reshot_geodesic_to)
    calls.clear()
    assert rd_s3.first_order_residuals(0.8, 0.2) == residuals
    assert len(calls) == 3


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


def test_k_curvature_makes_no_shot(rd_s3, monkeypatch):
    # the integral runs along the closed-form minimizer, whose constant
    # momentum the shot keeps: u = p / m^2 at every accepted step
    calls = count_shots(monkeypatch)
    rd_s3.k_curvature_integral(0.9, 0.25)
    assert calls == []
    geod = rd_s3.geodesic_to(0.9, 0.25)
    momentum = geod.us * np.array([rd_s3.flow.m2(-0.25 * s * s) for s in geod.sigmas])
    sigma_bar = 2.0 * math.sqrt(0.25)
    p = geod.x_end / math.atan(sigma_bar)  # x = p arctan(sigma) on S3
    assert np.max(np.abs(momentum - p)) <= 1e-10 * p


@pytest.mark.parametrize("coefficient", ["ell0", "ell2", "dtau0", "dtau2"])
def test_perturbed_closed_form_fails_a_row(coefficient, monkeypatch):
    """The reduced and ricci rows read the closed form to rounding: scaling
    one of its coefficients by 1 + 1e-9 fails at least one of them."""
    from mvlab import suites
    init = ReducedSlice.__init__

    def perturbed(self, kern, tau):
        init(self, kern, tau)
        setattr(self, coefficient, getattr(self, coefficient) * (1.0 + 1e-9))
    monkeypatch.setattr(ReducedSlice, "__init__", perturbed)
    failed = [c.name for suite in ("reduced", "ricci")
              for c in suites.run_suite(suite).checks if not c.passed]
    assert failed, coefficient


# (flow, x, tau, shot ell_cm): the bits of the RK45 shots at
# ODE_RTOL/ODE_ATOL, flat-speed start and rescale; these 12 points take 18
# solve_ivp calls with 1,698 right-hand side evaluations in all
SHOT_ELL_PINS = (
    ("s2", 0.3, 0.05, 0.49608560240128635),
    ("s2", 1.7, 0.2, 4.1597078086043275),
    ("s2", 3.1405926535897932, 0.01, 248.22485349960633),
    ("s3", 0.7, 0.2, 1.026950769026804),
    ("s3", 2.0, 0.1, 11.377383706878515),
    ("s3", 0.05, 1e-06, 625.0008353324394),
    ("e2", 0.5, 0.3, 0.20833333333333334),
    ("e2", 2.0, 2.0, 0.4999999999999998),
    ("e2", 0.05, 0.01, 0.06249999999999999),
    ("h3", 0.7, 0.25, 0.48999999999999994),
    ("h3", 2.0, 0.3, 3.333333333333334),
    ("h3", 0.4, 1.0, 0.04),
)


def test_shot_ell_bits_and_work_are_pinned(monkeypatch, s2, s3, e2, h3):
    """A change to the shot (its right-hand side, its exit test) must take
    the same steps and give the same bits."""
    from mvlab import reduced
    nfev, solve_ivp = [], reduced.solve_ivp

    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        nfev.append(sol.nfev)
        return sol
    monkeypatch.setattr(reduced, "solve_ivp", counted)
    flows = {"s2": s2, "s3": s3, "e2": e2, "h3": h3}
    got = [(name, x, tau, ReducedDistanceField(flows[name]).ell_cm(x, tau))
           for name, x, tau, _ in SHOT_ELL_PINS]
    assert got == list(SHOT_ELL_PINS)  # float == on these values is bit equality
    assert (len(nfev), sum(nfev)) == (18, 1698)


def test_shooting_errors(s3, rd_s3):
    with pytest.raises(ShootingError) as exc:
        shoot_l_geodesic(s3, 8.0, 1.5)  # crosses the antipode
    # on S3 u = v / (1 + sigma^2), so x = v arctan(sigma) reaches the cap
    # pi - 1e-9 at sigma = tan((pi - 1e-9) / v); the samples locate it
    exact = math.tan((math.pi - 1e-9) / 8.0)
    assert exc.value.exit_sigma == pytest.approx(exact, rel=1e-3)

    with pytest.raises(ShootingError):
        rd_s3.ell_cm(3.2, 0.01)  # past the antipode: the flat speed exits

    with pytest.raises(DomainError):
        shoot_l_geodesic(s3, 1.0, -1.0)
    with pytest.raises(DomainError):
        rd_s3.ell(0.5, -0.1)


def test_each_solve_lands_within_three_shots(monkeypatch, s2, s3, e2, h3):
    """The endpoint map is linear in the speed, so the flat speed and one
    rescale land, and a third shot at most absorbs the ODE error, up to
    x = pi - 2e-9 on the spheres."""
    import mvlab.reduced as reduced_mod

    shots = []
    real = reduced_mod.shoot_l_geodesic

    def counted(flow, v, sigma_bar):
        shots.append(v)
        return real(flow, v, sigma_bar)

    monkeypatch.setattr(reduced_mod, "shoot_l_geodesic", counted)
    for flow in (s2, s3, e2, h3):
        field = ReducedDistanceField(flow)
        for x in (0.05, 0.7, 2.0, math.pi - 1e-3, math.pi - 2e-9):
            for tau in (1e-6, 0.01, 0.3, 2.0):
                shots.clear()
                _, geod = field._solve_velocity(x, tau)
                assert 1 <= len(shots) <= 3, (flow.kind, x, tau, len(shots))
                assert abs(geod.x_end - x) <= 1e-12 * max(1.0, x)


def test_bent_endpoint_map_raises(monkeypatch, flat2):
    """An endpoint map that the rescaling cannot land on is a ShootingError,
    not a silent answer."""
    import mvlab.reduced as reduced_mod

    field = ReducedDistanceField(flat2)
    real = reduced_mod.shoot_l_geodesic

    def fake(flow, v, sigma_bar):
        geod = real(flow, v, sigma_bar)
        # bend the endpoint map into a parabola so two well-separated speeds
        # reach the same target with different energies
        bent = (geod.x_end - 1.0) ** 2 + 0.1
        return LGeodesic(v=geod.v, sigma_bar=geod.sigma_bar,
                         sigmas=geod.sigmas, xs=np.array([0.0, bent]),
                         us=geod.us, length=geod.length)

    monkeypatch.setattr(reduced_mod, "shoot_l_geodesic", fake)
    with pytest.raises(ShootingError):
        field.ell_cm(0.35, 0.25)


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


def test_production_paths_do_not_shoot(monkeypatch, capsys):
    # Jhat, Ihat, the reduced volume and their sweeps evaluate the closed
    # form: with the ODE solver gone every one of them still succeeds
    from mvlab import mv_parabolic as mvp
    from mvlab import reduced
    from mvlab.cli import main
    from mvlab.geometry import FlowGeometry
    from mvlab.kernels import SubHeatKernel

    def shot(*args, **kwargs):
        raise AssertionError("a production path shot a geodesic")
    monkeypatch.setattr(reduced, "solve_ivp", shot)
    for name, geom in (("shrinking-s3", FlowGeometry.shrinking_sphere(3)),
                       ("gaussian", FlowGeometry.gaussian_soliton(2))):
        field = ReducedDistanceField(geom)
        kern = SubHeatKernel(field)
        assert math.isfinite(mvp.jhat_quantity(kern, 0.8)[0])
        assert math.isfinite(mvp.ihat_quantity(kern, 0.4, 0.8)[0])
        assert math.isfinite(field.reduced_volume(0.2)[0])
        for quantity in ("theta", "jhat", "ihat"):
            assert main(["sweep", "--quantity", quantity, "--geometry", name,
                         "--steps", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 6 * 4
    with pytest.raises(AssertionError, match="shot a geodesic"):
        field.ell_cm(0.5, 0.2)  # the oracle still shoots


def flow_method_rhs(flow):
    """The sigma-form ODE in (x, u, L) built from the flow's methods, as the
    shot evaluated it before its coefficients were bound in closed form: the
    oracle of `reduced._rhs`."""
    m2_of, dm2_dtau, scalar_R = flow.m2, -flow.dm2_dt(), flow.scalar_R

    def rhs(sigma, state):
        x, u, _ = state
        tau = 0.25 * sigma * sigma
        m2 = m2_of(-tau)
        # all realized models are homogeneous in x: d_x(m^2) = d_x R = 0
        return (u, -sigma * u * dm2_dtau / (2.0 * m2), m2 * u * u + tau * scalar_R(-tau))
    return rhs


def _same_as_scipy(fun, t_span, y0, rtol, atol, ref_fun=None):
    """Run the in-house RK45 loop on ``fun`` and scipy's solve_ivp on
    ``ref_fun`` (``fun`` if None) and require the same steps and the same
    bits; returns scipy's solution."""
    ours = reduced.solve_ivp(fun, t_span, y0, method="RK45", rtol=rtol, atol=atol)
    ref = scipy.integrate.solve_ivp(ref_fun or fun, t_span, y0, method="RK45", rtol=rtol,
                                    atol=atol)
    assert ours.t.tolist() == ref.t.tolist()  # float == is bit equality here
    assert ours.y.tolist() == ref.y.tolist()
    assert (ours.nfev, ours.success) == (ref.nfev, ref.success)
    return ref


SHOT_FLOWS = {"s2": FlowGeometry.shrinking_sphere(2),
              "s3": FlowGeometry.shrinking_sphere(3),
              "e2": FlowGeometry.euclidean(2),
              "h3": FlowGeometry.hyperbolic(3),
              "gaussian": FlowGeometry.gaussian_soliton(2)}


def test_rk45_loop_is_scipy_bit_for_bit():
    """Shots as `shoot_l_geodesic` makes them, the closed-form right-hand side
    on the in-house loop against the flow-method one on scipy's solve_ivp:
    the draw holds shots that leave the sphere and shots with rejected steps
    (small speeds on S2 and S3 reject the first trial step)."""
    seen = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(SHOT_FLOWS)),
           v=st.one_of(st.floats(1e-3, 1.5e-2), st.floats(0.0, 12.0)),
           sigma_bar=st.floats(0.01, 2.0))
    @example(name="s2", v=0.0043, sigma_bar=0.71)   # rejects a step
    @example(name="s3", v=8.0, sigma_bar=1.5)       # crosses the antipode
    def shot(name, v, sigma_bar):
        flow = SHOT_FLOWS[name]
        ref = _same_as_scipy(reduced._rhs(flow), (0.0, sigma_bar),
                             (0.0, float(v), 0.0), reduced.ODE_RTOL,
                             reduced.ODE_ATOL, ref_fun=flow_method_rhs(flow))
        steps = len(ref.t) - 1
        seen.append((ref.nfev > 6 * steps + 2,
                     ref.y[0, -1] >= flow.x_max() - 1e-9))
    shot()
    rejected, exited = (sum(col) for col in zip(*seen))
    assert rejected >= 1 and exited >= 1, (rejected, exited, len(seen))


def test_rk45_loop_fails_where_scipy_fails():
    # x' = x^2 blows up at t = 1: the step falls below scipy's minimum, and
    # the loop returns success=False with scipy's samples instead of raising
    ref = _same_as_scipy(lambda t, y: (y[0] * y[0], 0.0, 0.0), (0.0, 2.0),
                         (1.0, 0.0, 0.0), 1e-3, 1e-6)
    assert not ref.success and 0.999 < ref.t[-1] < 1.0
    for method, t_span in (("DOP853", (0.0, 1.0)), ("RK45", (1.0, 0.0))):
        with pytest.raises(ValueError, match="RK45 on an increasing span"):
            reduced.solve_ivp(lambda t, y: y, t_span, (1.0, 0.0, 0.0), method=method)


@pytest.mark.parametrize("component", range(3))
def test_rk45_loop_takes_scipys_path_through_nan(component, s3):
    """A right-hand side that turns NaN past sigma = 0.6 in one component:
    every trial step past it is rejected by scipy's NaN ordering (a NaN error
    never passes ``err < 1``, and max(MIN_FACTOR, NaN) shrinks the step) until
    the step falls below the minimum, as in scipy."""
    rhs = reduced._rhs(s3)

    def fun(sigma, state):
        f = list(rhs(sigma, state))
        if sigma > 0.6:
            f[component] = math.nan
        return f
    ref = _same_as_scipy(fun, (0.0, 1.0), (0.0, 1.3, 0.0), reduced.ODE_RTOL,
                         reduced.ODE_ATOL)
    assert not ref.success and ref.t[-1] <= 0.6 and np.isfinite(ref.y).all()


def test_rk45_loop_takes_scipys_tableau():
    rk = scipy.integrate.RK45
    loaded, expo, stages = reduced._rk45()
    assert loaded is rk  # B, E and P are read off the class
    assert expo == 1 / (rk.error_estimator_order + 1)
    for s, (c, a) in stages:
        assert c == rk.C[s] and a.base is rk.A and a.tolist() == rk.A[s].tolist()
    assert [s for s, _ in stages] == list(range(1, rk.n_stages))
