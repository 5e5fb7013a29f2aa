"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and match the contract; the heavy
shrinking-sphere computations come from session fixtures shared with the
module tests.
"""

import math
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from mvlab.fields import make_field
from mvlab.kernels import (GreenKernel, HeatKernel, McfShrinkingSphereTrack,
                           SubGreenKernel, SubHeatKernel, SupGreenKernel,
                           unit_sphere_area)
from mvlab.quad import integrate_1d
from mvlab import mv_elliptic as mve
from mvlab import mv_parabolic as mvp

from geometry_oracles import (SpaceTimePoint, spacetime_christoffels,
                              spacetime_christoffels_fd, spacetime_divergence,
                              spacetime_divergence_fd)


def report(num, title, ok, detail):
    line = f"[acceptance] criterion {num:2d} ({title}): " \
           f"{'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_watson(e2):
    kern = HeatKernel(e2)
    cq = make_field("caloric-quadratic", e2)
    resids, worst_time = [], 0.0
    for r in (0.5, 1.0):
        t0 = time.time()
        lhs, _, resid = mvp.mv_heat_ball(kern, cq, r)
        worst_time = max(worst_time, time.time() - t0)
        assert lhs == 0.0
        resids.append(resid)
    worst = np.max(resids)  # NaN-propagating, unlike the builtin max
    report(1, "Watson identity", worst <= 1e-5 and worst_time <= 5.0,
           f"max residual {worst:.2e}, max per-case time {worst_time:.2f}s")


def test_criterion_02_green_flux_and_spherical_mean(e3):
    from mvlab.regions import green_ball, sphere_integrate
    g = GreenKernel(e3)
    worst_flux = np.max([
        abs(sphere_integrate(green_ball(g, r), g.grad_norm)[0] - 1.0)
        for r in (0.5, 1.0, 2.0)])
    hq = make_field("harmonic-quadratic", e3)
    worst_j = np.max([abs(mve.j_quantity(g, hq, r)[0])
                      for r in (0.5, 0.75, 1.0, 1.5, 2.0)])
    report(2, "Green flux & spherical mean",
           worst_flux <= 1e-8 and worst_j <= 1e-7,
           f"flux dev {worst_flux:.2e}, harmonic J dev {worst_j:.2e}")


def test_criterion_03_derivative_formula(e3):
    g = GreenKernel(e3)
    f = make_field("superharmonic", e3, C=10.0)
    fd, _, _ = mve.j_derivative_residual(g, f, 1.0)
    target = -3.0 / (8.0 * math.pi ** 2)
    dev = abs(fd - target)
    report(3, "derivative formula", dev <= 1e-4,
           f"FD dJ/dr = {fd:.6f} vs {target:.6f}, dev {dev:.2e}")


def test_criterion_04_sphere_ball_relation(e3, khat_flat2, khat_s3):
    g = GreenKernel(e3)
    f = make_field("superharmonic", e3, C=10.0)
    rel_e = mve.sphere_ball_relation_residual(g, f, 1.0)
    rel_flat = mvp.sphere_ball_chain_residual(khat_flat2, 0.5)
    rel_s3 = mvp.sphere_ball_chain_residual(khat_s3, 1.4)
    ok = rel_e <= 1e-6 and rel_flat <= 1e-4 and rel_s3 <= 1e-4
    report(4, "sphere/ball relation", ok,
           f"elliptic {rel_e:.2e}, flat chain {rel_flat:.2e}, "
           f"S3 chain {rel_s3:.2e}")


def test_criterion_05_comparison_inequalities(h3):
    sub = SubGreenKernel(h3, k=1.0)
    sup = SupGreenKernel(h3)
    one = make_field("constant-1", h3)
    er = make_field("exp-radial", h3)
    eq_dev = np.max([abs(mve.mv_inequality_deficit(sub, f, 1.0, form))
                     for f in (one, er) for form in ("sphere", "ball")])
    sgn_sub = np.min([mve.mv_inequality_deficit(sub, er, r, "sphere")
                      for r in (0.3, 0.6)])
    sgn_sup = mve.mv_inequality_deficit(sup, one, 1.0, "sphere")
    ok = eq_dev <= 1e-6 and sgn_sub >= -1e-7 and sgn_sup >= -1e-7
    report(5, "sub/sup-Green inequalities", ok,
           f"equality dev {eq_dev:.2e}, signed deficits "
           f"{sgn_sub:.2e} / {sgn_sup:.2e}")


def test_criterion_06_heat_sphere_curved(h3):
    kern = HeatKernel(h3)
    worst = np.max([mvp.mv_heat_sphere(kern, make_field(name, h3), 1.0)[2]
                    for name in ("constant-1", "exp-radial")])
    report(6, "heat-sphere theorem on H3", worst <= 1e-4,
           f"max residual {worst:.2e}")


def test_criterion_07_reduced_flat_oracle(rd_flat2):
    worst_ell = np.max([abs(rd_flat2.ell(rho, tau) - rho * rho / (4.0 * tau))
                        for rho in np.linspace(0.1, 2.0, 10)
                        for tau in np.linspace(0.05, 1.0, 10)])
    theta, _ = rd_flat2.reduced_volume(0.3)
    worst_per = np.max([rd_flat2.first_order_residuals(rho, tau)[:2]
                        for rho, tau in ((1.0, 0.25), (2.0, 1.0), (0.5, 0.1))])
    ok = worst_ell <= 1e-8 and abs(theta - 1.0) <= 1e-6 and worst_per <= 1e-6
    report(7, "reduced geometry flat oracle", ok,
           f"|ell - rho^2/4tau| {worst_ell:.2e}, theta dev "
           f"{abs(theta - 1.0):.2e}, endpoint residuals {worst_per:.2e}")


def test_criterion_08_flat_equality_case(khat_flat2):
    t0 = time.time()
    devs = []
    for r in (0.3, 0.5, 0.8):
        jv, _ = mvp.jhat_quantity(khat_flat2, r)
        iv, _ = mvp.ihat_quantity(khat_flat2, 0.0, r)
        devs += [abs(jv - 1.0), abs(iv - 1.0)]
    worst = np.max(devs)
    elapsed = time.time() - t0
    report(8, "flat equality case", worst <= 1e-10 and elapsed <= 60.0,
           f"max |Jhat,Ihat - 1| = {worst:.2e}, total {elapsed:.1f}s")


def test_criterion_09_s3_monotonicity(s3_ricci_sweep, rd_s3):
    out = s3_ricci_sweep
    grid = out["jhat"].grid
    mono = out["jhat"].monotone_ok and out["ihat0"].monotone_ok
    ordering = all(
        out["jhat"].values[grid.index(r)]
        <= iv + ie + out["jhat"].errors[grid.index(r)]
        for a, r, iv, ie in out["pairs"])
    taus = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    thetas = [rd_s3.reduced_volume(t)[0] for t in taus]
    theta_mono = all(b <= a + 1e-5 for a, b in zip(thetas, thetas[1:]))
    report(9, "S3 monotonicity", mono and ordering and theta_mono,
           f"Jhat {out['jhat'].values[0]:.6f}->{out['jhat'].values[-1]:.6f}, "
           f"ordering {ordering}, theta {thetas[0]:.6f}->{thetas[-1]:.6f}")


def test_criterion_10_soliton_identities(rd_flat3, rd_s3):
    flat = mvp.soliton_residuals(rd_flat3,
                                 [(0.5, 0.2), (1.0, 0.25), (1.5, 0.4)])
    worst_flat = np.max([flat.max_abs_conjugate_heat, flat.max_abs_first_order,
                         flat.max_abs_entropy])
    sphere = mvp.soliton_residuals(rd_s3, [(0.5, 0.1), (0.8, 0.2), (1.0, 0.3)])
    ok = worst_flat <= 1e-6 and sphere.max_abs_first_order <= 1e-4
    report(10, "soliton identities", ok,
           f"flat residuals {worst_flat:.2e}, S3 first-order "
           f"{sphere.max_abs_first_order:.2e}")


def test_criterion_11_liyau_decompositions(rd_s3):
    worst_rf = np.max([mvp.ly_ricci_residual(rd_s3, rho, tau)[0]
                       for rho, tau in ((0.8, 0.2), (1.2, 0.3))])
    mcf_resid, _, _ = mvp.ly_mcf_residual(McfShrinkingSphereTrack(1), 1.0)
    report(11, "Li-Yau decompositions",
           worst_rf <= 1e-8 and mcf_resid <= 1e-8,
           f"Ricci two-path {worst_rf:.2e}, circle {mcf_resid:.2e}")


def test_criterion_12_gaussian_density():
    track = McfShrinkingSphereTrack(1)

    # spatial quadrature of the kernel over the tau = 1 slice
    s = track.slice_radius(1.0)
    val, _ = integrate_1d(lambda theta: track.value(1.0) * s, 0.0,
                          2.0 * math.pi, epsabs=1e-12, epsrel=1e-12)
    target = math.sqrt(2.0 * math.pi / math.e)
    dev_theta = abs(val - target)

    worst_track = np.max([
        [abs(mvp.jbar_quantity(track, r)[0] - target),
         abs(mvp.ibar_quantity(track, 0.0, r)[0] - target)]
        for r in (0.5, 1.0, 2.0)])
    report(12, "MCF Gaussian density",
           dev_theta <= 1e-5 and worst_track <= 1e-4,
           f"Theta dev {dev_theta:.2e}, Jbar/Ibar dev {worst_track:.2e}")


def test_criterion_13_spacetime_lemmas(e2, e3, h3, s2, s3, flat2, rng):
    conns, divs = [], []
    for geom in (e2, e3, h3, s2, s3, flat2):
        t = 0.03 if not geom.is_static else 0.0
        p = SpaceTimePoint(0.7, t)
        conns.append(np.max(np.abs(spacetime_christoffels(geom, p)
                                   - spacetime_christoffels_fd(geom, p, h=1e-4))))
        m = geom.n + 1
        for _ in range(10):
            C = rng.uniform(-0.25, 0.25, size=(m, m))
            D = rng.uniform(-0.1, 0.1, size=(m, m, m))

            def fld(c, C=C, D=D):
                return C @ c + np.einsum("ajk,j,k->a", D, c, c)

            divs.append(abs(spacetime_divergence(geom, fld, p, h=1e-4)
                            - spacetime_divergence_fd(geom, fld, p, h=1e-4)))
    worst_conn, worst_div = np.max(conns), np.max(divs)
    report(13, "space-time lemmas", worst_conn <= 1e-6 and worst_div <= 1e-6,
           f"connection residual {worst_conn:.2e}, divergence residual "
           f"{worst_div:.2e}")


def test_nan_quantities_fail_every_criterion(
        monkeypatch, e2, e3, h3, s2, s3, flat2, khat_flat2, khat_s3, rd_flat2,
        rd_flat3, rd_s3, s3_ricci_sweep, rng):
    """A NaN quantity must fail its criterion.  Each criterion folds its
    values through np.max / np.min, which keep a NaN wherever it sits, or
    compares the value itself; every NaN below sits after the first value
    of its fold (and of the inner fold, for 07 and 12)."""
    nan = float("nan")
    here = sys.modules[__name__]
    target = math.sqrt(2.0 * math.pi / math.e)
    cases = (
        (1, lambda: test_criterion_01_watson(e2),
         [(mvp, "mv_heat_ball", lambda kern, field, r: (
             0.0, 0.0, nan if r == 1.0 else 0.0))]),
        (2, lambda: test_criterion_02_green_flux_and_spherical_mean(e3),
         [(mve, "j_quantity", lambda kern, field, r: (
             nan if r == 1.0 else 0.0, 0.0))]),
        (3, lambda: test_criterion_03_derivative_formula(e3),
         [(mve, "j_derivative_residual", lambda kern, field, r: (
             nan, 0.0, 0.0))]),
        (4, lambda: test_criterion_04_sphere_ball_relation(
            e3, khat_flat2, khat_s3),
         [(mvp, "sphere_ball_chain_residual", lambda kern, r: (
             nan if kern is khat_s3 else 0.0))]),
        (5, lambda: test_criterion_05_comparison_inequalities(h3),
         [(mve, "mv_inequality_deficit", lambda kern, field, r, form: (
             nan if form == "ball" else 0.0))]),
        (5, lambda: test_criterion_05_comparison_inequalities(h3),
         [(mve, "mv_inequality_deficit", lambda kern, field, r, form: (
             nan if r == 0.6 else 0.0))]),
        (6, lambda: test_criterion_06_heat_sphere_curved(h3),
         [(mvp, "mv_heat_sphere", lambda kern, field, r: (
             0.0, 0.0, nan if field.name == "exp-radial" else 0.0))]),
        (7, lambda: test_criterion_07_reduced_flat_oracle(rd_flat2),
         [(type(rd_flat2), "first_order_residuals", lambda self, rho, tau: (
             0.0, nan if rho == 2.0 else 0.0, 0.0))]),
        (8, lambda: test_criterion_08_flat_equality_case(khat_flat2),
         [(mvp, "jhat_quantity", lambda kern, r: (1.0, 0.0)),
          (mvp, "ihat_quantity", lambda kern, a, r: (
              nan if r == 0.5 else 1.0, 0.0))]),
        (9, lambda: test_criterion_09_s3_monotonicity(s3_ricci_sweep, rd_s3),
         [(type(rd_s3), "reduced_volume", lambda self, tau: (
             nan if tau == 0.2 else 1.0, 0.0))]),
        (10, lambda: test_criterion_10_soliton_identities(rd_flat3, rd_s3),
         [(mvp, "soliton_residuals", lambda rd, samples: SimpleNamespace(
             max_abs_conjugate_heat=0.0, max_abs_first_order=0.0,
             max_abs_entropy=nan if rd is rd_flat3 else 0.0))]),
        (11, lambda: test_criterion_11_liyau_decompositions(rd_s3),
         [(mvp, "ly_ricci_residual", lambda rd, rho, tau: (
             nan if rho == 1.2 else 0.0, 0.0, 0.0))]),
        (12, test_criterion_12_gaussian_density,
         [(mvp, "ibar_quantity", lambda track, a, r: (
             nan if r == 1.0 else target, 0.0))]),
        (13, lambda: test_criterion_13_spacetime_lemmas(
            e2, e3, h3, s2, s3, flat2, rng),
         [(here, "spacetime_christoffels", lambda geom, p: (
             spacetime_christoffels_fd(geom, p, h=1e-4)
             * (nan if geom is s2 else 1.0)))]),
        (13, lambda: test_criterion_13_spacetime_lemmas(
            e2, e3, h3, s2, s3, flat2, rng),
         [(here, "spacetime_divergence", lambda geom, fld, p, h: (
             nan if geom is h3
             else spacetime_divergence_fd(geom, fld, p, h=h)))]),
    )
    for num, run, patches in cases:
        with monkeypatch.context() as patch:
            for owner, name, fake in patches:
                patch.setattr(owner, name, fake)
            with pytest.raises(AssertionError,
                               match=f"criterion {num:2d}.*FAIL"):
                run()
