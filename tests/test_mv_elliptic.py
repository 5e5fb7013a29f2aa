"""Elliptic mean value identities, comparison deficits, derivative formulas
and the monotone sweeps."""

import math

import pytest

from mvlab.errors import PreconditionError, UnsupportedError
from mvlab.fields import make_field
from mvlab.kernels import GreenKernel, SubGreenKernel, SupGreenKernel
from mvlab import mv_elliptic as mve
from mvlab.quad import integrate_1d
from mvlab.regions import ball_integrate, green_ball


@pytest.fixture(scope="module")
def green3(e3):
    return GreenKernel(e3)


@pytest.fixture(scope="module")
def sub3(h3):
    return SubGreenKernel(h3, k=1.0)


@pytest.fixture(scope="module")
def sup3(h3):
    return SupGreenKernel(h3)


def test_identity_unit_field(green3, e3):
    one = make_field("constant-1", e3)
    lhs, rhs, resid = mve.mv_identity(green3, one, 1.0, "sphere")
    assert lhs == 1.0 and resid <= 1e-8


def test_identity_harmonic_quadratic(green3, e3):
    hq = make_field("harmonic-quadratic", e3)
    for r in (0.5, 1.0, 2.0):
        _, rhs, _ = mve.mv_identity(green3, hq, r, "sphere")
        assert abs(rhs) <= 1e-7


def test_identity_superharmonic_both_forms(green3, e3):
    f = make_field("superharmonic", e3, C=10.0)
    for form in ("sphere", "ball"):
        lhs, rhs, resid = mve.mv_identity(green3, f, 1.0, form)
        assert lhs == 10.0
        assert resid <= 1e-6


@pytest.mark.parametrize("name", ["constant-1", "linear", "harmonic-quadratic",
                                  "subharmonic", "superharmonic",
                                  "gaussian-translate"])
def test_sphere_ball_form_consistency(green3, e3, name):
    # residuals of the two forms agree within combined quadrature error
    f = make_field(name, e3)
    _, rhs_s, res_s = mve.mv_identity(green3, f, 0.8, "sphere")
    _, rhs_b, res_b = mve.mv_identity(green3, f, 0.8, "ball")
    assert abs(rhs_s - rhs_b) <= 1e-7
    assert max(res_s, res_b) <= 1e-7


def nested_eta_correction(kernel, field, r):
    """The ball form's correction as the iterated integral of its definition:
    n r^(-n) int_0^r eta^(n-1) int_{Omega_eta} (G - eta^(-n)) Dv dmu deta."""
    n = kernel.n

    def eta_term(eta):
        inner, _ = ball_integrate(
            green_ball(kernel, eta), lambda rho: (kernel.value(rho) - eta ** (-n))
            * field.mean_laplacian(rho, 0.0))
        return eta ** (n - 1) * inner

    iterated, _ = integrate_1d(eta_term, 0.0, r, epsabs=1e-12, epsrel=1e-9)
    return n * r ** (-n) * iterated


@pytest.mark.parametrize("r", [0.5, 0.8, 1.5])
@pytest.mark.parametrize("kind,model,name", [
    ("green", "e3", "superharmonic"), ("green", "h3", "exp-radial"),
    ("sub", "h3", "constant-1"), ("sup", "h3", "constant-1")])
def test_ball_form_fubini_matches_nested_eta(kind, model, name, r, request):
    geom = request.getfixturevalue(model)
    f = make_field(name, geom, **({"C": 10.0} if name == "superharmonic" else {}))
    if kind == "green":
        kern = GreenKernel(geom)
        _, rhs, _ = mve.mv_identity(kern, f, r, "ball")
    else:  # the deficit is v(x) - rhs for sub-Green and rhs - v(x) for sup-Green
        kern = SubGreenKernel(geom, k=1.0) if kind == "sub" else SupGreenKernel(geom)
        sign = -1.0 if kind == "sub" else 1.0
        rhs = f.center_value() + sign * mve.mv_inequality_deficit(kern, f, r, "ball")
    i_v, _ = mve.i_quantity(kern, f, r)
    assert abs(rhs - (i_v - nested_eta_correction(kern, f, r))) <= 1e-9


def test_identity_requires_exact_green(sub3, h3):
    one = make_field("constant-1", h3)
    with pytest.raises(UnsupportedError):
        mve.mv_identity(sub3, one, 1.0)


def test_subgreen_equality_on_space_form(sub3, h3):
    # the comparison kernel IS the Green's function of this model, so every
    # deficit degenerates to an identity
    for name in ("constant-1", "exp-radial"):
        f = make_field(name, h3)
        for form in ("sphere", "ball"):
            d = mve.mv_inequality_deficit(sub3, f, 1.0, form)
            assert abs(d) <= 1e-6


def test_subgreen_sign_small_radius(sub3, h3):
    er = make_field("exp-radial", h3)
    for r in (0.3, 0.6):
        assert mve.mv_inequality_deficit(sub3, er, r, "sphere") >= -1e-7


def test_supgreen_sign(sup3, h3):
    one = make_field("constant-1", h3)
    for form in ("sphere", "ball"):
        assert mve.mv_inequality_deficit(sup3, one, 1.0, form) >= -1e-7


def test_deficit_positivity_precondition(sub3, h3):
    bad = make_field("constant-1", h3)
    object.__setattr__(bad, "mean_value", lambda rho, t=0.0: -1.0)
    with pytest.raises(PreconditionError):
        mve.mv_inequality_deficit(sub3, bad, 1.0)


def test_unknown_form_rejected(green3, e3, sub3, h3):
    # both the identity and the deficit share one right-hand side, and it
    # knows only the sphere and ball forms
    with pytest.raises(ValueError, match="form"):
        mve.mv_identity(green3, make_field("constant-1", e3), 1.0, "cube")
    with pytest.raises(ValueError, match="form"):
        mve.mv_inequality_deficit(sub3, make_field("constant-1", h3), 1.0,
                                  "cube")


def test_j_derivative_formula(green3, e3):
    f = make_field("superharmonic", e3, C=10.0)
    fd, rhs, resid = mve.j_derivative_residual(green3, f, 1.0)
    assert rhs == pytest.approx(-3.0 / (8.0 * math.pi ** 2), rel=1e-10)
    assert abs(fd - (-3.0 / (8.0 * math.pi ** 2))) <= 1e-4


def test_sphere_ball_relation(green3, e3):
    f = make_field("superharmonic", e3, C=10.0)
    for r in (0.6, 1.0):
        assert mve.sphere_ball_relation_residual(green3, f, r) <= 1e-6


def test_harmonic_sweep_constant(green3, e3):
    hq = make_field("harmonic-quadratic", e3)
    out = mve.elliptic_sweep(green3, hq, [0.5, 0.8, 1.1, 1.4],
                             derivative_checks=False)
    assert out["J"].direction == "constant"
    assert out["J"].monotone_ok
    assert max(abs(v) for v in out["J"].values) <= 1e-7


def test_superharmonic_sweep_decreasing(green3, e3):
    f = make_field("superharmonic", e3, C=10.0)
    out = mve.elliptic_sweep(green3, f, [0.5, 0.8, 1.1, 1.4])
    assert out["I"].monotone_ok and out["J"].monotone_ok
    assert out["I"].direction == "non-increasing"
    for fd, rhs, resid in out["dJ"]:
        assert abs(resid) <= 1e-5


def test_subgreen_monotone_superharmonic(sub3, h3):
    # comparison-kernel sweep for a nonnegative superharmonic field
    er = make_field("exp-radial", h3)
    out = mve.elliptic_sweep(sub3, er, [0.4, 0.7, 1.0, 1.3],
                             direction="non-increasing",
                             derivative_checks=False)
    assert out["I"].monotone_ok and out["J"].monotone_ok
    # pointwise derivative bound: dJ/dr <= (n/r^(n+1)) int Lap(v)
    for r in (0.7, 1.0):
        fd, rhs, _ = mve.j_derivative_residual(sub3, er, r)
        assert fd <= rhs + 1e-6


def test_subgreen_di_dr_nonpositive_unit_field(sub3, h3):
    # v = 1 is harmonic, so the I-derivative bound forces non-increase
    one = make_field("constant-1", h3)
    grid = [0.5, 0.8, 1.1, 1.4]
    vals = [mve.i_quantity(sub3, one, r)[0] for r in grid]
    for i in range(1, len(grid) - 1):
        fd = (vals[i + 1] - vals[i - 1]) / (grid[i + 1] - grid[i - 1])
        assert fd <= 1e-6


def test_supgreen_derivative_bound_and_observed_direction(sup3, h3):
    """Sup-Green sweep for v = 1: the derivative bound dJ/dr >= 0 holds.

    The observed sweep direction is recorded rather than asserted against a
    declared one: numerically J grows with r on this negatively curved
    model, consistently with the >= direction of the derivative bound.
    """
    one = make_field("constant-1", h3)
    out = mve.elliptic_sweep(sup3, one, [0.5, 0.8, 1.1, 1.4],
                             direction="none", derivative_checks=False)
    for r in (0.8, 1.1):
        fd, rhs, _ = mve.j_derivative_residual(sup3, one, r)
        assert rhs == 0.0
        assert fd >= -1e-6
    assert out["J"].observed_direction(tol=1e-9) == "non-decreasing"


def test_power_field_j_quantity(green3, e3):
    # |y|^{2-n} has sphere mean rho^{2-n}; J reduces to 1/rho_star and is
    # strictly decreasing (the field carries a negative point mass)
    from mvlab.regions import level_radius
    p = make_field("power", e3)
    grid = [0.5, 1.0, 1.5]
    vals = [mve.j_quantity(green3, p, r)[0] for r in grid]
    for r, v in zip(grid, vals):
        assert v == pytest.approx(1.0 / level_radius(green3, r), rel=1e-12)
    assert vals[0] > vals[1] > vals[2]


def test_iterated_weight_identity(green3):
    assert mve.iterated_weight_identity(green3, lambda rho: 1.0, 1.0) <= 1e-6
    assert mve.iterated_weight_identity(green3, lambda rho: 6.0, 1.0) <= 1e-6
    assert mve.iterated_weight_identity(green3, lambda rho: 0.0, 1.0) == 0.0
