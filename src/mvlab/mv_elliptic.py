"""Elliptic mean value identities over Green-ball regions.

For a kernel G with level sets ``Psi_r = {G = r^(-n)}`` and super-level balls
``Omega_r``, the sphere form recovers the center value of a smooth v as

    v(x) = int_{Psi_r} |grad G| v dA  -  int_{Omega_r} (G - r^(-n)) Dv dmu,

and the ball form as its Fubini collapse (a point of Omega_r lies in
Omega_eta exactly when eta > G^(-1/n)), one pass with the heat ball's weight

    v(x) = r^(-n) int_{Omega_r} [ |grad log G|^2 v - (e^psi - 1 - psi) Dv ] dmu
         = r^(-n) int_{Omega_r} |grad log G|^2 v dmu
           - n r^(-n) int_0^r eta^n [ int_{Omega_eta} (G - eta^(-n)) Dv dmu ] deta / eta,

with psi = log(G r^n).

With the exact Green's function both are identities; with a comparison
kernel they become one-sided bounds whose deficit this module reports with
the sign arranged to be nonnegative.  The monotone companions are

    I_v(r) = r^(-n) int_{Omega_r} |grad log G|^2 v dmu,
    J_v(r) = int_{Psi_r} |grad G| v dA,

linked by r^n I_v(r) = n int_0^r eta^(n-1) J_v(eta) deta, with
d J_v / d r = (n / r^(n+1)) int_{Omega_r} Dv dmu in the exact case.
"""

import math

from .errors import PreconditionError, UnsupportedError
from .kernels import EXACT_GREEN, SUB_GREEN, SUP_GREEN
from .quad import integrate_1d
from .regions import ball_integrate, green_ball, sphere_integrate
from .sweeps import SweepReport


def _surface_term(kernel, region, field):
    """J_v over the region: int_{Psi_r} |grad G| v dA."""
    return sphere_integrate(
        region, lambda rho: kernel.grad_norm(rho) * field.mean_value(rho, 0.0))


def mv_identity(kernel, field, r, form="sphere"):
    """Mean value identity for the exact Green's function.

    Returns (lhs, rhs, residual) where lhs is the center value of the field.
    ``form`` selects the sphere or the ball version.
    """
    if kernel.kind != EXACT_GREEN:
        raise UnsupportedError("mv_identity needs the exact Green's function")
    lhs = field.center_value()
    rhs = _mv_rhs_for_region(kernel, green_ball(kernel, r), field, form)
    return lhs, rhs, abs(lhs - rhs)


def mv_inequality_deficit(kernel, field, r, form="sphere"):
    """Signed deficit of the comparison mean value bound; expected >= 0.

    Sub-Green kernels bound the center value from above
    (deficit = v(x) - rhs); sup-Green kernels from below
    (deficit = rhs - v(x)).  Requires v >= 0 on the region.
    """
    if kernel.kind not in (SUB_GREEN, SUP_GREEN):
        raise UnsupportedError("deficits are defined for comparison kernels")
    region = green_ball(kernel, r)
    # positivity precondition, sampled on the region
    for i in range(25):
        rho = region.rho_star * (i + 0.5) / 25.0
        if field.mean_value(rho, 0.0) < 0.0 or field.value(rho, 0.0) < 0.0:
            raise PreconditionError(f"field negative at rho = {rho:.4g}")

    lhs = field.center_value()
    rhs = _mv_rhs_for_region(kernel, region, field, form)
    return lhs - rhs if kernel.kind == SUB_GREEN else rhs - lhs


def _mv_rhs_for_region(kernel, region, field, form):
    """Right-hand side of the sphere or ball form over a Green ball."""
    if form not in ("sphere", "ball"):
        raise ValueError("form must be 'sphere' or 'ball'")
    if form == "sphere":
        surf, _ = _surface_term(kernel, region, field)
        level = region.level
        corr, _ = ball_integrate(region, lambda rho: (kernel.value(rho) - level)
                                 * field.mean_laplacian(rho, 0.0))
        return surf - corr
    # I_v and the Fubini-collapsed correction in one pass; at the default
    # tolerance the E3 superharmonic residual at r = 1 rises from 0 to 8.5e-13
    logr_n = kernel.n * math.log(region.r)

    def density(rho):
        g = kernel.value(rho)
        psi = math.log(g) + logr_n
        return ((kernel.grad_norm(rho) / g) ** 2 * field.mean_value(rho, 0.0)
                - (math.expm1(psi) - psi) * field.mean_laplacian(rho, 0.0))

    val, _ = ball_integrate(region, density, epsabs=1e-13, epsrel=1e-12)
    return val * region.r ** (-kernel.n)


def i_quantity(kernel, field, r):
    """I_v(r) = r^(-n) int_{Omega_r} |grad log G|^2 v dmu with its quadrature
    error estimate."""
    val, err = ball_integrate(
        green_ball(kernel, r),
        lambda rho: (kernel.grad_norm(rho) / kernel.value(rho)) ** 2
        * field.mean_value(rho, 0.0))
    scale = r ** (-kernel.n)
    return val * scale, err * scale


def j_quantity(kernel, field, r):
    """J_v(r) with its quadrature error estimate."""
    return _surface_term(kernel, green_ball(kernel, r), field)


def lap_ball_integral(kernel, field, r):
    """Integral of the field Laplacian over the Green ball."""
    region = green_ball(kernel, r)
    return ball_integrate(region, lambda rho: field.mean_laplacian(rho, 0.0))


def j_derivative_residual(kernel, field, r):
    """Compare dJ_v/dr against (n / r^(n+1)) times the Laplacian ball integral.

    Returns (fd_derivative, rhs, residual); for comparison kernels the
    derivative formula becomes one-sided and the caller should interpret the
    sign (<= for sub-Green, >= for sup-Green).
    """
    delta = 1e-3 * max(r, 1.0)
    jp, ep = j_quantity(kernel, field, r + delta)
    jm, em = j_quantity(kernel, field, r - delta)
    fd = (jp - jm) / (2.0 * delta)
    lap, _ = lap_ball_integral(kernel, field, r)
    rhs = kernel.n / r ** (kernel.n + 1) * lap
    return fd, rhs, fd - rhs


def sphere_ball_relation_residual(kernel, field, r):
    """Relative residual of r^n I_v(r) = n int_0^r eta^(n-1) J_v(eta) deta."""
    n = kernel.n
    lhs = r ** n * i_quantity(kernel, field, r)[0]

    def f(eta):
        return eta ** (n - 1) * j_quantity(kernel, field, eta)[0]

    rhs = n * integrate_1d(f, 0.0, r, epsabs=1e-12, epsrel=1e-9)[0]
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return abs(lhs - rhs) / scale


def classical_direction(field):
    """Direction of I_v and J_v under the exact Green's function, from the
    field's tag: constant if harmonic, non-increasing if superharmonic,
    non-decreasing if subharmonic, otherwise none."""
    if "harmonic" in field.tags:
        return "constant"
    if "superharmonic" in field.tags:
        return "non-increasing"
    if "subharmonic" in field.tags:
        return "non-decreasing"
    return "none"


def elliptic_sweep(kernel, field, r_grid, direction=None, tol=1e-6,
                   derivative_checks=True):
    """Sweep I_v and J_v over the radius grid.

    Returns a dict with two SweepReports ("I", "J") and, when requested, the
    pointwise derivative comparisons for J (stored under "dJ"): triples
    (fd, rhs, residual) at the interior grid points.

    The declared direction defaults to ``classical_direction(field)``; for
    comparison kernels the caller should pass the direction it intends to
    assert.
    """
    if direction is None:
        direction = classical_direction(field)

    ivals, ierrs, jvals, jerrs = [], [], [], []
    for r in r_grid:
        iv, ie = i_quantity(kernel, field, r)
        jv, je = j_quantity(kernel, field, r)
        ivals.append(iv)
        ierrs.append(ie)
        jvals.append(jv)
        jerrs.append(je)

    out = {
        "I": SweepReport(name=f"I[{field.name}]", grid=list(r_grid),
                         values=ivals, errors=ierrs, direction=direction,
                         tol=tol),
        "J": SweepReport(name=f"J[{field.name}]", grid=list(r_grid),
                         values=jvals, errors=jerrs, direction=direction,
                         tol=tol),
    }
    if derivative_checks and len(r_grid) > 2:
        out["dJ"] = [j_derivative_residual(kernel, field, r)
                     for r in r_grid[1:-1]]
    return out


def iterated_weight_identity(kernel, f_radial, r):
    """Residual of the iterated-integral identity relating phi and psi weights.

    Both sides integrate a radial weight f over nested balls:

        (n / r^n) int_0^r eta^n [ int f (G - eta^(-n)) dmu ] deta / eta
          =  int_0^r (n / eta^(n+1)) [ int f log(G eta^n) dmu ] deta.
    """
    n = kernel.n

    def lhs_eta(eta):
        sub = green_ball(kernel, eta)
        level = eta ** (-n)
        inner, _ = ball_integrate(
            sub, lambda rho: f_radial(rho) * (kernel.value(rho) - level))
        return eta ** (n - 1) * inner

    lhs = n * r ** (-n) * integrate_1d(lhs_eta, 0.0, r,
                                       epsabs=1e-13, epsrel=1e-10)[0]

    def rhs_eta(eta):
        sub = green_ball(kernel, eta)
        inner, _ = ball_integrate(
            sub, lambda rho: f_radial(rho)
            * (math.log(kernel.value(rho)) + n * math.log(eta)))
        return n / eta ** (n + 1) * inner

    rhs = integrate_1d(rhs_eta, 0.0, r, epsabs=1e-13, epsrel=1e-10)[0]
    return abs(lhs - rhs)
