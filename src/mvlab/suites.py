"""Named verification suites behind the command line interface.

Each suite is a battery of checks; a check records its computed value, the
expectation (a number, a sign condition or a monotonicity verdict), the
tolerance after scaling, an error estimate and the pass flag.  Suites can
run their independent checks concurrently; results keep definition order.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import mv_elliptic as mve
from . import mv_parabolic as mvp
from .fields import make_field
from .geometry import FlowGeometry
from .kernels import (GreenKernel, HeatKernel, McfShrinkingSphereTrack,
                      SubGreenKernel, SubHeatKernel, SupGreenKernel)
from .reduced import ReducedDistanceField
from .regions import ball_integrate, green_ball, heatball_profile, sphere_integrate

SUITES = ("elliptic", "parabolic", "reduced", "ricci", "mcf", "all")
# geometries the ricci battery can be restricted to
RICCI_GEOMETRIES = ("gaussian", "gaussian-soliton", "shrinking-s3")


@dataclass
class CheckResult:
    name: str
    value: float
    expected: object        # float, "<=0", ">=0" or "monotone"
    tol: float
    passed: bool
    err: float = 0.0

    def to_dict(self):
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


@dataclass
class SuiteReport:
    suite: str
    checks: list
    wall_ms: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {"suite": self.suite,
                "checks": [c.to_dict() for c in self.checks],
                "wall_ms": self.wall_ms,
                "pass": self.passed}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        checks = [CheckResult(name=c["name"], value=c["value"],
                              expected=c["expected"], tol=c["tol"],
                              passed=c["pass"], err=c.get("err", 0.0))
                  for c in d["checks"]]
        return cls(suite=d["suite"], checks=checks, wall_ms=d.get("wall_ms", 0.0))


def _judge(value, expected, tol):
    if expected == "<=0":
        return bool(value <= tol)
    if expected == ">=0":
        return bool(value >= -tol)
    if expected == "monotone":
        return bool(value <= 0.0)
    return bool(abs(value - expected) <= tol)


def _check(name, value, expected, tol, err=0.0):
    return CheckResult(name=name, value=float(value), expected=expected,
                       tol=float(tol), passed=_judge(value, expected, tol),
                       err=float(err))


# --------------------------------------------------------------------------- #
# batteries; each item is (name, thunk) with thunk() -> CheckResult
# --------------------------------------------------------------------------- #
def _elliptic_battery(ts):
    e3 = FlowGeometry.euclidean(3)
    g = GreenKernel(e3)
    h3 = FlowGeometry.hyperbolic(3)
    sub = SubGreenKernel(h3, k=1.0)
    sup = SupGreenKernel(h3)

    def flux(r):
        def run():
            reg = green_ball(g, r)
            val, err = sphere_integrate(reg, g.grad_norm)
            return _check(f"green_flux[r={r}]", val, 1.0, 1e-8 * ts, err)
        return run

    def mv_harmonic_quadratic():
        hq = make_field("harmonic-quadratic", e3)
        _, rhs, resid = mve.mv_identity(g, hq, 1.0, "sphere")
        return _check("mv_sphere[harmonic-quadratic]", resid, 0.0, 1e-7 * ts)

    def mv_superharmonic(form):
        def run():
            f = make_field("superharmonic", e3, C=10.0)
            _, _, resid = mve.mv_identity(g, f, 1.0, form)
            return _check(f"mv_{form}[10-|y|^2]", resid, 0.0, 1e-6 * ts)
        return run

    def dj_formula():
        f = make_field("superharmonic", e3, C=10.0)
        fd, rhs, _ = mve.j_derivative_residual(g, f, 1.0)
        return _check("dJ/dr[10-|y|^2,r=1]", fd, -3.0 / (8.0 * math.pi ** 2),
                      1e-4 * ts)

    def relation():
        f = make_field("superharmonic", e3, C=10.0)
        resid = mve.sphere_ball_relation_residual(g, f, 1.0)
        return _check("sphere_ball_relation", resid, 0.0, 1e-6 * ts)

    def weight_identity():
        resid = mve.iterated_weight_identity(g, lambda rho: 1.0, 1.0)
        return _check("iterated_weight_identity[f=1]", resid, 0.0, 1e-6 * ts)

    def sub_equality():
        one = make_field("constant-1", h3)
        d = mve.mv_inequality_deficit(sub, one, 1.0, "sphere")
        return _check("subgreen_equality[v=1]", abs(d), 0.0, 1e-6 * ts)

    def sub_sign():
        er = make_field("exp-radial", h3)
        d = mve.mv_inequality_deficit(sub, er, 0.5, "sphere")
        return _check("subgreen_deficit[exp-radial]", d, ">=0", 1e-7 * ts)

    def sup_sign():
        one = make_field("constant-1", h3)
        d = mve.mv_inequality_deficit(sup, one, 1.0, "sphere")
        return _check("supgreen_deficit[v=1]", d, ">=0", 1e-7 * ts)

    def j_constant():
        hq = make_field("harmonic-quadratic", e3)
        sweep = mve.elliptic_sweep(g, hq, [0.5, 0.75, 1.0, 1.25, 1.5],
                                   direction="constant", tol=1e-7 * ts,
                                   derivative_checks=False)
        return _check("J_constant[harmonic]", sweep["J"].worst_violation,
                      "monotone", 0.0)

    def i_monotone():
        f = make_field("superharmonic", e3, C=10.0)
        sweep = mve.elliptic_sweep(g, f, [0.5, 0.75, 1.0, 1.25, 1.5],
                                   tol=1e-6 * ts, derivative_checks=False)
        return _check("I_noninc[superharmonic]", sweep["I"].worst_violation,
                      "monotone", 0.0)

    return [
        ("green_flux_0.5", flux(0.5)),
        ("green_flux_1", flux(1.0)),
        ("green_flux_2", flux(2.0)),
        ("mv_harmonic_quadratic", mv_harmonic_quadratic),
        ("mv_sphere_superharmonic", mv_superharmonic("sphere")),
        ("mv_ball_superharmonic", mv_superharmonic("ball")),
        ("dj_formula", dj_formula),
        ("sphere_ball_relation", relation),
        ("iterated_weight_identity", weight_identity),
        ("subgreen_equality", sub_equality),
        ("subgreen_sign", sub_sign),
        ("supgreen_sign", sup_sign),
        ("j_constant_harmonic", j_constant),
        ("i_monotone_superharmonic", i_monotone),
    ]


def _parabolic_battery(ts):
    e2 = FlowGeometry.euclidean(2)
    h2 = HeatKernel(e2)
    h3g = FlowGeometry.hyperbolic(3)
    hk3 = HeatKernel(h3g)

    def watson(r):
        def run():
            cq = make_field("caloric-quadratic", e2)
            _, _, resid = mvp.mv_heat_ball(h2, cq, r)
            return _check(f"watson[r={r}]", resid, 0.0, 1e-5 * ts)
        return run

    def sphere_unit():
        one = make_field("constant-1", e2)
        _, _, resid = mvp.mv_heat_sphere(h2, one, 1.0)
        return _check("heat_sphere[v=1]", resid, 0.0, 1e-5 * ts)

    def profile_closed_form():
        reg = heatball_profile(h2, 1.0)
        worst = 0.0
        for u in np.linspace(0.02, 0.98, 25):
            tau = u * reg.tau_max
            exact = math.sqrt(max(0.0, 4.0 * tau * math.log(
                1.0 / (4.0 * math.pi * tau))))
            worst = max(worst, abs(reg.profile_rho(tau) - exact))
        return _check("heatball_profile_closed_form", worst, 0.0, 1e-10 * ts)

    def hyperbolic_sphere(field_name):
        def run():
            f = make_field(field_name, h3g)
            _, _, resid = mvp.mv_heat_sphere(hk3, f, 1.0)
            return _check(f"heat_sphere_h3[{field_name}]", resid, 0.0, 1e-4 * ts)
        return run

    def surface_forms():
        jr, ir = mvp.surface_form_residual(h2, 1.0)
        return _check("surface_form[euclid]", max(jr, ir), 0.0, 1e-6 * ts)

    def forward_sweep():
        f = make_field("superharmonic", e2, C=10.0)
        rep = mvp.forward_j_sweep(h2, f, [0.5, 0.75, 1.0, 1.25],
                                  tol=1e-6 * ts)
        return _check("forward_J_noninc[supercaloric]", rep.worst_violation,
                      "monotone", 0.0)

    def truncation():
        one = make_field("constant-1", e2)
        caps = mvp.truncation_convergence(h2, one, 1.0, [1e-2, 1e-3, 1e-4])
        drift = [abs(c - 1.0) for c in caps]
        monotone = all(a >= b for a, b in zip(drift, drift[1:]))
        return _check("cap_convergence", drift[-1] if monotone else math.inf,
                      0.0, 0.05 * ts)

    return [
        ("watson_0.5", watson(0.5)),
        ("watson_1", watson(1.0)),
        ("heat_sphere_unit", sphere_unit),
        ("profile_closed_form", profile_closed_form),
        ("heat_sphere_h3_const", hyperbolic_sphere("constant-1")),
        ("heat_sphere_h3_exp", hyperbolic_sphere("exp-radial")),
        ("surface_forms", surface_forms),
        ("forward_sweep", forward_sweep),
        ("cap_convergence", truncation),
    ]


def _reduced_battery(ts):
    flat = FlowGeometry.gaussian_soliton(2)
    sph = FlowGeometry.shrinking_sphere(3)

    def flat_oracle():
        fld = ReducedDistanceField(flat)
        worst = max(abs(fld.ell(rho, tau) - rho * rho / (4.0 * tau))
                    for rho in np.linspace(0.1, 2.0, 10)
                    for tau in np.linspace(0.05, 1.0, 10))
        return _check("ell_flat_oracle", worst, 0.0, 1e-8 * ts)

    def theta_flat():
        fld = ReducedDistanceField(flat)
        val, err = fld.reduced_volume(0.3)
        return _check("theta_flat", val, 1.0, 1e-6 * ts, err)

    def endpoint_identities():
        fld = ReducedDistanceField(flat)
        rs, rt, eik = fld.first_order_residuals(1.0, 0.25)
        return _check("endpoint_identities_flat", max(rs, rt, eik), 0.0,
                      1e-6 * ts)

    def sphere_identities():
        fld = ReducedDistanceField(sph)
        rs, rt, eik = fld.first_order_residuals(0.8, 0.2)
        return _check("endpoint_identities_s3", max(rs, rt, eik), 0.0,
                      1e-4 * ts)

    def theta_s3_monotone():
        fld = ReducedDistanceField(sph)
        taus = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
        vals = [fld.reduced_volume(t)[0] for t in taus]
        worst = max(b - a for a, b in zip(vals, vals[1:]))
        return _check("theta_s3_noninc", worst, "<=0", 1e-5 * ts)

    return [
        ("ell_flat_oracle", flat_oracle),
        ("theta_flat", theta_flat),
        ("endpoint_identities_flat", endpoint_identities),
        ("endpoint_identities_s3", sphere_identities),
        ("theta_s3_monotone", theta_s3_monotone),
    ]


def _ricci_battery(ts, geometry=None):
    items = []
    if geometry in (None, "gaussian", "gaussian-soliton"):
        def flat_equalities():
            fld = ReducedDistanceField(FlowGeometry.gaussian_soliton(2))
            kern = SubHeatKernel(fld)
            worst = 0.0
            for r in (0.3, 0.5, 0.8):
                jv, _ = mvp.jhat_quantity(kern, r)
                iv, _ = mvp.ihat_quantity(kern, 0.0, r)
                worst = max(worst, abs(jv - 1.0), abs(iv - 1.0))
            return _check("jhat_ihat_flat", worst, 0.0, 1e-4 * ts)

        def flat_soliton():
            fld = ReducedDistanceField(FlowGeometry.gaussian_soliton(3))
            chk = mvp.soliton_residuals(fld, [(0.5, 0.2), (1.0, 0.25), (1.5, 0.4)])
            worst = max(chk.max_abs_conjugate_heat, chk.max_abs_first_order,
                        chk.max_abs_entropy, chk.max_abs_soliton_tensor)
            return _check("soliton_identities_flat", worst, 0.0, 1e-6 * ts)

        items += [("jhat_ihat_flat", flat_equalities),
                  ("soliton_identities_flat", flat_soliton)]

    if geometry in (None, "shrinking-s3"):
        def s3_sweep():
            fld = ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
            kern = SubHeatKernel(fld)
            out = mvp.jhat_sweep(kern, [0.8, 1.1, 1.4, 1.7, 2.0, 2.3])
            ok_pairs = all(
                out["jhat"].values[out["jhat"].grid.index(r)]
                <= iv + ie + out["jhat"].errors[out["jhat"].grid.index(r)] + 3e-6
                for (a, r, iv, ie) in out["pairs"])
            worst = out["jhat"].worst_violation
            if not (out["jhat"].monotone_ok and out["ihat0"].monotone_ok
                    and ok_pairs):
                worst = max(worst, 1.0)
            return _check("jhat_monotone_s3", worst, "monotone", 0.0)

        def s3_first_order():
            fld = ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
            chk = mvp.soliton_residuals(fld, [(0.5, 0.1), (0.8, 0.2), (1.0, 0.3)])
            return _check("first_order_s3", chk.max_abs_first_order, 0.0, 1e-4 * ts)

        def s3_ly():
            fld = ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
            resid, _, _ = mvp.ly_ricci_residual(fld, 0.8, 0.2)
            return _check("liyau_decomposition_s3", resid, 0.0, 1e-3 * ts)

        items += [("jhat_monotone_s3", s3_sweep),
                  ("first_order_s3", s3_first_order),
                  ("liyau_decomposition_s3", s3_ly)]
    return items


def _mcf_battery(ts):
    def density():
        val = mvp.gaussian_density(1)
        return _check("gaussian_density_n1", val,
                      math.sqrt(2.0 * math.pi / math.e), 1e-5 * ts)

    def track_constancy():
        track = McfShrinkingSphereTrack(1)
        theta = mvp.gaussian_density(1)
        worst = 0.0
        for r in (0.5, 1.0, 2.0):
            worst = max(worst, abs(mvp.jbar_quantity(track, r)[0] - theta),
                        abs(mvp.ibar_quantity(track, 0.0, r)[0] - theta))
        return _check("jbar_ibar_equal_density", worst, 0.0, 1e-4 * ts)

    def sweep():
        out = mvp.mcf_sweep(2, [0.5, 1.0, 1.5, 2.0], tol=1e-6 * ts)
        worst = max(out["jbar"].worst_violation, out["ibar0"].worst_violation)
        return _check("mcf_monotone", worst, "monotone", 0.0)

    def liyau():
        resid, _, _ = mvp.ly_mcf_residual(McfShrinkingSphereTrack(1), 1.0)
        return _check("liyau_decomposition_circle", resid, 0.0, 1e-8 * ts)

    return [
        ("gaussian_density", density),
        ("track_constancy", track_constancy),
        ("mcf_monotone", sweep),
        ("liyau_circle", liyau),
    ]


def build_battery(suite, tol_scale=1.0, geometry=None):
    if geometry is not None and geometry not in RICCI_GEOMETRIES:
        raise ValueError(f"unknown geometry '{geometry}'; the ricci suite "
                         f"serves {', '.join(RICCI_GEOMETRIES)}")
    ts = tol_scale
    if suite == "elliptic":
        return _elliptic_battery(ts)
    if suite == "parabolic":
        return _parabolic_battery(ts)
    if suite == "reduced":
        return _reduced_battery(ts)
    if suite == "ricci":
        return _ricci_battery(ts, geometry)
    if suite == "mcf":
        return _mcf_battery(ts)
    if suite == "all":
        out = []
        for s in ("elliptic", "parabolic", "reduced", "ricci", "mcf"):
            out += build_battery(s, ts, geometry if s == "ricci" else None)
        return out
    raise ValueError(f"unknown suite '{suite}'")


def run_suite(suite, tol_scale=1.0, geometry=None, jobs=1):
    """Execute a named battery; solver failures become failed checks."""
    battery = build_battery(suite, tol_scale, geometry)
    t0 = time.time()

    def safe(item):
        name, thunk = item
        try:
            return thunk()
        except Exception:  # recorded, not raised: the report must finish
            return CheckResult(name=name, value=math.nan, expected="error",
                               tol=0.0, passed=False, err=math.inf)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            checks = list(pool.map(safe, battery))
    else:
        checks = [safe(item) for item in battery]
    return SuiteReport(suite=suite, checks=checks,
                       wall_ms=1000.0 * (time.time() - t0))
