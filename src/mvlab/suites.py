"""Named verification suites behind the command line interface.

A suite is a battery: rows ``(name, thunk, expected, tol)``.  ``thunk()``
returns the checked value, or ``(value, err)`` where the engine gives an
error estimate; ``expected`` is a number, ``"<=0"``, ``">=0"`` or
``"monotone"``; ``tol`` is the tolerance at ``tol_scale`` 1 (a thunk that
runs a sweep scales the sweep's own tolerance).  ``run_suite`` alone calls
the thunks, scales ``tol``, judges and records each check under its row's
name; a thunk that raises is recorded as a failed check with expected
``"error"``, under the same name.  Checks may run concurrently; results keep
row order.
"""

import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import mv_elliptic as mve
from . import mv_parabolic as mvp
from .fields import make_field
from .geometry import FlowGeometry
from .kernels import (GreenKernel, HeatKernel, McfShrinkingSphereTrack,
                      SubGreenKernel, SubHeatKernel, SupGreenKernel)
from .reduced import ReducedDistanceField
from .regions import green_ball, heatball_profile, sphere_integrate

SUITES = ("elliptic", "parabolic", "reduced", "ricci", "mcf", "all")
# geometries the ricci battery can be restricted to
RICCI_GEOMETRIES = ("gaussian", "gaussian-soliton", "shrinking-s3")
# the expectations that are not numbers; "error" marks a check that raised
_EXPECTED_WORDS = ("<=0", ">=0", "monotone", "error")


@dataclass
class CheckResult:
    name: str
    value: float
    expected: object        # a number or one of _EXPECTED_WORDS
    tol: float
    passed: bool
    err: float = 0.0
    error: str = None       # "<Type>: <message>" when the check raised

    def to_dict(self):
        d = asdict(self)
        d["pass"] = d.pop("passed")
        if d["error"] is None:
            del d["error"]
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
                "pass": self.passed}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        """Inverse of `to_dict`; ValueError when d is not a suite report, has
        a field of the wrong type, or stores a verdict its numbers do not give."""
        try:
            checks = [CheckResult(name=c["name"], value=c["value"],
                                  expected=c["expected"], tol=c["tol"],
                                  passed=c["pass"], err=c.get("err", 0.0),
                                  error=c.get("error"))
                      for c in d["checks"]]
            report, stored = cls(suite=d["suite"], checks=checks), d["pass"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a suite report ({type(exc).__name__}: {exc})") from None
        if not isinstance(report.suite, str):
            raise ValueError(f"suite must be a string, got {report.suite!r}")
        for c in checks:  # numbers may be NaN or inf: a check that raised writes them
            numbers = (c.value, c.tol, c.err) + (
                () if c.expected in _EXPECTED_WORDS else (c.expected,))
            if not (isinstance(c.name, str) and isinstance(c.passed, bool) and all(
                    isinstance(v, float) or type(v) is int and abs(v) <= sys.float_info.max
                    for v in numbers)):
                raise ValueError(f"check {c.name!r}: name must be a string, value, tol and err "
                                 f"numbers, expected a number or one of "
                                 f"{', '.join(_EXPECTED_WORDS)}, pass a bool")
            if c.err < 0:  # False for NaN
                raise ValueError(f"check {c.name!r}: err must not be negative, got {c.err}")
            if not 0.0 <= c.tol < math.inf:
                raise ValueError(f"check {c.name!r}: tol must be finite and not negative, "
                                 f"got {c.tol}")
            if c.passed != _judge(c.value, c.expected, c.tol):
                raise ValueError(f"check {c.name!r}: stored pass disagrees with its value, "
                                 f"expected and tol")
        if stored is not report.passed:
            raise ValueError(f"stored top-level pass {json.dumps(stored)} is not the "
                             f"verdict of its checks, {json.dumps(report.passed)}")
        return report


def _worst(values):
    """Largest value, NaN if any is NaN (the builtin max drops a later NaN)."""
    return np.max(list(values))


def _judge(value, expected, tol):
    if expected == "error":
        return False
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
# batteries: rows (name, thunk, expected, tol at tol_scale 1)
# --------------------------------------------------------------------------- #
def _elliptic_battery(ts):
    e3, h3 = FlowGeometry.euclidean(3), FlowGeometry.hyperbolic(3)
    g, sub, sup = GreenKernel(e3), SubGreenKernel(h3, k=1.0), SupGreenKernel(h3)
    hq = partial(make_field, "harmonic-quadratic", e3)
    sh = partial(make_field, "superharmonic", e3, C=10.0)
    one = partial(make_field, "constant-1", h3)
    sweep = partial(mve.elliptic_sweep, g, r_grid=[0.5, 0.75, 1.0, 1.25, 1.5],
                    derivative_checks=False)
    return [
        *[(f"green_flux[r={r}]", lambda r=r: sphere_integrate(green_ball(g, r), g.grad_norm),
           1.0, 1e-8) for r in (0.5, 1.0, 2.0)],
        ("mv_sphere[harmonic-quadratic]", lambda: mve.mv_identity(g, hq(), 1.0)[2], 0.0, 1e-7),
        *[(f"mv_{form}[10-|y|^2]", lambda form=form: mve.mv_identity(g, sh(), 1.0, form)[2],
           0.0, 1e-6) for form in ("sphere", "ball")],
        ("dJ/dr[10-|y|^2,r=1]", lambda: mve.j_derivative_residual(g, sh(), 1.0)[0],
         -3.0 / (8.0 * math.pi ** 2), 1e-4),
        ("sphere_ball_relation", lambda: mve.sphere_ball_relation_residual(g, sh(), 1.0),
         0.0, 1e-6),
        ("iterated_weight_identity[f=1]",
         lambda: mve.iterated_weight_identity(g, lambda rho: 1.0, 1.0), 0.0, 1e-6),
        ("subgreen_equality[v=1]", lambda: abs(mve.mv_inequality_deficit(sub, one(), 1.0)),
         0.0, 1e-6),
        ("subgreen_deficit[exp-radial]",
         lambda: mve.mv_inequality_deficit(sub, make_field("exp-radial", h3), 0.5), ">=0", 1e-7),
        ("supgreen_deficit[v=1]", lambda: mve.mv_inequality_deficit(sup, one(), 1.0),
         ">=0", 1e-7),
        ("J_constant[harmonic]", lambda: sweep(
            hq(), direction="constant", tol=1e-7 * ts)["J"].worst_violation, "monotone", 0.0),
        ("I_noninc[superharmonic]",
         lambda: sweep(sh(), tol=1e-6 * ts)["I"].worst_violation, "monotone", 0.0),
    ]


def _profile_closed_form(kernel):
    """Worst Newton step |(log K(x) - log r^(-n)) / d log K/dx| of the level
    equation at the closed-form heat-ball profile x: its distance to the root."""
    reg = heatball_profile(kernel, 1.0)
    taus = np.linspace(0.02, 0.98, 25) * reg.tau_max
    sl, x = kernel.at(taus), reg.profile_x(taus)
    return _worst(abs((np.log(sl.value(x)) - math.log(reg.level)) / sl.dlog(x)))


def _cap_drift(kernel, one):
    """|mean - 1| of v = 1 at the finest cap; inf unless it shrinks with the cap."""
    caps = mvp.truncation_convergence(kernel, one, 1.0, [1e-2, 1e-3, 1e-4])
    drift = [abs(c - 1.0) for c in caps]
    return drift[-1] if all(a >= b for a, b in zip(drift, drift[1:])) else math.inf


def _parabolic_battery(ts):
    e2, h3 = FlowGeometry.euclidean(2), FlowGeometry.hyperbolic(3)
    h2, hk3 = HeatKernel(e2), HeatKernel(h3)
    one = partial(make_field, "constant-1", e2)
    return [
        *[(f"watson[r={r}]", lambda r=r: mvp.mv_heat_ball(
            h2, make_field("caloric-quadratic", e2), r)[2], 0.0, 1e-5) for r in (0.5, 1.0)],
        ("heat_sphere[v=1]", lambda: mvp.mv_heat_sphere(h2, one(), 1.0)[2], 0.0, 1e-5),
        ("heatball_profile_closed_form", lambda: _profile_closed_form(h2), 0.0, 1e-10),
        *[(f"heat_sphere_h3[{name}]", lambda name=name: mvp.mv_heat_sphere(
            hk3, make_field(name, h3), 1.0)[2], 0.0, 1e-4)
          for name in ("constant-1", "exp-radial")],
        ("surface_form[euclid]", lambda: _worst(mvp.surface_form_residual(h2, 1.0)), 0.0, 1e-6),
        ("forward_J_noninc[supercaloric]", lambda: mvp.forward_j_sweep(
            h2, make_field("superharmonic", e2, C=10.0), [0.5, 0.75, 1.0, 1.25],
            tol=1e-6 * ts).worst_violation, "monotone", 0.0),
        ("cap_convergence", lambda: _cap_drift(h2, one()), 0.0, 0.05),
    ]


def _theta_s3_noninc(fld):
    """Largest rise of the reduced volume between neighbouring times."""
    vals = [fld.reduced_volume(t)[0] for t in [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]]
    return _worst(np.diff(vals))


def _reduced_battery(ts):
    flat = ReducedDistanceField(FlowGeometry.gaussian_soliton(2))
    s3 = ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
    # flat comoving radii are geodesic radii: one slice per time, a row per slice
    rhos, taus = np.linspace(0.1, 2.0, 10), np.linspace(0.05, 1.0, 10)[:, None]
    return [
        ("ell_flat_oracle", lambda: _worst(np.ravel(abs(
            SubHeatKernel(flat).at(taus).ell_jet(rhos)[0] - rhos * rhos / (4.0 * taus)))),
         0.0, 1e-8),
        ("theta_flat", lambda: flat.reduced_volume(0.3), 1.0, 1e-6),
        ("endpoint_identities_flat", lambda: _worst(flat.first_order_residuals(1.0, 0.25)),
         0.0, 1e-12),
        ("endpoint_identities_s3", lambda: _worst(s3.first_order_residuals(0.8, 0.2)), 0.0, 1e-8),
        ("theta_s3_noninc", lambda: _theta_s3_noninc(s3), "<=0", 1e-5),
    ]


def _worst_gap(target, radii, *quantities):
    """Worst distance from target of the values of quantities r -> (value, err)."""
    return _worst(abs(q(r)[0] - target) for r in radii for q in quantities)


def _soliton_flat(fld):
    """Worst of the four soliton residuals."""
    chk = mvp.soliton_residuals(fld, [(0.5, 0.2), (1.0, 0.25), (1.5, 0.4)])
    return _worst((chk.max_abs_conjugate_heat, chk.max_abs_first_order,
                   chk.max_abs_entropy, chk.max_abs_soliton_tensor))


def _jhat_monotone_s3(kern, tol):
    """Worst rise of Jhat; at least 1 if Jhat, Ihat(0) or Jhat <= Ihat(a) fails."""
    out = mvp.jhat_sweep(kern, [0.8, 1.1, 1.4, 1.7, 2.0, 2.3], tol=tol)
    jhat = out["jhat"]
    ok_pairs = all(jhat.values[jhat.grid.index(r)] <= iv + ie + jhat.errors[jhat.grid.index(r)]
                   for (a, r, iv, ie) in out["pairs"])
    if jhat.monotone_ok and out["ihat0"].monotone_ok and ok_pairs:
        return jhat.worst_violation
    return max(jhat.worst_violation, 1.0)


def _ricci_battery(ts, geometry=None):
    rows = []
    if geometry in (None, "gaussian", "gaussian-soliton"):
        flat = ReducedDistanceField(FlowGeometry.gaussian_soliton(2))
        flat3 = ReducedDistanceField(FlowGeometry.gaussian_soliton(3))
        kern = SubHeatKernel(flat)
        rows += [("jhat_ihat_flat", lambda: _worst_gap(
                     1.0, (0.3, 0.5, 0.8), partial(mvp.jhat_quantity, kern),
                     partial(mvp.ihat_quantity, kern, 0.0)), 0.0, 1e-10),
                 ("soliton_identities_flat", lambda: _soliton_flat(flat3), 0.0, 1e-12)]
    if geometry in (None, "shrinking-s3"):
        s3 = ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
        rows += [
            ("jhat_monotone_s3", lambda: _jhat_monotone_s3(SubHeatKernel(s3), 1e-6 * ts),
             "monotone", 0.0),
            ("first_order_s3", lambda: mvp.soliton_residuals(
                s3, [(0.5, 0.1), (0.8, 0.2), (1.0, 0.3)]).max_abs_first_order, 0.0, 1e-12),
            ("liyau_decomposition_s3", lambda: mvp.ly_ricci_residual(s3, 0.8, 0.2)[0], 0.0,
             1e-12)]
    return rows


def _mcf_battery(ts):
    track = McfShrinkingSphereTrack(1)
    return [
        ("gaussian_density_n1", lambda: mvp.gaussian_density(1),
         math.sqrt(2.0 * math.pi / math.e), 1e-5),
        ("jbar_ibar_equal_density", lambda: _worst_gap(
            mvp.gaussian_density(1), (0.5, 1.0, 2.0), partial(mvp.jbar_quantity, track),
            partial(mvp.ibar_quantity, track, 0.0)), 0.0, 1e-4),
        ("mcf_monotone", lambda: _worst(
            rep.worst_violation for key, rep in
            mvp.mcf_sweep(2, [0.5, 1.0, 1.5, 2.0], tol=1e-6 * ts).items()
            if key in ("jbar", "ibar0")), "monotone", 0.0),
        ("liyau_decomposition_circle", lambda: mvp.ly_mcf_residual(track, 1.0)[0], 0.0, 1e-8),
    ]


def build_battery(suite, tol_scale=1.0, geometry=None):
    """The rows of a named suite.  ValueError on an unknown suite or geometry,
    and on a geometry for a suite without ricci checks to restrict."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite '{suite}'")
    if geometry is not None and geometry not in RICCI_GEOMETRIES:
        raise ValueError(f"unknown geometry '{geometry}'; the ricci suite "
                         f"serves {', '.join(RICCI_GEOMETRIES)}")
    if geometry is not None and suite not in ("ricci", "all"):
        raise ValueError(f"a geometry restricts the ricci and all suites only, "
                         f"not '{suite}'")
    if suite == "all":
        return [row for s in SUITES[:-1]
                for row in build_battery(s, tol_scale, geometry if s == "ricci" else None)]
    if suite == "ricci":
        return _ricci_battery(tol_scale, geometry)
    return {"elliptic": _elliptic_battery, "parabolic": _parabolic_battery,
            "reduced": _reduced_battery, "mcf": _mcf_battery}[suite](tol_scale)


def run_suite(suite, tol_scale=1.0, geometry=None, jobs=1):
    """Run a named battery and judge every row; a thunk that raises becomes a
    failed check under its row's name, so the report always finishes."""
    battery = build_battery(suite, tol_scale, geometry)
    t0 = time.perf_counter()

    def run(row):
        name, thunk, expected, tol = row
        try:
            out = thunk()
            value, err = out if isinstance(out, tuple) else (out, 0.0)
            return _check(name, value, expected, tol * tol_scale, err)
        except Exception as exc:  # recorded, not raised: the report must finish
            return CheckResult(name=name, value=math.nan, expected="error",
                               tol=0.0, passed=False, err=math.inf,
                               error=f"{type(exc).__name__}: {exc}")

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            checks = list(pool.map(run, battery))
    else:
        checks = [run(row) for row in battery]
    return SuiteReport(suite=suite, checks=checks,
                       wall_ms=1000.0 * (time.perf_counter() - t0))
