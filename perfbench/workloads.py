"""The benchmark workloads: seeded inputs, oracle values and one pass each.

A pass is a generator.  It builds fresh mvlab state (geometries, kernels,
fields, reduced-distance memos) and yields operations ``(name, thunk)``.
Each thunk makes one call into mvlab's public API, or judges the results of
earlier ones, and returns ``(passed, residual)``: ``residual`` is the oracle
residual as a fraction of its pinned tolerance, or None for a verdict check
(monotonicity, ordering, sign, convergence).  Building state between yields counts toward the pass
but toward no operation.

Inputs come only from the seed.  Oracle values are computed from the inputs
before any timing starts, so the timed work is mvlab's alone.
"""

import contextlib
import csv
import io
import json

import numpy as np

import oracles as orc


# --------------------------------------------------------------------------- #
# seeded grids
# --------------------------------------------------------------------------- #
def stratified(rng, lo, hi, k, pad=0.05):
    """k strictly increasing points in (lo, hi), one per equal stratum.

    The work of most operations grows about linearly with the radius or the
    time, so stratum i and its mirror k-1-i get mirrored offsets: every point
    moves with the seed while the sum of the points, and with it the work of
    a pass, stays nearly fixed.
    """
    w = (hi - lo) / k
    u = rng.uniform(pad, 1.0 - pad, size=k)
    out = []
    for i in range(k):
        j = k - 1 - i
        off = u[i] if i <= j else 1.0 - u[j]
        out.append(float(lo + w * (i + off)))
    return out


def spanning(rng, lo, hi, k):
    """k strictly increasing points from lo to hi with seeded interior nodes."""
    return [float(lo)] + stratified(rng, lo, hi, k - 2) + [float(hi)]


# --------------------------------------------------------------------------- #
# helpers shared by the passes
# --------------------------------------------------------------------------- #
class Outputs:
    """CLI output of the first pass of a run, for byte comparison."""

    def __init__(self):
        self.first = {}
        self.identical = {"sweep": 1, "verify": 1}

    def same(self, kind, key, text):
        same = self.first.setdefault(key, text) == text
        if not same:
            self.identical[kind] = 0
        return same


def run_cli(mv, argv):
    """``mvlab <argv>`` through mvlab.cli.main; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = mv.cli.main(argv)
    return code, out.getvalue()


def parse_sweep_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["parameter", "value", "error_estimate", "monotone_ok"]:
        raise ValueError(f"unexpected sweep header {rows[0]}")
    return [(float(p), float(v), float(e), ok == "true") for p, v, e, ok in rows[1:]]


def near(value, expected, tol):
    """(passed, residual / tol) for an absolute oracle check."""
    d = abs(value - expected)
    return bool(d <= tol), d / tol


def worst(checks):
    """Combine (passed, residual) pairs: all must pass, residual is the max."""
    checks = list(checks)
    return (all(ok for ok, _ in checks),
            max(res for _, res in checks) if checks else None)


def cli_sweep_op(mv, outputs, argv, grid, expected, tol):
    """A ``mvlab sweep`` call checked row by row and byte for byte."""
    code, text = run_cli(mv, argv)
    rows = parse_sweep_csv(text)
    ok, res = worst(near(v, x, tol) for (_, v, _, _), x in zip(rows, expected))
    ok = (ok and code == 0 and len(rows) == len(grid)
          and all(p == g and mono for (p, _, _, mono), g in zip(rows, grid))
          and outputs.same("sweep", " ".join(argv), text))
    return ok, res


def cli_verify_op(mv, outputs, suite):
    """``mvlab verify --suite <suite>``: every check must pass.

    The report is compared whole across passes, ``wall_ms`` included; a
    difference is recorded, not failed.
    """
    code, text = run_cli(mv, ["verify", "--suite", suite])
    outputs.same("verify", suite, text)
    report = json.loads(text)
    res = [abs(c["value"] - c["expected"]) / c["tol"] for c in report["checks"]
           if isinstance(c["expected"], float) and c["tol"] > 0.0]
    return code == 0 and report["pass"], max(res) if res else None


# --------------------------------------------------------------------------- #
# reduced-s3: geodesic shooting on the shrinking round S^3
# --------------------------------------------------------------------------- #
# Operation counts of one reduced-s3 pass.  Of its 161 operations the 132
# ell points put the median inside the ell cluster, and the 16 theta points
# (with the flat Jhat, of similar cost) put p90 in the middle of the theta
# cluster, below the 8 heaviest operations; a percentile that fell between
# two clusters would jump with the seed.
S3_ELL_POINTS = 132
S3_THETA_POINTS = 16
S3_HEAVY_OPS = 9        # Jhat x2, Ihat x4, flat Jhat and Ihat, CLI sweep


def reduced_s3_inputs(seed):
    rng = np.random.default_rng(seed)
    ell_taus = stratified(rng, 0.05, 0.3, S3_ELL_POINTS)
    ell_xs = [float(x) for x in rng.uniform(0.1, 1.5, size=S3_ELL_POINTS)]
    return {
        "radii": stratified(rng, 0.8, 2.3, 2),
        "theta_taus": stratified(rng, 0.05, 0.3, S3_THETA_POINTS),
        "ell_points": [[x, t] for x, t in zip(ell_xs, ell_taus)],
        "sweep_taus": [float(rng.uniform(0.05, 0.1)),
                       float(rng.uniform(0.25, 0.3))],
        "sweep_steps": 6,
        "flat_r": 0.5,
    }


def reduced_s3_oracles(inp):
    lo, hi = inp["sweep_taus"]
    grid = [float(t) for t in np.linspace(lo, hi, inp["sweep_steps"])]
    return {
        "theta": [orc.s3_theta(t) for t in inp["theta_taus"]],
        "ell": [orc.s3_ell(x, t) for x, t in inp["ell_points"]],
        "sweep_grid": grid,
        "sweep_theta": [orc.s3_theta(t) for t in grid],
    }


def reduced_s3_pass(mv, inp, exp, outputs):
    """Jhat/Ihat in jhat_sweep order, the flat soliton and one CLI theta
    sweep, with the theta and ell points spread between them."""
    mvp, FlowGeometry = mv.mv_parabolic, mv.geometry.FlowGeometry
    fld = mv.reduced.ReducedDistanceField(FlowGeometry.shrinking_sphere(3))
    kern = mv.kernels.SubHeatKernel(fld)
    radii = inp["radii"]
    slack = orc.MONOTONE_SLACK
    jhat, ihat, theta = {}, {}, {}

    # The cheap point queries are spread evenly between the heavy operations,
    # so that the latency percentiles sample the whole pass rather than the
    # machine's state during one second of it.
    points = []
    for tau, expected in zip(inp["theta_taus"], exp["theta"]):
        def op(tau=tau, expected=expected):
            theta[tau] = fld.reduced_volume(tau)
            return near(theta[tau][0], expected, orc.THETA_TOL)
        points.append(("theta_s3", op))
    for (x, tau), expected in zip(inp["ell_points"], exp["ell"]):
        points.append(("ell_s3", lambda x=x, tau=tau, expected=expected: near(
            fld.ell_cm(x, tau), expected, orc.ELL_TOL)))
    slots = [points[i::S3_HEAVY_OPS] for i in range(S3_HEAVY_OPS)]

    def heavy(name, op):
        yield name, op
        yield from slots.pop(0)

    def bounded(v):
        # Jhat and Ihat start at 1 as r -> 0 and do not increase
        return bool(0.0 < v <= 1.0 + slack), None

    for r in radii:
        def op(r=r):
            jhat[r] = mvp.jhat_quantity(kern, r)
            return bounded(jhat[r][0])
        yield from heavy("jhat_s3", op)

    cache = {}
    for r in radii:
        for frac in (0.0, 0.5):
            def op(a=frac * r, r=r):
                ihat[a, r] = mvp.ihat_quantity(kern, a, r, _cache=cache)
                return bounded(ihat[a, r][0])
            yield from heavy("ihat_s3", op)

    def sweep_report(name, grid, values, tol):
        return mv.sweeps.SweepReport(
            name=name, grid=list(grid), values=[v for v, _ in values],
            errors=[e for _, e in values], direction="non-increasing", tol=tol)

    yield "jhat_s3_noninc", lambda: (sweep_report(
        "jhat", radii, [jhat[r] for r in radii], slack).monotone_ok, None)
    yield "ihat0_s3_noninc", lambda: (sweep_report(
        "ihat0", radii, [ihat[0.0, r] for r in radii], slack).monotone_ok, None)
    yield "jhat_le_ihat_s3", lambda: (all(
        jhat[r][0] <= iv + ie + jhat[r][1] + slack
        for (a, r), (iv, ie) in ihat.items()), None)

    flat = mv.kernels.SubHeatKernel(mv.reduced.ReducedDistanceField(
        FlowGeometry.gaussian_soliton(2)))
    r_f = inp["flat_r"]
    yield from heavy("jhat_flat", lambda: near(
        mvp.jhat_quantity(flat, r_f)[0], 1.0, orc.FLAT_JI_TOL))
    yield from heavy("ihat_flat", lambda: near(
        mvp.ihat_quantity(flat, 0.0, r_f)[0], 1.0, orc.FLAT_JI_TOL))

    lo, hi = inp["sweep_taus"]
    argv = ["sweep", "--quantity", "theta", "--geometry", "shrinking-s3",
            "--taumin", repr(lo), "--taumax", repr(hi),
            "--steps", str(inp["sweep_steps"])]
    yield from heavy("cli_sweep_theta", lambda: cli_sweep_op(
        mv, outputs, argv, exp["sweep_grid"], exp["sweep_theta"], orc.THETA_TOL))

    taus = inp["theta_taus"]
    yield "theta_s3_noninc", lambda: (sweep_report(
        "theta", taus, [theta[t] for t in taus], orc.SWEEP_TOL).monotone_ok, None)


# --------------------------------------------------------------------------- #
# heat-balls: exact heat kernels of E2, E3 and H3
# --------------------------------------------------------------------------- #
CAP_SLICES = (1e-2, 1e-3, 1e-4)   # truncation slices, as in the parabolic suite


def heat_balls_inputs(seed):
    rng = np.random.default_rng(seed)
    return {
        "radii": spanning(rng, 0.5, 1.5, 4),
        "super_radii": stratified(rng, 0.5, 1.5, 2),
        "forward_grid": spanning(rng, 0.4, 1.6, 12),
    }


def heat_balls_oracles(inp):
    return {}


def heat_balls_pass(mv, inp, exp, outputs):
    """Flat Jhat/Ihat, heat-sphere and Watson identities, a forward J sweep
    and truncation caps."""
    mvp, make_field = mv.mv_parabolic, mv.fields.make_field
    FlowGeometry, HeatKernel = mv.geometry.FlowGeometry, mv.kernels.HeatKernel
    e2, e3, h3 = (FlowGeometry.euclidean(2), FlowGeometry.euclidean(3),
                  FlowGeometry.hyperbolic(3))
    k2, k3, kh = HeatKernel(e2), HeatKernel(e3), HeatKernel(h3)
    caloric2 = make_field("caloric-quadratic", e2)
    one2 = make_field("constant-1", e2)
    super2 = make_field("superharmonic", e2, C=10.0)
    super3 = make_field("superharmonic", e3, C=10.0)
    one_h = make_field("constant-1", h3)
    exp_h = make_field("exp-radial", h3)
    radii = inp["radii"]

    for label, kern in (("e2", k2), ("e3", k3)):
        cache = {}
        for r in radii:
            yield f"jhat_{label}", lambda kern=kern, r=r: near(
                mvp.jhat_quantity(kern, r)[0], 1.0, orc.FLAT_JI_TOL)
            for frac in (0.0, 0.5):
                yield f"ihat_{label}", lambda kern=kern, a=frac * r, r=r: near(
                    mvp.ihat_quantity(kern, a, r, _cache=cache)[0], 1.0,
                    orc.FLAT_JI_TOL)

    def identity(fn, kern, field, r, tol):
        _, rhs, _ = fn(kern, field, r)
        return near(rhs, field.center_value(), tol)

    cases = [("heat_sphere_e2_caloric", mvp.mv_heat_sphere, k2, caloric2, orc.WATSON_TOL),
             ("heat_sphere_e2_one", mvp.mv_heat_sphere, k2, one2, orc.WATSON_TOL),
             ("heat_sphere_e2_super", mvp.mv_heat_sphere, k2, super2, orc.WATSON_TOL),
             ("heat_sphere_e3_super", mvp.mv_heat_sphere, k3, super3, orc.WATSON_TOL),
             ("heat_sphere_h3_one", mvp.mv_heat_sphere, kh, one_h, orc.HEAT_H3_TOL),
             ("heat_sphere_h3_exp", mvp.mv_heat_sphere, kh, exp_h, orc.HEAT_H3_TOL),
             ("watson_e2_caloric", mvp.mv_heat_ball, k2, caloric2, orc.WATSON_TOL),
             ("heat_ball_h3_one", mvp.mv_heat_ball, kh, one_h, orc.HEAT_H3_TOL)]
    for r in radii:
        for name, fn, kern, field, tol in cases:
            yield name, lambda fn=fn, kern=kern, field=field, r=r, tol=tol: \
                identity(fn, kern, field, r, tol)
    for r in inp["super_radii"]:
        yield "heat_ball_e2_super", lambda r=r: identity(
            mvp.mv_heat_ball, k2, super2, r, orc.WATSON_TOL)

    def forward_sweep():
        rep = mvp.forward_j_sweep(k2, super2, inp["forward_grid"],
                                  tol=orc.SWEEP_TOL)
        return rep.direction == "non-increasing" and rep.monotone_ok, None
    yield "forward_j_sweep", forward_sweep

    def caps(r):
        drift = [abs(c - one2.center_value()) for c in
                 mvp.truncation_convergence(k2, one2, r, CAP_SLICES)]
        shrinking = all(a >= b for a, b in zip(drift, drift[1:]))
        return shrinking and drift[-1] <= orc.CAP_TOL, None
    for r in radii:
        yield "cap_convergence", lambda r=r: caps(r)


# --------------------------------------------------------------------------- #
# green-balls: elliptic Green kernels of E3 and H3, and the MCF track
# --------------------------------------------------------------------------- #
def green_balls_inputs(seed):
    rng = np.random.default_rng(seed)
    return {
        "radii": spanning(rng, 0.3, 1.5, 4),
        # elliptic_sweep checks dJ/dr at interior nodes, and its finite-
        # difference residual grows like r^5: a fixed last interior node
        # keeps the largest one, and so resid_max, independent of the seed
        "sweep_grid": spanning(rng, 0.5, 1.4, 19) + [1.5],
        "track_radii": spanning(rng, 0.5, 2.0, 4),
        "cli_r": [float(rng.uniform(0.4, 0.6)), float(rng.uniform(1.4, 1.6))],
        "cli_steps": 7,
    }


def green_balls_oracles(inp):
    lo, hi = inp["cli_r"]
    return {"cli_grid": [float(r) for r in np.linspace(lo, hi, inp["cli_steps"])]}


def green_balls_pass(mv, inp, exp, outputs):
    """Green-ball identities, deficit signs, I/J sweeps, the MCF track and
    the CLI verify and sweep commands."""
    mve, mvp, make_field = mv.mv_elliptic, mv.mv_parabolic, mv.fields.make_field
    FlowGeometry, K = mv.geometry.FlowGeometry, mv.kernels
    e3, h3 = FlowGeometry.euclidean(3), FlowGeometry.hyperbolic(3)
    g3, gh = K.GreenKernel(e3), K.GreenKernel(h3)
    sub, sup = K.SubGreenKernel(h3, k=1.0), K.SupGreenKernel(h3)
    track = K.McfShrinkingSphereTrack(1)
    quad3 = make_field("harmonic-quadratic", e3)
    super3 = make_field("superharmonic", e3, C=10.0)
    one_h = make_field("constant-1", h3)
    exp_h = make_field("exp-radial", h3)
    density = orc.GAUSSIAN_DENSITY_N1

    def identity(kern, field, r, form, tol):
        _, rhs, _ = mve.mv_identity(kern, field, r, form)
        return near(rhs, field.center_value(), tol)

    cases = [("mv_sphere_e3_harmonic", g3, quad3, "sphere", orc.GREEN_SPHERE_TOL),
             ("mv_sphere_e3_super", g3, super3, "sphere", orc.GREEN_MV_TOL),
             ("mv_ball_e3_super", g3, super3, "ball", orc.GREEN_MV_TOL),
             ("mv_sphere_h3_one", gh, one_h, "sphere", orc.GREEN_MV_TOL),
             ("mv_sphere_h3_exp", gh, exp_h, "sphere", orc.GREEN_MV_TOL)]
    for r in inp["radii"]:
        for name, kern, field, form, tol in cases:
            yield name, lambda kern=kern, field=field, r=r, form=form, tol=tol: \
                identity(kern, field, r, form, tol)
        for form in ("sphere", "ball"):
            yield "subgreen_equality", lambda r=r, form=form: near(
                mve.mv_inequality_deficit(sub, one_h, r, form), 0.0,
                orc.DEFICIT_EQ_TOL)
        yield "subgreen_sign", lambda r=r: (
            mve.mv_inequality_deficit(sub, exp_h, r, "sphere")
            >= -orc.DEFICIT_SIGN_TOL, None)
        yield "supgreen_sign", lambda r=r: (
            mve.mv_inequality_deficit(sup, one_h, r, "sphere")
            >= -orc.DEFICIT_SIGN_TOL, None)
        yield "sphere_ball_relation", lambda r=r: near(
            mve.sphere_ball_relation_residual(g3, super3, r), 0.0,
            orc.RELATION_TOL)

    def sweep(field, direction, tol):
        out = mve.elliptic_sweep(g3, field, inp["sweep_grid"], direction=direction,
                                 tol=tol, derivative_checks=True)
        ok, res = worst(near(d, 0.0, orc.DJ_TOL) for _, _, d in out["dJ"])
        return ok and out["I"].monotone_ok and out["J"].monotone_ok, res
    yield "ij_sweep_e3_super", lambda: sweep(super3, "non-increasing", orc.SWEEP_TOL)
    yield "ij_sweep_e3_harmonic", lambda: sweep(quad3, "constant", orc.HARMONIC_J_TOL)

    for r in inp["track_radii"]:
        yield "jbar_track", lambda r=r: near(
            mvp.jbar_quantity(track, r)[0], density, orc.DENSITY_TOL)
        yield "ibar_track", lambda r=r: near(
            mvp.ibar_quantity(track, 0.0, r)[0], density, orc.DENSITY_TOL)

    for suite in ("elliptic", "mcf"):
        yield f"cli_verify_{suite}", lambda suite=suite: cli_verify_op(
            mv, outputs, suite)
    lo, hi = inp["cli_r"]
    grid = exp["cli_grid"]
    span = ["--rmin", repr(lo), "--rmax", repr(hi), "--steps", str(inp["cli_steps"])]
    for q, geom, expected, tol in (
            ("J", "euclidean3", 1.0, orc.HARMONIC_J_TOL),
            ("I", "euclidean3", 1.0, orc.GREEN_MV_TOL),
            ("jbar", "mcf-circle", density, orc.DENSITY_TOL),
            ("ibar", "mcf-circle", density, orc.DENSITY_TOL)):
        argv = ["sweep", "--quantity", q, "--geometry", geom] + span
        yield f"cli_sweep_{q}", lambda argv=argv, expected=expected, tol=tol: \
            cli_sweep_op(mv, outputs, argv, grid, [expected] * len(grid), tol)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
WORKLOADS = {
    "reduced-s3": (reduced_s3_inputs, reduced_s3_oracles, reduced_s3_pass),
    "heat-balls": (heat_balls_inputs, heat_balls_oracles, heat_balls_pass),
    "green-balls": (green_balls_inputs, green_balls_oracles, green_balls_pass),
}

