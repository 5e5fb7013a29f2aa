"""Command line interface: named verification suites, quantity sweeps and
report rendering.

    mvlab verify --suite elliptic --out report.json
    mvlab sweep  --quantity jhat --geometry gaussian --rmin 0.2 --rmax 0.8 --steps 7
    mvlab report --in report.json --format csv

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or configuration
error.  A usage error is reported before any quantity is computed, as one
``error:`` line on stderr (argparse's own errors print the usage line first)
and nothing on stdout.  Usage errors are

* an unknown command, suite, quantity or sweep geometry, or a missing or
  malformed config or report file;
* a ``verify --geometry`` other than gaussian, gaussian-soliton or
  shrinking-s3;
* a ``--tol-scale`` that is not finite and positive;
* a non-finite ``--rmin``, ``--rmax``, ``--taumin``, ``--taumax`` or ``--a``;
* ``--steps`` below 1, or a sweep grid that is not strictly increasing;
* a quantity the geometry does not carry (theta or ihat/jhat on an MCF
  track, I/J on an evolving geometry).

All numeric output is formatted with 17 significant digits so identical
invocations produce byte-identical files.
"""

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import mv_elliptic as mve
from . import mv_parabolic as mvp
from .fields import make_field
from .geometry import FlowGeometry
from .kernels import (GreenKernel, McfShrinkingSphereTrack, SubGreenKernel,
                      SubHeatKernel)
from .reduced import ReducedDistanceField
from .suites import SUITES, SuiteReport, run_suite
from .sweeps import SweepReport, check_grid

QUANTITIES = ("I", "J", "ihat", "jhat", "ibar", "jbar", "theta")

GEOMETRIES = {
    "euclidean2": lambda n: FlowGeometry.euclidean(2),
    "euclidean3": lambda n: FlowGeometry.euclidean(3),
    "hyperbolic3": lambda n: FlowGeometry.hyperbolic(3),
    "gaussian": lambda n: FlowGeometry.gaussian_soliton(n or 2),
    "shrinking-s2": lambda n: FlowGeometry.shrinking_sphere(2),
    "shrinking-s3": lambda n: FlowGeometry.shrinking_sphere(3),
    "mcf-circle": lambda n: McfShrinkingSphereTrack(1),
    "mcf-sphere": lambda n: McfShrinkingSphereTrack(2),
}


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _load_config(path):
    """Flat key = value configuration; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _build_parser():
    p = argparse.ArgumentParser(prog="mvlab",
                                description="mean value identity verification lab")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--jobs", type=int,
                        default=int(os.environ.get("MVLAB_JOBS", "1")))

    v = sub.add_parser("verify", parents=[common],
                       help="run a named verification suite")
    v.add_argument("--suite", choices=SUITES, default="all")
    v.add_argument("--geometry", default=None)
    v.add_argument("--tol-scale", type=float, default=1.0)

    s = sub.add_parser("sweep", parents=[common],
                       help="tabulate a monotone quantity over a grid")
    s.add_argument("--quantity", choices=QUANTITIES, required=True)
    s.add_argument("--geometry", default="euclidean3")
    s.add_argument("--dimension", type=int, default=None)
    s.add_argument("--field", default="constant-1")
    s.add_argument("--rmin", type=float, default=0.5)
    s.add_argument("--rmax", type=float, default=1.5)
    s.add_argument("--steps", type=int, default=5)
    s.add_argument("--taumin", type=float, default=0.05)
    s.add_argument("--taumax", type=float, default=0.3)
    s.add_argument("--a", type=float, default=0.0)
    s.add_argument("--tol-scale", type=float, default=1.0)

    r = sub.add_parser("report", parents=[common],
                       help="re-render a stored JSON suite report")
    r.add_argument("--in", dest="infile", required=True)
    return p


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_csv(report):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["name", "value", "expected", "tol", "pass", "err"])
    for c in report.checks:
        w.writerow([c.name, _fmt(c.value), _fmt(c.expected), _fmt(c.tol),
                    str(c.passed).lower(), _fmt(c.err)])
    return buf.getvalue()


def _cmd_verify(args):
    _check_tol_scale(args)
    report = run_suite(args.suite, tol_scale=args.tol_scale,
                       geometry=args.geometry, jobs=max(1, args.jobs))
    fmt = args.format or "json"
    text = report.to_json() + "\n" if fmt == "json" else _report_csv(report)
    _emit(text, args.out)
    summary = (f"suite={report.suite} checks={len(report.checks)} "
               f"pass={str(report.passed).lower()}\n")
    sys.stderr.write(summary)
    return 0 if report.passed else 1


def _check_tol_scale(args):
    if not 0.0 < args.tol_scale < math.inf:
        raise ValueError(
            f"--tol-scale must be finite and positive, got {args.tol_scale}")


def _sweep_grid(args):
    """The validated parameter grid: tau for theta, r for the others."""
    for flag in ("rmin", "rmax", "taumin", "taumax", "a"):
        if not math.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag} must be finite, got {getattr(args, flag)}")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.quantity == "theta":
        grid = np.linspace(args.taumin, args.taumax, args.steps)
    else:
        grid = np.linspace(args.rmin, args.rmax, args.steps)
    check_grid(grid)
    return grid


def _sweep_rows(args, grid):
    """Values, error estimates and declared direction over the grid."""
    geom_name = args.geometry
    if geom_name not in GEOMETRIES:
        raise ValueError(f"unknown geometry '{geom_name}'")
    geom = GEOMETRIES[geom_name](args.dimension)
    q = args.quantity

    is_track = isinstance(geom, McfShrinkingSphereTrack)
    if q == "theta":
        if is_track:
            raise ValueError("theta needs a Ricci-flow geometry")
        fld = ReducedDistanceField(geom)
        pairs = [fld.reduced_volume(t) for t in grid]
        direction = "non-increasing"
    elif q in ("I", "J"):
        if is_track or not geom.is_static:
            raise ValueError(f"quantity {q} needs a static geometry")
        if geom_name == "hyperbolic3":
            kern = SubGreenKernel(geom, k=geom.k)
        else:
            kern = GreenKernel(geom)
        field = make_field(args.field, geom)
        fn = mve.i_quantity if q == "I" else mve.j_quantity
        pairs = [fn(kern, field, r) for r in grid]
        direction = mve.classical_direction(field)
    elif q in ("ihat", "jhat"):
        if is_track:
            raise ValueError(f"quantity {q} needs a Ricci-flow geometry")
        kern = SubHeatKernel(ReducedDistanceField(geom))
        if q == "jhat":
            pairs = [mvp.jhat_quantity(kern, r) for r in grid]
        else:
            cache = {}
            pairs = [mvp.ihat_quantity(kern, args.a, r, _cache=cache)
                     for r in grid]
        direction = "non-increasing"
    else:  # ibar, jbar
        track = geom if is_track else McfShrinkingSphereTrack(geom.n)
        if q == "jbar":
            pairs = [mvp.jbar_quantity(track, r) for r in grid]
        else:
            pairs = [mvp.ibar_quantity(track, args.a, r) for r in grid]
        direction = "non-decreasing"
    return [v for v, _ in pairs], [e for _, e in pairs], direction


def _cmd_sweep(args):
    _check_tol_scale(args)
    grid = _sweep_grid(args)
    vals, errs, direction = _sweep_rows(args, grid)
    report = SweepReport(name=args.quantity, grid=list(grid), values=vals,
                         errors=errs, direction=direction,
                         tol=1e-6 * args.tol_scale)
    rows = list(zip(grid, vals, errs, [True] + report.verdicts))

    fmt = args.format or "csv"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["parameter", "value", "error_estimate", "monotone_ok"])
        for p, v, e, ok in rows:
            w.writerow([_fmt(float(p)), _fmt(float(v)), _fmt(float(e)),
                        str(ok).lower()])
        text = buf.getvalue()
    else:
        text = json.dumps(
            {"quantity": args.quantity, "geometry": args.geometry,
             "rows": [{"parameter": float(p), "value": float(v),
                       "error_estimate": float(e), "monotone_ok": ok}
                      for p, v, e, ok in rows]},
            indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_report(args):
    with open(args.infile, "r", encoding="utf-8") as fh:
        report = SuiteReport.from_dict(json.load(fh))
    fmt = args.format or "csv"
    text = report.to_json() + "\n" if fmt == "json" else _report_csv(report)
    _emit(text, args.out)
    return 0 if report.passed else 1


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "config", None):
        try:
            cfg = _load_config(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        # config entries become flags placed before the explicit ones, so
        # command line arguments keep precedence
        injected = []
        for key, val in cfg.items():
            injected += [f"--{key.replace('_', '-')}", val]
        args = parser.parse_args([argv[0]] + injected + argv[1:])

    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
