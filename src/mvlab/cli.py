"""Command line interface: named verification suites, quantity sweeps and
report rendering.

    mvlab verify --suite elliptic --out report.json
    mvlab sweep  --quantity jhat --geometry gaussian --rmin 0.2 --rmax 0.8 --steps 7
    mvlab report --in report.json --format csv

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or configuration
error.  A usage error is reported before any quantity is computed, as one
``error:`` line on stderr (argparse's own errors print the usage line first)
and nothing on stdout.  Usage errors are

* an unknown command, flag, suite, quantity or sweep geometry, or a missing
  or malformed config or report file (a report field of the wrong type, a
  suite or check name that is not a string, a negative check ``err``, a
  check ``tol`` that is not finite and nonnegative, a stored check ``pass``
  that its value, expected and tol do not give, or a top-level ``pass``
  that is not the verdict of its checks);
* a ``verify --geometry`` other than gaussian, gaussian-soliton or
  shrinking-s3, or with a suite other than ricci or all;
* a ``--tol-scale`` that is not finite and positive;
* a non-finite ``--rmin``, ``--rmax``, ``--taumin``, ``--taumax`` or ``--a``;
* a sweep flag the quantity does not read: ``--field`` is read by I and J
  only, ``--a`` by ihat and ibar, ``--taumin`` and ``--taumax`` by theta,
  ``--rmin`` and ``--rmax`` by every quantity but theta;
* ``--steps`` below 1, or a sweep grid that is not strictly increasing;
* a sweep point whose value, error, level r^(-n) or Green ball (radius and
  sphere area) is out of float range (refused before anything is written);
* a quantity the geometry does not carry: theta, ihat or jhat on a
  geometry that is not a Ricci flow (an MCF track, or a static model whose
  Ricci tensor is not its deformation tensor, such as hyperbolic3), I/J on
  an evolving geometry, and jbar/ibar off an MCF track.

All numeric output is formatted with 17 significant digits so identical
invocations produce byte-identical files.  The wall time of ``verify`` is
therefore kept out of the report: it goes to the summary line on stderr.
That ``wall_ms`` includes any scipy import a suite's first check triggers:
``import mvlab.cli`` loads no scipy, and ``report`` never does.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import mv_elliptic as mve
from . import mv_parabolic as mvp
from .fields import make_field
from .geometry import FlowGeometry
from .kernels import GreenKernel, McfShrinkingSphereTrack, SubHeatKernel
from .reduced import ReducedDistanceField
from .suites import SUITES, SuiteReport, run_suite
from .sweeps import sweep

QUANTITIES = ("I", "J", "ihat", "jhat", "ibar", "jbar", "theta")

GEOMETRIES = {
    "euclidean2": lambda: FlowGeometry.euclidean(2),
    "euclidean3": lambda: FlowGeometry.euclidean(3),
    "hyperbolic3": lambda: FlowGeometry.hyperbolic(3),
    "gaussian": lambda: FlowGeometry.gaussian_soliton(2),
    "shrinking-s2": lambda: FlowGeometry.shrinking_sphere(2),
    "shrinking-s3": lambda: FlowGeometry.shrinking_sphere(3),
    "mcf-circle": lambda: McfShrinkingSphereTrack(1),
    "mcf-sphere": lambda: McfShrinkingSphereTrack(2),
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


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by every call of
    ``main``: it reads no environment, and argparse looks up ``sys.stderr``
    only when it prints an error."""
    p = argparse.ArgumentParser(prog="mvlab",
                                description="mean value identity verification lab")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None)

    v = sub.add_parser("verify", parents=[common],
                       help="run a named verification suite")
    v.add_argument("--suite", choices=SUITES, default="all")
    v.add_argument("--geometry", default=None)
    v.add_argument("--tol-scale", type=float, default=1.0)

    s = sub.add_parser("sweep", parents=[common],
                       help="tabulate a monotone quantity over a grid")
    s.add_argument("--quantity", choices=QUANTITIES, required=True)
    s.add_argument("--geometry", default="euclidean3")
    s.add_argument("--field")
    s.add_argument("--rmin", type=float)
    s.add_argument("--rmax", type=float)
    s.add_argument("--steps", type=int, default=5)
    s.add_argument("--taumin", type=float)
    s.add_argument("--taumax", type=float)
    s.add_argument("--a", type=float)
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
    w.writerow(["name", "value", "expected", "tol", "pass", "err", "error"])
    for c in report.checks:
        w.writerow([c.name, _fmt(c.value), _fmt(c.expected), _fmt(c.tol),
                    str(c.passed).lower(), _fmt(c.err), c.error or ""])
    return buf.getvalue()


def _cmd_verify(args):
    _check_tol_scale(args)
    report = run_suite(args.suite, tol_scale=args.tol_scale,
                       geometry=args.geometry)
    fmt = args.format or "json"
    text = report.to_json() + "\n" if fmt == "json" else _report_csv(report)
    _emit(text, args.out)
    summary = (f"suite={report.suite} checks={len(report.checks)} "
               f"pass={str(report.passed).lower()} "
               f"wall_ms={report.wall_ms:.1f}\n")
    sys.stderr.write(summary)
    return 0 if report.passed else 1


def _check_tol_scale(args):
    if not 0.0 < args.tol_scale < math.inf:
        raise ValueError(
            f"--tol-scale must be finite and positive, got {args.tol_scale}")


# sweep flags that only some quantities read: their defaults, and the readers
_R_QUANTITIES = tuple(q for q in QUANTITIES if q != "theta")
_SWEEP_FLAGS = {"field": ("constant-1", ("I", "J")),
               "rmin": (0.5, _R_QUANTITIES), "rmax": (1.5, _R_QUANTITIES),
               "taumin": (0.05, ("theta",)), "taumax": (0.3, ("theta",)),
               "a": (0.0, ("ihat", "ibar"))}


def _sweep_flags(args):
    """Refuse a flag given to a quantity that does not read it, then fill in
    the defaults of the flags not given."""
    for flag, (default, readers) in _SWEEP_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.quantity not in readers:
            raise ValueError(f"--{flag} is not read by quantity {args.quantity}")


def _sweep_grid(args):
    """The validated parameter grid: tau for theta, r for the others."""
    for flag in ("rmin", "rmax", "taumin", "taumax", "a"):
        if not math.isfinite(getattr(args, flag)):
            raise ValueError(f"--{flag} must be finite, got {getattr(args, flag)}")
    if args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    if args.quantity == "theta":
        return np.linspace(args.taumin, args.taumax, args.steps)
    return np.linspace(args.rmin, args.rmax, args.steps)


def _sweep_quantity(args):
    """The swept quantity p -> (value, err) and its declared direction,
    refused before anything is computed if the geometry does not carry it."""
    geom_name = args.geometry
    if geom_name not in GEOMETRIES:
        raise ValueError(f"unknown geometry '{geom_name}'")
    geom = GEOMETRIES[geom_name]()
    q = args.quantity

    is_track = isinstance(geom, McfShrinkingSphereTrack)
    if q in ("theta", "ihat", "jhat"):
        # the reduced distance is Perelman's: the metric must move by -2 Ric
        if is_track or geom.upsilon() != geom.ricci():
            raise ValueError(f"quantity {q} needs a Ricci-flow geometry")
        fld, cache = ReducedDistanceField(geom), {}
        kern = SubHeatKernel(fld)
        quantity = {"theta": fld.reduced_volume,
                    "jhat": lambda r: mvp.jhat_quantity(kern, r),
                    "ihat": lambda r: mvp.ihat_quantity(kern, args.a, r,
                                                        _cache=cache)}[q]
        return quantity, "non-increasing"
    if q in ("I", "J"):
        if is_track or not geom.is_static:
            raise ValueError(f"quantity {q} needs a static geometry")
        kern = GreenKernel(geom)
        field = make_field(args.field, geom)
        fn = mve.i_quantity if q == "I" else mve.j_quantity
        return (lambda r: fn(kern, field, r)), mve.classical_direction(field)
    if not is_track:
        raise ValueError(f"quantity {q} needs an MCF track geometry (mcf-circle, mcf-sphere)")
    if q == "jbar":
        return (lambda r: mvp.jbar_quantity(geom, r)), "non-decreasing"
    return (lambda r: mvp.ibar_quantity(geom, args.a, r)), "non-decreasing"


def _cmd_sweep(args):
    _check_tol_scale(args)
    _sweep_flags(args)
    grid = _sweep_grid(args)
    quantity, direction = _sweep_quantity(args)
    with np.errstate(all="ignore"):  # a non-finite point is refused below instead
        report = sweep(args.quantity, quantity, grid, direction,
                       1e-6 * args.tol_scale)
    rows = list(zip(report.grid, report.values, report.errors,
                    [True] + report.verdicts))
    for p, v, e, _ in rows:
        if not (math.isfinite(v) and math.isfinite(e)):
            raise ValueError(f"{args.quantity} at {'tau' if args.quantity == 'theta' else 'r'}"
                             f" = {_fmt(float(p))} is not finite (value {v}, error {e})")

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
