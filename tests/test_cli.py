"""Command line interface: exit codes, report schema, determinism, config
precedence."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvlab
from mvlab import cli, suites
from mvlab.cli import main
from mvlab.errors import DomainError

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_SUITES = ("elliptic", "parabolic", "reduced", "ricci", "mcf")


def run_cli(args):
    """Invoke the entry point in-process, capturing SystemExit from argparse."""
    try:
        return main(list(args))
    except SystemExit as exc:
        return exc.code


def test_verify_elliptic_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["verify", "--suite", "elliptic", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "elliptic"
    assert data["pass"] is True
    assert "wall_ms" not in data  # timing goes to stderr, not the report
    for check in data["checks"]:
        assert set(check) == {"name", "value", "expected", "tol", "pass", "err"}
        assert check["pass"] is True


@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_verify_golden_report(suite, tmp_path, capsys):
    """Byte-exact verify reports: every number and the layout are pinned."""
    out = tmp_path / "report.json"
    assert run_cli(["verify", "--suite", suite, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"verify_{suite}.json").read_bytes()
    err = capsys.readouterr().err
    assert err.startswith(f"suite={suite} ") and " wall_ms=" in err


def test_verify_exit_and_roundtrip(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--suite", "mcf", "--out", str(out)]) == 0
    # report subcommand re-renders losslessly
    csv_out = tmp_path / "rep.csv"
    assert run_cli(["report", "--in", str(out), "--format", "csv",
                    "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "name,value,expected,tol,pass,err,error"
    assert len(lines) == len(json.loads(out.read_text())["checks"]) + 1

    json_out = tmp_path / "rep2.json"
    assert run_cli(["report", "--in", str(out), "--format", "json",
                    "--out", str(json_out)]) == 0
    assert json.loads(json_out.read_text()) == json.loads(out.read_text())

    # a report written with a wall_ms key re-renders without it
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**json.loads(out.read_text()), "wall_ms": 9.5}))
    assert run_cli(["report", "--in", str(old), "--format", "json",
                    "--out", str(json_out)]) == 0
    assert json_out.read_bytes() == out.read_bytes()


def test_failed_check_records_error(tmp_path, monkeypatch):
    def out_of_domain():
        raise DomainError("level parameter r must be positive and finite, got -1")

    monkeypatch.setattr(suites, "build_battery", lambda *args: [
        ("raises", out_of_domain, 0.0, 1.0),
        ("passes", lambda: 1.0, 1.0, 1e-12)])
    report = suites.run_suite("elliptic")
    failed, passed = report.to_dict()["checks"]
    assert failed["error"] == ("DomainError: level parameter r must be "
                               "positive and finite, got -1")
    assert not failed["pass"] and "error" not in passed
    assert suites.SuiteReport.from_dict(report.to_dict()).checks == report.checks

    rep, again = tmp_path / "rep.json", tmp_path / "again.json"
    rep.write_text(report.to_json() + "\n")
    assert run_cli(["report", "--in", str(rep), "--format", "json",
                    "--out", str(again)]) == 1
    assert again.read_bytes() == rep.read_bytes()

    # the CSV form keeps the reason too, and leaves it empty on a pass
    table = tmp_path / "rep.csv"
    assert run_cli(["report", "--in", str(rep), "--format", "csv",
                    "--out", str(table)]) == 1
    rows = list(csv.DictReader(table.read_text().splitlines()))
    assert [row["error"] for row in rows] == [failed["error"], ""]
    assert rows[0]["pass"] == "false" and rows[1]["pass"] == "true"

    # the raised check writes err = inf; NaN is as good, and neither is a
    # usage error
    assert failed["err"] == math.inf
    for err in (math.inf, math.nan):
        rep.write_text(json.dumps({**report.to_dict(), "checks": [
            {**failed, "err": err}, passed]}))
        assert run_cli(["report", "--in", str(rep)]) == 1, err


def test_nan_quantity_fails_its_checks(monkeypatch):
    """A NaN quantity makes its check fail with value NaN: a running maximum
    that dropped it would report the other values and pass."""
    from mvlab import mv_parabolic
    monkeypatch.setattr(mv_parabolic, "ibar_quantity", lambda *args: (math.nan, 0.0))
    checks = {c.name: c for c in suites.run_suite("mcf").checks}
    for name in ("jbar_ibar_equal_density", "mcf_monotone"):
        assert math.isnan(checks[name].value) and not checks[name].passed, name
    assert checks["gaussian_density_n1"].passed
    assert checks["liyau_decomposition_circle"].passed

    # NaN in any place of a worst-of, finite values unchanged
    for values in ([math.nan, 1.0], [1.0, math.nan], [0.0, 2.0, math.nan, 1.0]):
        assert math.isnan(suites._worst(values))
        assert math.isnan(suites._worst_gap(0.0, values, lambda r: (r, 0.0)))
    assert suites._worst(iter([0.5, 2.0, 1.0])) == 2.0
    assert math.isnan(mv_parabolic.SolitonCheck(
        None, [], first_order=[1e-9, math.nan]).max_abs_first_order)

    class Field:
        def reduced_volume(self, tau):
            return (math.nan if tau == 0.2 else 1.0 - tau), 0.0
    assert math.isnan(suites._theta_s3_noninc(Field()))


def test_battery_names_are_the_golden_names(monkeypatch):
    """Each check has one name, the goldens' and in their order, whether its
    thunk returns or raises."""
    rows = suites.build_battery("all")
    names = [name for name, _, _, _ in rows]
    assert names == [c["name"] for s in GOLDEN_SUITES for c in json.loads(
        (GOLDEN / f"verify_{s}.json").read_text())["checks"]]
    assert len(set(names)) == len(names) == 37

    def raises():
        raise RuntimeError("no value")
    monkeypatch.setattr(suites, "build_battery", lambda *args: [
        (name, raises, expected, tol) for name, _, expected, tol in rows])
    report = suites.run_suite("all")
    assert [c.name for c in report.checks] == names
    assert {c.error for c in report.checks} == {"RuntimeError: no value"}


@pytest.mark.parametrize("scale", [0.1, 3.0])
def test_sweep_rows_scale_the_sweep_tolerance(scale, monkeypatch):
    """A row whose thunk runs a sweep hands the sweep its tolerance times
    tol_scale: jhat_monotone_s3 runs jhat_sweep at 1e-6 * scale."""
    from mvlab import mv_parabolic
    seen, sweep = [], mv_parabolic.jhat_sweep

    def spy(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return sweep(*args, **kwargs)
    monkeypatch.setattr(mv_parabolic, "jhat_sweep", spy)
    report = suites.run_suite("ricci", tol_scale=scale, geometry="shrinking-s3")
    assert seen == [1e-6 * scale] and report.passed


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--quantity", "J", "--geometry", "euclidean3",
            "--field", "harmonic-quadratic", "--rmin", "0.5", "--rmax", "1.5",
            "--steps", "5"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "parameter,value,error_estimate,monotone_ok"
    assert len(lines) == 6
    for line in lines[1:]:
        val = float(line.split(",")[1])
        assert abs(val) <= 1e-7          # harmonic J stays zero
        assert line.endswith("true")


def test_sweep_jbar_json(tmp_path):
    out = tmp_path / "s.json"
    code = run_cli(["sweep", "--quantity", "jbar", "--geometry", "mcf-circle",
                    "--rmin", "0.5", "--rmax", "2.0", "--steps", "4",
                    "--format", "json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["monotone_ok"] is True
        assert row["value"] == pytest.approx(1.5203469010662809, rel=1e-12)


J_SWEEP = ["sweep", "--quantity", "J", "--geometry", "euclidean3"]


@pytest.mark.parametrize("argv", [
    ["sweep", "--quantity", q] + g for q in ("jbar", "ibar")
    for g in ([], ["--geometry", "shrinking-s3"], ["--geometry", "hyperbolic3"])
], ids=" ".join)
def test_track_quantities_refuse_other_geometries(argv, capsys):
    """jbar and ibar live on an MCF track: any other geometry, the default
    euclidean3 included, is a usage error, not a sweep of another track."""
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and "mcf-circle" in err and "mcf-sphere" in err


def test_usage_errors(tmp_path, capsys, monkeypatch):
    # the environment variable of the removed --jobs flag is ignored
    monkeypatch.setenv("MVLAB_JOBS", "abc")
    assert run_cli(["verify", "--suite", "mcf"]) == 0
    assert run_cli(["sweep", "--quantity", "nope"]) == 2
    assert run_cli(["sweep", "--quantity", "J", "--geometry", "mars"]) == 2
    assert run_cli(["sweep", "--quantity", "theta", "--geometry",
                    "mcf-circle"]) == 2
    assert run_cli(["verify", "--suite", "bogus"]) == 2
    assert run_cli(["report", "--in", str(tmp_path / "missing.json")]) == 2

    # from here on any quadrature, root solve or shot fails the test: bad
    # input must be refused before a quantity is computed
    def computed(*args, **kwargs):
        raise AssertionError("a quantity was computed")
    monkeypatch.setattr("mvlab.quad._quad", computed)
    monkeypatch.setattr("mvlab.regions.integrate_de", computed)
    monkeypatch.setattr("mvlab.regions.brentq", computed)
    monkeypatch.setattr("mvlab.reduced.solve_ivp", computed)
    capsys.readouterr()

    def usage_error(argv):
        code = run_cli(argv)
        out, err = capsys.readouterr()
        return (code == 2 and out == "" and err.startswith("error: ")
                and err.count("\n") == 1)

    j = J_SWEEP
    theta = ["sweep", "--quantity", "theta", "--geometry", "shrinking-s3"]
    assert usage_error(j + ["--steps", "0"])
    assert usage_error(j + ["--steps", "-3"])
    assert usage_error(j + ["--rmin", "nan"])
    assert usage_error(j + ["--rmax", "inf"])
    assert usage_error(theta + ["--taumin", "nan"])
    assert usage_error(theta + ["--taumax=-inf"])
    assert usage_error(j + ["--a", "nan"])
    assert usage_error(j + ["--rmin", "2", "--rmax", "1"])
    assert usage_error(j + ["--rmin", "1", "--rmax", "1", "--steps", "3"])
    assert usage_error(theta + ["--taumin", "0.3", "--taumax", "0.1"])
    # static H3 has Upsilon = 0 != Ric: not a Ricci flow, so no reduced geometry
    for q in ("theta", "ihat", "jhat"):
        assert usage_error(["sweep", "--quantity", q, "--geometry", "hyperbolic3"])
        assert usage_error(["sweep", "--quantity", q, "--geometry", "mcf-sphere"])
    assert usage_error(j + ["--tol-scale", "-1"])
    assert usage_error(j + ["--tol-scale", "0"])
    assert usage_error(j + ["--tol-scale", "nan"])
    assert usage_error(["verify", "--suite", "mcf", "--tol-scale", "-1"])
    assert usage_error(["verify", "--suite", "mcf", "--tol-scale", "inf"])
    assert usage_error(["verify", "--suite", "ricci", "--geometry", "nonsense"])
    assert usage_error(["verify", "--suite", "all", "--geometry", "euclidean3"])
    # only the ricci checks have a geometry to restrict to
    for suite in ("elliptic", "parabolic", "reduced", "mcf"):
        assert usage_error(["verify", "--suite", suite, "--geometry", "shrinking-s3"])
    # valid JSON that is not a suite report
    check = {"name": "c", "expected": 0.0, "tol": 1.0, "pass": True}
    # fields of the wrong type, and a stored verdict its numbers do not give
    mistyped = {"name": "c", "value": "x", "expected": 0, "tol": "y", "pass": "no"}
    stale = {"name": "c", "value": 0.5, "expected": 0.0, "tol": 0.1, "pass": True}
    good = {"name": "c", "value": 0.5, "expected": 0.0, "tol": 1.0, "pass": True}
    for i, doc in enumerate(({}, [1], None, {"suite": "s", "checks": 3, "pass": True},
                             {"suite": "s", "checks": [1], "pass": True},
                             {"suite": "s", "checks": [check], "pass": True},
                             {"suite": "s", "checks": [mistyped], "pass": False},
                             {"suite": "s", "checks": [stale], "pass": True},
                             # names that are not strings, and a missing, mistyped
                             # or stale top-level verdict
                             {"suite": 5, "checks": [good], "pass": True},
                             {"suite": "s", "checks": [{**good, "name": [1, 2]}],
                              "pass": True},
                             {"suite": "s", "checks": [good]},
                             {"suite": "s", "checks": [good], "pass": 1},
                             {"suite": "s", "checks": [good], "pass": False},
                             # an integer no float can hold
                             {"suite": "s", "checks": [{**good, "value": 10 ** 400}],
                              "pass": True},
                             # a negative error estimate
                             {"suite": "s", "checks": [{**good, "err": -1.0}], "pass": True},
                             {"suite": "s", "checks": [{**good, "err": -math.inf}],
                              "pass": True},
                             # a tolerance that is negative or not finite, each
                             # with the verdict its numbers give
                             {"suite": "s", "checks": [{**good, "expected": "<=0",
                                                        "tol": -1.0, "value": -2.0}],
                              "pass": True},
                             {"suite": "s", "checks": [{**good, "tol": math.inf}],
                              "pass": True},
                             {"suite": "s", "checks": [{**good, "tol": math.nan,
                                                        "pass": False}],
                              "pass": False})):
        path = tmp_path / f"not_a_report_{i}.json"
        path.write_text(json.dumps(doc))
        assert usage_error(["report", "--in", str(path)]), doc

    # argparse refuses these itself, after its usage line
    def argparse_error(argv, flag):
        code = run_cli(argv)
        out, err = capsys.readouterr()
        return code == 2 and out == "" and f"error: {flag}" in err
    assert argparse_error(j + ["--dimension", "3"], "unrecognized arguments: --dimension")
    assert argparse_error(["verify", "--suite", "mcf", "--jobs", "2"],
                          "unrecognized arguments: --jobs")


@pytest.mark.parametrize("argv, named", [
    # r^(-n) overflows: refused by the level, before any quadrature
    (J_SWEEP + ["--rmin", "1e-200", "--rmax", "1", "--steps", "2"], "got 1e-200"),
    (["sweep", "--quantity", "I", "--geometry", "euclidean3", "--rmin", "1e-120",
      "--rmax", "1", "--steps", "2"], "got 1e-120"),
    (["sweep", "--quantity", "I", "--geometry", "hyperbolic3", "--rmin", "1e-120",
      "--rmax", "1", "--steps", "2"], "got 1e-120"),
    # a finite level whose point evaluates to NaN: refused after the sweep
    (["sweep", "--quantity", "jhat", "--geometry", "gaussian", "--rmin", "1e-120",
      "--rmax", "1", "--steps", "2"], "jhat at r = 9.9999999999999998e-121"),
    (["sweep", "--quantity", "theta", "--geometry", "shrinking-s3", "--taumin",
      "1e-300", "--steps", "2"], "theta at tau = 1e-300"),
])
def test_tiny_sweep_parameters_are_usage_errors(argv, named, capsys):
    """A parameter too small for floating point is exit 2 with one error line
    naming it, nothing on stdout and no numpy warning (which the test
    configuration turns into an error), never a traceback or a NaN row."""
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_reduced_ball_past_the_time_domain_is_exit_2(capsys):
    assert run_cli(["sweep", "--quantity", "jhat", "--geometry", "shrinking-s3",
                    "--rmax", "1e20"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: on-center level equation has no root inside the time domain\n"


def test_sweep_golden_csv(capsys):
    """Byte-exact output of an I/J sweep: verdicts and formatting."""
    assert run_cli(J_SWEEP + ["--field", "harmonic-quadratic",
                              "--steps", "4"]) == 0
    assert capsys.readouterr().out == (
        "parameter,value,error_estimate,monotone_ok\n"
        "0.5,0,0,true\n"
        "0.83333333333333326,0,0,true\n"
        "1.1666666666666665,0,0,true\n"
        "1.5,0,0,true\n")


def test_sweep_golden_json(capsys):
    """Byte-exact JSON output of an MCF-track sweep."""
    assert run_cli(["sweep", "--quantity", "jbar", "--geometry", "mcf-circle",
                    "--steps", "3", "--format", "json"]) == 0
    row = ('    {{\n'
           '      "error_estimate": 0.0,\n'
           '      "monotone_ok": true,\n'
           '      "parameter": {},\n'
           '      "value": 1.520346901066281\n'
           '    }}')
    assert capsys.readouterr().out == (
        '{\n'
        '  "geometry": "mcf-circle",\n'
        '  "quantity": "jbar",\n'
        '  "rows": [\n'
        + ",\n".join(row.format(p) for p in ("0.5", "1.0", "1.5")) + "\n"
        '  ]\n'
        '}\n')


SWEEP_PINS = {
    "jhat_gaussian": ["--quantity", "jhat", "--geometry", "gaussian",
                      "--rmin", "0.2", "--rmax", "0.8", "--steps", "3"],
    "ihat_a_gaussian": ["--quantity", "ihat", "--geometry", "gaussian",
                        "--a", "0.1", "--rmin", "0.2", "--rmax", "0.8",
                        "--steps", "3"],
    "ibar_a_mcf_sphere": ["--quantity", "ibar", "--geometry", "mcf-sphere",
                          "--a", "0.2", "--rmin", "0.5", "--rmax", "2.0",
                          "--steps", "4"],
    "theta_shrinking_s3": ["--quantity", "theta", "--geometry", "shrinking-s3",
                           "--taumin", "0.05", "--taumax", "0.3", "--steps", "4"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_PINS))
def test_sweep_golden_pins(name, capsys):
    """Byte-exact CSV of the heat-ball, track and reduced-volume sweeps."""
    assert run_cli(["sweep"] + SWEEP_PINS[name]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / f"sweep_{name}.csv").read_text(encoding="utf-8")


def test_tol_scale_tightens_flat_checks(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--suite", "reduced", "--tol-scale", "0.1",
                    "--out", str(out)])
    data = json.loads(out.read_text())
    flat = [c for c in data["checks"] if "flat" in c["name"]]
    assert flat and all(c["pass"] for c in flat)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "mvlab.cfg"
    cfg.write_text("quantity = J\ngeometry = euclidean3\n"
                   "field = harmonic-quadratic\nsteps = 3  # comment\n")
    out = tmp_path / "c.csv"
    argv = ["sweep", "--config", str(cfg), "--quantity", "J", "--out", str(out)]
    for _ in range(2):  # the shared parser keeps no flag between calls
        assert run_cli(argv + ["--steps", "4"]) == 0
        assert len(out.read_text().splitlines()) == 5  # flag wins over config
        assert run_cli(argv) == 0
        assert len(out.read_text().splitlines()) == 4  # the config value

    cfg.write_text("jobs = 4\n")  # the removed flag is refused from a file too
    assert run_cli(["verify", "--suite", "mcf", "--config", str(cfg)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and "unrecognized arguments: --jobs 4" in err


def test_console_script_installed(capsys):
    # the child imports the same mvlab as this process, installed or not
    src = os.path.dirname(os.path.dirname(mvlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def child(argv):
        return subprocess.run([sys.executable, "-m", "mvlab.cli"] + argv,
                              capture_output=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
    argv = ["sweep", "--quantity", "jbar", "--geometry", "mcf-circle",
            "--steps", "3"]
    proc = child(argv)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"parameter,value,error_estimate,monotone_ok")
    assert run_cli(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()

    proc = child(["verify", "--jobs", "2"])
    assert proc.returncode == 2 and proc.stdout == b""
    assert b"unrecognized arguments: --jobs 2" in proc.stderr


def test_parser_built_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    after = []
    for _ in range(3):
        assert run_cli(["sweep", "--quantity", "jbar", "--geometry",
                        "mcf-circle", "--steps", "2"]) == 0
        after.append(len(built))
    assert after[0] > 0 and after == after[:1] * 3
    assert capsys.readouterr().out.count("\n") == 3 * 3


def test_cached_parser_errors_reach_the_current_stderr(capsys):
    assert run_cli(J_SWEEP + ["--steps", "2"]) == 0  # builds the parser
    capsys.readouterr()
    assert run_cli(["sweep", "--quantity", "nope"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice: 'nope'" in err
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        assert run_cli(["verify", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in buf.getvalue()
    assert capsys.readouterr() == ("", "")


def values(valid, refused=("nan", "-1", "x")):
    """Mostly values the CLI accepts, now and then one it refuses."""
    return st.sampled_from(list(valid) * 3 + list(refused))


FORMATS = values(["csv", "json"], ["xml"])
OPTIONAL_FLAGS = {
    "sweep": {"--geometry": values(["euclidean2", "euclidean3", "hyperbolic3",
                                    "mcf-circle", "mcf-sphere"],
                                   ["gaussian", "mars"]),
              "--field": values(["constant-1", "linear", "subharmonic",
                                 "exp-radial"], ["power", "nope"]),
              "--rmin": values(["0.2", "0.5"]), "--rmax": values(["1", "2"]),
              "--steps": values(["1", "2", "3", "4"], ["0", "-1", "two"]),
              "--a": values(["0", "0.1"], ["inf", "x"]),
              "--tol-scale": values(["0.5", "1", "2"], ["0", "nan", "x"]),
              "--format": FORMATS},
    "verify": {"--geometry": values(["gaussian", "shrinking-s3"],
                                    ["euclidean3"]),
               "--tol-scale": values(["0.5", "1", "2"], ["0", "nan", "x"]),
               "--format": FORMATS},
    "report": {"--format": FORMATS},
}


@st.composite
def cli_argv(draw):
    """Cheap invocations: J/I/jbar/ibar sweeps of at most 4 steps, the mcf
    and ricci suites (a geometry restricts ricci and is refused by mcf) and
    the re-rendering of a fixed report, with flags and values drawn from the
    parser's own and a few it refuses."""
    command = draw(st.sampled_from(["sweep", "sweep", "verify", "report"]))
    head = {"sweep": ["--quantity", draw(st.sampled_from(["J", "I", "jbar", "ibar"]))],
            "verify": ["--suite", draw(st.sampled_from(["mcf", "ricci"]))],
            "report": ["--in", str(GOLDEN / "verify_mcf.json")]}[command]
    flags = [[flag, draw(strategy)] for flag, strategy in OPTIONAL_FLAGS[command].items()
             if draw(st.booleans())]
    flags += draw(st.sampled_from([[], [], [], [["--jobs", "2"]], [["--bogus"]]]))
    return [command] + head + sum(draw(st.permutations(flags)), [])


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(first=cli_argv(), other=cli_argv())
@example(first=["verify", "--suite", "ricci", "--geometry", "gaussian"],
         other=["verify", "--suite", "mcf", "--geometry", "shrinking-s3"])
def test_drawn_argv_exit_codes_and_repeatability(first, other):
    """Every drawn argv exits 0, 1 or 2 without a traceback, a usage error
    prints nothing on stdout, and an argv run again after another one
    prints the same bytes: the shared parser keeps no state between calls.
    A geometry given to the mcf suite is always a usage error."""
    runs = [run_captured(argv) for argv in (first, other, first)]
    for argv, (code, out, err) in zip((first, other, first), runs):
        assert code in (0, 1, 2), (first, other)
        assert "Traceback" not in err
        assert code != 2 or out == ""
        if argv[:3] == ["verify", "--suite", "mcf"] and "--geometry" in argv:
            assert code == 2, argv
    assert runs[2][:2] == runs[0][:2]


CHECK_KEYS = ("name", "value", "expected", "tol", "pass", "err")
OTHER_VALUES = st.sampled_from([None, True, False, 0, -1, 2.5, "x", "<=0", [], [1, 2],
                                {}, {"a": 1}, 10 ** 400, math.nan, math.inf, -math.inf])


@st.composite
def report_documents(draw):
    """A golden verify report after up to four drawn mutations: a key dropped,
    a value of another type, NaN, inf or too large for a float, a flipped
    pass, a suite or check name that is not a string."""
    suite = draw(st.sampled_from(GOLDEN_SUITES))
    doc = json.loads((GOLDEN / f"verify_{suite}.json").read_text())
    mutations = draw(st.integers(0, 4))
    for _ in range(mutations):
        checks = doc.get("checks") if isinstance(doc.get("checks"), list) else []
        target = draw(st.sampled_from([doc] + [c for c in checks if isinstance(c, dict)]))
        keys = ("suite", "checks", "pass") if target is doc else CHECK_KEYS
        action = draw(st.sampled_from(["drop", "swap", "flip", "name"]))
        if action == "drop":
            target.pop(draw(st.sampled_from(keys)), None)
        elif action == "swap":
            target[draw(st.sampled_from(keys))] = draw(OTHER_VALUES)
        elif action == "flip":
            target["pass"] = not target.get("pass")
        else:
            target["suite" if target is doc else "name"] = draw(
                st.sampled_from([5, None, [1, 2], {"n": "c"}, 1.5]))
    return suite, mutations, doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=report_documents(), fmt=st.sampled_from(["json", "csv"]))
def test_drawn_report_documents(drawn, fmt):
    """``report --in`` on a drawn document exits 0, 1 or 2 without a
    traceback and prints nothing on stdout when it exits 2; an unmutated
    golden re-renders as JSON byte for byte."""
    suite, mutations, doc = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out, err = run_captured(["report", "--in", path, "--format", fmt])
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code != 2 or out == ""
    if mutations == 0 and fmt == "json":
        assert (code, out) == (0, (GOLDEN / f"verify_{suite}.json").read_text())


def test_golden_reports_rerender_byte_for_byte(tmp_path):
    for suite in GOLDEN_SUITES:
        out = tmp_path / f"{suite}.json"
        assert run_cli(["report", "--in", str(GOLDEN / f"verify_{suite}.json"),
                        "--format", "json", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"verify_{suite}.json").read_bytes()


def test_ricci_suite_geometry_filter(tmp_path):
    out = tmp_path / "ricci.json"
    code = run_cli(["verify", "--suite", "ricci", "--geometry", "gaussian",
                    "--out", str(out)])
    assert code == 0
    names = [c["name"] for c in json.loads(out.read_text())["checks"]]
    assert names == ["jhat_ihat_flat", "soliton_identities_flat"]


def test_jhat_sweep_flat_equality(tmp_path):
    out = tmp_path / "jhat.csv"
    code = run_cli(["sweep", "--quantity", "jhat", "--geometry", "gaussian",
                    "--rmin", "0.2", "--rmax", "0.8", "--steps", "7",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    for line in lines[1:]:
        _, value, _, ok = line.split(",")
        assert abs(float(value) - 1.0) <= 1e-10
        assert ok == "true"


def test_jobs_parallel_suite():
    serial, parallel = suites.run_suite("mcf"), suites.run_suite("mcf", jobs=4)
    assert [c.name for c in parallel.checks] == [
        "gaussian_density_n1", "jbar_ibar_equal_density", "mcf_monotone",
        "liyau_decomposition_circle"]
    assert [(c.name, c.value, c.passed) for c in parallel.checks] == [
        (c.name, c.value, c.passed) for c in serial.checks]
