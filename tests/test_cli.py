"""Command line interface: exit codes, report schema, determinism, config
precedence."""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from scipy import integrate

import mvlab
from mvlab.cli import main


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
    assert data["wall_ms"] > 0
    for check in data["checks"]:
        assert set(check) == {"name", "value", "expected", "tol", "pass", "err"}
        assert check["pass"] is True


def test_verify_exit_and_roundtrip(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli(["verify", "--suite", "mcf", "--out", str(out)]) == 0
    # report subcommand re-renders losslessly
    csv_out = tmp_path / "rep.csv"
    assert run_cli(["report", "--in", str(out), "--format", "csv",
                    "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "name,value,expected,tol,pass,err"
    assert len(lines) == len(json.loads(out.read_text())["checks"]) + 1

    json_out = tmp_path / "rep2.json"
    assert run_cli(["report", "--in", str(out), "--format", "json",
                    "--out", str(json_out)]) == 0
    assert json.loads(json_out.read_text()) == json.loads(out.read_text())


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


def test_usage_errors(tmp_path, capsys, monkeypatch):
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
    monkeypatch.setattr("mvlab.quad.integrate", SimpleNamespace(
        quad=computed, tanhsinh=computed,
        IntegrationWarning=integrate.IntegrationWarning))
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
    assert usage_error(j + ["--tol-scale", "-1"])
    assert usage_error(j + ["--tol-scale", "0"])
    assert usage_error(j + ["--tol-scale", "nan"])
    assert usage_error(["verify", "--suite", "mcf", "--tol-scale", "-1"])
    assert usage_error(["verify", "--suite", "mcf", "--tol-scale", "inf"])
    assert usage_error(["verify", "--suite", "ricci", "--geometry", "nonsense"])
    assert usage_error(["verify", "--suite", "all", "--geometry", "euclidean3"])


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


def test_tol_scale_tightens_flat_checks(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(["verify", "--suite", "reduced", "--tol-scale", "0.1",
                    "--out", str(out)])
    data = json.loads(out.read_text())
    flat = [c for c in data["checks"] if "flat" in c["name"]]
    assert flat and all(c["pass"] for c in flat)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "mvlab.cfg"
    cfg.write_text("quantity = J\ngeometry = euclidean3\n"
                   "field = harmonic-quadratic\nsteps = 3  # comment\n")
    out = tmp_path / "c.csv"
    code = run_cli(["sweep", "--config", str(cfg), "--quantity", "J",
                    "--steps", "4", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 5  # flag wins over config


def test_console_script_installed():
    # the child imports the same mvlab as this process, installed or not
    src = os.path.dirname(os.path.dirname(mvlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "mvlab.cli", "sweep",
                           "--quantity", "jbar", "--geometry", "mcf-circle",
                           "--steps", "3"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.startswith("parameter,value,error_estimate,monotone_ok")


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
        assert abs(float(value) - 1.0) <= 1e-4
        assert ok == "true"


def test_jobs_parallel_suite(tmp_path, monkeypatch):
    monkeypatch.setenv("MVLAB_JOBS", "4")
    out = tmp_path / "p.json"
    assert run_cli(["verify", "--suite", "mcf", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [c["name"] for c in data["checks"]] == [
        "gaussian_density_n1", "jbar_ibar_equal_density", "mcf_monotone",
        "liyau_decomposition_circle"]
