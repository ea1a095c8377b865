import json
import os
import subprocess
import sys

import pytest

import selfsim.cli as cli
from selfsim.hecke import AlgebraElement


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_verify_level_zero(tmp_path):
    out = tmp_path / "v"
    assert cli.main(["verify", "--level", "0", "--out", str(out)]) == 0
    report = _read_json(out / "verify.json")
    assert report["all_ok"] is True
    assert report["level"] == 0
    assert all(c["ok"] for c in report["checks"])
    manifest = _read_json(out / "manifest.json")
    assert manifest["command"] == "verify"
    assert manifest["outputs"] == ["verify.json"]
    assert set(manifest["versions"]) == {"selfsim", "numpy", "scipy"}


def test_verify_fault_injection(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_relator_ok", lambda word, n: word != "bcd")
    assert cli.main(["verify", "--level", "1", "--out", str(tmp_path / "a")]) == 1
    assert "FAIL relator bcd at n=0" in capsys.readouterr().err

    monkeypatch.setattr(cli, "_relator_ok", lambda word, n: True)
    monkeypatch.setattr(cli, "_bcd_square_ok", lambda n: False)
    assert cli.main(["verify", "--level", "0", "--out", str(tmp_path / "b")]) == 1
    assert "FAIL (B+C+D-I)^2=4I at n=0" in capsys.readouterr().err


def test_spectrum_delta(tmp_path):
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--element", "delta", "--level", "8", "--out", str(out)]) == 0
    head = (out / "eigenvalues.csv").read_text().splitlines()[0]
    assert head.startswith("# dim=256 ")
    report = _read_json(out / "report.json")
    assert report["within_tol"] is True
    assert report["hausdorff_forward"] <= 1e-9
    assert report["target"] == [[-0.5, 0.0], [0.5, 1.0]]


def test_spectrum_custom_element_file(tmp_path):
    element = AlgebraElement.from_terms([("a", 1.0)])
    path = tmp_path / "elem.json"
    path.write_text(element.to_json())
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--element", str(path), "--level", "3", "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["target"] is None
    assert report["element"] == "elem.json"
    values = [float(v) for v in (out / "eigenvalues.csv").read_text().splitlines()[2:]]
    assert all(abs(abs(v) - 1.0) < 1e-12 for v in values)


def test_spectrum_failure_exit(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli._TARGETS, "delta", ((0.9, 1.0),))
    assert cli.main(["spectrum", "--element", "delta", "--level", "3", "--out", str(tmp_path)]) == 1
    assert "FAIL eigenvalues stray" in capsys.readouterr().err


def test_slice_outputs(tmp_path):
    out = tmp_path / "sl"
    assert cli.main(["slice", "--t", "-1", "--level", "4", "--out", str(out)]) == 0
    assert _read_json(out / "lambda.json")["intervals"] == [[-2.0, 0.0], [2.0, 4.0]]
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "0,-2.0"
    report = _read_json(out / "report.json")
    assert sorted(report["hausdorff"]) == ["0", "1", "2", "3", "4"]
    assert all(v["forward"] <= 1e-9 for v in report["hausdorff"].values())
    assert (out / "omega-slice.svg").read_text().startswith("<svg ")
    manifest = _read_json(out / "manifest.json")
    assert manifest["outputs"] == ["lambda.json", "omega-slice.svg", "report.json", "samples.csv"]


def test_omega_outputs(tmp_path):
    out = tmp_path / "om"
    assert cli.main(["omega", "--level", "2", "--t", "-1.0", "--out", str(out)]) == 0
    svg = (out / "omega.svg").read_text()
    assert svg.count("<polyline") == 6
    assert svg.count("stroke-dasharray") == 1
    report = _read_json(out / "curves.json")
    assert report["all_ok"] is True
    assert len(report["curve_checks"]) == 2 + 4
    assert report["worst_residual"] <= 1e-9


def test_orbital_identity_element(tmp_path):
    out = tmp_path / "orb"
    argv = ["orbital", "--point", "(0)", "--gens", "a", "--radius", "2",
            "--element", "e", "--out", str(out)]
    assert cli.main(argv) == 0
    report = _read_json(out / "report.json")
    assert report["dim"] == 2
    assert report["flagged_rows"] == 0
    values = [float(v) for v in (out / "spectrum.csv").read_text().splitlines()[2:]]
    assert values == [1.0, 1.0]
    flag_rows = (out / "flags.csv").read_text().splitlines()
    assert flag_rows[0] == "vertex,flagged"
    assert all(row.endswith(",0") for row in flag_rows[1:])


def test_orbital_radius_zero_flagged(tmp_path):
    out = tmp_path / "orb0"
    argv = ["orbital", "--point", "(1)", "--gens", "abcd", "--radius", "0", "--out", str(out)]
    assert cli.main(argv) == 0
    report = _read_json(out / "report.json")
    assert report["dim"] == 1
    assert report["flagged_rows"] == 1
    values = [float(v) for v in (out / "spectrum.csv").read_text().splitlines()[2:]]
    assert values == [0.75]


def test_orbital_long_preperiod(tmp_path):
    # the points of this ball share their first 100 coordinates; they are
    # told apart by their whole eventually periodic form, not by a prefix
    out = tmp_path / "long"
    argv = ["orbital", "--point", "1" * 100 + "(0)", "--radius", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    report = _read_json(out / "report.json")
    assert report["dim"] == 9
    assert len((out / "flags.csv").read_text().splitlines()) == 1 + 9


def test_rigidity_no_samples(tmp_path):
    out = tmp_path / "r"
    assert cli.main(["rigidity", "--samples", "0", "--out", str(out)]) == 0
    assert _read_json(out / "rigidity.json")["per_generator"] == {}


def test_rigidity_seeded(tmp_path):
    out = tmp_path / "r"
    argv = ["rigidity", "--q", "0.5", "--samples", "200", "--depth", "64",
            "--seed", "7", "--out", str(out)]
    assert cli.main(argv) == 0
    report = _read_json(out / "rigidity.json")
    assert sorted(report["per_generator"]) == ["a", "b", "c", "d"]
    assert report["per_generator"]["a"] == 1.0
    assert all(v >= 0.99 for v in report["per_generator"].values())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--level", "2"],
        ["spectrum", "--element", "delta", "--level", "5"],
        ["slice", "--t", "-1", "--level", "3"],
        ["omega", "--level", "2", "--t", "-1.0"],
        ["orbital", "--point", "(0)", "--gens", "abcd", "--radius", "4"],
        ["rigidity", "--q", "0.3", "--samples", "100", "--seed", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_reruns_are_byte_identical(argv, tmp_path):
    dirs = (tmp_path / "one", tmp_path / "two")
    for d in dirs:
        assert cli.main(argv + ["--out", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["rigidity", "--q", "1.5"],
        ["rigidity", "--q", "0.0"],
        ["rigidity", "--samples", "-1"],
        ["verify", "--level", "-1"],
        ["spectrum", "--level", "19"],
        ["orbital", "--point", "01"],
        ["orbital", "--gens", "axy"],
        ["spectrum", "--element", "no-such-file.json"],
        ["nonsense"],
        [],
        ["spectrum", "--level", "3", "--tol", "nan"],
        ["omega", "--level", "1", "--tol", "inf"],
        ["slice", "--level", "1", "--t", "nan"],
        ["omega", "--level", "1", "--t=-inf"],
        ["slice", "--level", "40"],
        ["omega", "--level", "40"],
        ["rigidity", "--samples", "1000000000"],
        ["omega", "--level", "0"],
        ["omega", "--level", "-3"],
        ["slice", "--level", "-1"],
        ["verify", "--level", "21"],
    ],
    ids=["big-q", "zero-q", "neg-samples", "neg-level", "huge-level",
         "bad-point", "bad-gens", "missing-file", "unknown-cmd", "no-cmd",
         "nan-tol", "inf-omega-tol", "nan-slice-t", "inf-omega-t",
         "huge-slice-level", "huge-omega-level", "huge-rigidity-cells",
         "zero-omega-level", "neg-omega-level", "neg-slice-level", "huge-verify-level"],
)
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)] if argv else argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    ["{}", '{"terms": [{"word": "a"}]}', '{"terms": 3}', '[1]', '{"terms": [{"word": 1, "coef": 1.0}]}'],
    ids=["no-terms", "no-coef", "terms-not-list", "not-object", "word-not-string"],
)
def test_malformed_element_exits_two(text, tmp_path, capsys):
    path = tmp_path / "elem.json"
    path.write_text(text)
    assert cli.main(["spectrum", "--element", str(path), "--level", "2", "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_runs_as_script(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = tmp_path / "v"
    argv = [sys.executable, "-m", "selfsim.cli", "verify", "--level", "1", "--out", str(out)]
    subprocess.run(argv, env=env, capture_output=True, check=True)
    assert _read_json(out / "verify.json")["all_ok"] is True


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "OMP_NUM_THREADS" in out and "OPENBLAS_NUM_THREADS" in out
    for name in ("verify", "spectrum", "slice", "omega", "orbital", "rigidity"):
        assert name in out


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--element", "sum", "--level", "6"],
        ["orbital", "--point", "(1)", "--gens", "abcd", "--radius", "16"],
    ],
    ids=lambda argv: argv[0],
)
def test_manifest_records_solver(argv, tmp_path):
    dirs = (tmp_path / "one", tmp_path / "two")
    for d in dirs:
        assert cli.main(argv + ["--out", str(d)]) == 0
    manifest = _read_json(dirs[0] / "manifest.json")
    # level graphs and orbital balls are paths: the operators are tridiagonal
    assert manifest["solver"] == {"ordering": "reverse_cuthill_mckee", "lapack_driver": "sbevd", "bandwidth": 1}
    assert (dirs[0] / "manifest.json").read_bytes() == (dirs[1] / "manifest.json").read_bytes()


def test_json_artifacts_refuse_nan(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(str(tmp_path), "bad.json", {"t": float("nan")})


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, selfsim.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
