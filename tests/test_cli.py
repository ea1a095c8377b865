import json
import os
import subprocess
import sys

import numpy as np
import pytest

import selfsim.cli as cli


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
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": [{"word": "a", "coef": 1.0}]}))
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


@pytest.mark.parametrize(
    "terms",
    [None, [{"word": "", "coef": 2.0}], [{"word": "", "coef": -1.0}], [{"word": "a", "coef": 1.0}, {"word": "", "coef": 0.2}]],
    ids=["delta", "2e", "-e", "a+0.2e"],
)
def test_orbital_histogram_counts_the_spectrum(terms, tmp_path):
    out = tmp_path / "orb"
    argv = ["orbital", "--point", "01(10)", "--radius", "16", "--out", str(out)]
    if terms is not None:
        path = tmp_path / "elem.json"
        path.write_text(json.dumps({"terms": terms}))
        argv += ["--element", str(path)]
    assert cli.main(argv) == 0
    report = _read_json(out / "report.json")
    hist = report["histogram"]
    values = np.array([float(v) for v in (out / "spectrum.csv").read_text().splitlines()[2:]])
    lo, hi = hist["lo"], hist["hi"]
    assert (lo, hi) == (-0.6, 1.1)
    # 20 bins [e_k, e_k+1) between equally spaced edges, the last one closed at hi
    edges = np.linspace(lo, hi, 21)
    inside = values[(lo <= values) & (values <= hi)]
    bins = np.minimum(np.searchsorted(edges, inside, side="right") - 1, 19)
    assert hist["counts"] == np.bincount(bins, minlength=20).tolist()
    assert hist["underflow"] == np.count_nonzero(values < lo)
    assert hist["overflow"] == np.count_nonzero(values > hi)
    assert sum(hist["counts"]) + hist["underflow"] + hist["overflow"] == report["dim"] == values.size


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


def test_rigidity_shallow_fractions(tmp_path):
    # at depth 3 the section of b survives along 111 only (7/8 of rays die),
    # that of c or d along 11* (3/4 die); a dies at level 1 everywhere
    out = tmp_path / "r"
    argv = ["rigidity", "--q", "0.5", "--samples", "1000", "--depth", "3", "--seed", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    assert _read_json(out / "rigidity.json")["per_generator"] == {"a": 1.0, "b": 0.87, "c": 0.764, "d": 0.764}


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
        ["orbital", "--radius", "100000000"],
        ["rigidity", "--samples", "0", "--depth", "-5"],
        ["rigidity", "--depth", "0"],
        ["rigidity", "--samples", "10", "--seed", "-1"],
        ["slice", "--level", "2", "--t", "1e200"],
        ["omega", "--level", "1", "--t", "-1e200"],
        ["spectrum", "--level", "3", "--tol", "-1"],
        ["omega", "--level", "1", "--tol", "-1"],
    ],
    ids=["big-q", "zero-q", "neg-samples", "neg-level", "huge-level",
         "bad-point", "bad-gens", "missing-file", "unknown-cmd", "no-cmd",
         "nan-tol", "inf-omega-tol", "nan-slice-t", "inf-omega-t",
         "huge-slice-level", "huge-omega-level", "huge-rigidity-cells",
         "zero-omega-level", "neg-omega-level", "neg-slice-level", "huge-verify-level",
         "huge-orbital-radius", "neg-rigidity-depth", "zero-rigidity-depth", "neg-rigidity-seed",
         "huge-slice-t", "huge-omega-t", "neg-spectrum-tol", "neg-omega-tol"],
)
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    # rejected while the arguments are parsed: the command never starts, so --out is never made
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)] if argv else argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    for flag in ("--seed", "--t", "--tol"):
        if flag in argv:
            assert flag in err


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


@pytest.mark.parametrize(
    "argv, terms, message",
    [
        (["spectrum", "--level", "0"], [{"word": "ab", "coef": 1.0}], "not self-adjoint"),
        (["spectrum", "--level", "2"], [{"word": "a", "coef": float("nan")}], "finite"),
        (["spectrum", "--level", "2"], [{"word": "a", "coef": 10**400}], "finite"),
        (["orbital", "--gens", "ab", "--radius", "2"], [{"word": "d", "coef": 1.0}], "['d']"),
        (["spectrum", "--level", "0"], [{"word": "a", "coef": 1e308}, {"word": "b", "coef": 1e308}], "2^500"),
        (["spectrum", "--level", "3"], [{"word": "a", "coef": 1e308}, {"word": "b", "coef": 1e308}], "2^500"),
    ],
    ids=["not-self-adjoint", "nan-coef", "huge-int-coef", "letter-not-in-gens", "huge-sum-level-0",
         "huge-sum-level-3"],
)
def test_element_usage_errors_exit_two(argv, terms, message, tmp_path, capsys):
    # rejected while the arguments are parsed: the command never starts, so --out is never made
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": terms}))
    out = tmp_path / "o"
    assert cli.main(argv + ["--element", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_self_adjoint_element_needs_the_word_problem(tmp_path):
    # (ad)^4 = 1 makes adad its own inverse, although its reversal dada is another reduced word
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": [{"word": "adad", "coef": 1.0}]}))
    assert cli.main(["spectrum", "--element", str(path), "--level", "3", "--out", str(tmp_path / "o")]) == 0


def test_internal_fault_exits_three(tmp_path, monkeypatch, capsys):
    def broken(matrix):
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, "sym_eigs", broken)
    assert cli.main(["spectrum", "--level", "2", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.splitlines()[-1] == "error: internal fault: ValueError: injected fault"


def test_unwritable_out_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["verify", "--level", "0", "--out", str(blocker)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("seed", [1, 7, 123])
@pytest.mark.parametrize("block", [7, cli._DRAW_BLOCK])
def test_rigidity_blockwise_draw_is_one_draw(seed, block, monkeypatch):
    monkeypatch.setattr(cli, "_DRAW_BLOCK", block)
    samples, depth = 5, (cli._DRAW_BLOCK * 3) // 5 + 3  # more than 3 blocks, rows straddle block edges
    whole = np.random.default_rng(seed).random((samples, depth)) >= 0.3
    assert np.array_equal(cli._draw_rays(np.random.default_rng(seed), 0.3, samples, depth), whole)


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


def test_readme_library_block_runs():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, selfsim.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
