import gc
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import selfsim.cli as cli
import selfsim.hecke as hecke
import selfsim.schreier as schreier
from selfsim.group import BoundaryPoint
from selfsim.hecke import AlgebraElement, assemble_orbital
from selfsim.renorm import curve_residuals, slice_spectrum_samples
from suites import bcd_square_reference, index_order


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


def test_bcd_square_matches_the_sparse_reference_on_every_level():
    for n in range(13):
        perms = hecke._level_perms(n)
        assert (cli._bcd_square_ok(perms), bcd_square_reference(perms)) == (True, True), n


def test_bcd_square_matches_the_sparse_reference_on_transposed_permutations():
    rng = np.random.default_rng(39)
    verdicts = []
    for _ in range(600):
        perms = {g: p.copy() for g, p in hecke._level_perms(int(rng.integers(1, 7))).items()}
        for _ in range(int(rng.integers(0, 3))):  # no transposition leaves the true level
            p = perms[str(rng.choice(["b", "c", "d"]))]
            i, j = rng.integers(0, p.size, 2)
            p[[i, j]] = p[[j, i]]
        verdicts.append(cli._bcd_square_ok(perms))
        assert verdicts[-1] == bcd_square_reference(perms), perms
    assert 0 < sum(verdicts) < len(verdicts)


def test_verify_builds_one_table_per_level_and_keeps_none(monkeypatch):
    list(cli._verify_checks(1))  # numpy's first-call setup happens before tracing starts
    tracemalloc.start()
    try:
        checks = list(cli._verify_checks(17))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(ok for _, ok in checks)
    assert held < 2**20, held

    built = []
    monkeypatch.setattr(cli, "_level_perms", lambda n: built.append(n) or hecke._level_perms(0))
    list(cli._verify_checks(20))
    assert built == list(range(21))


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


def test_element_file_named_delta_has_no_target(tmp_path):
    path = tmp_path / "delta"
    path.write_text(json.dumps({"terms": [{"word": "a", "coef": 3}]}))
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--element", str(path), "--level", "3", "--out", str(out)]) == 0
    report = _read_json(out / "report.json")
    assert report["target"] is None
    assert report["element"] == "delta"


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
    assert lines[1] == "0,4.0"
    assert len(lines) == 1 + 31  # 2^n eigenvalues at each level n <= 4
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


def _omega_reference(level, tol):
    """curves.json as json.dumps writes the report of every (n, j) row, checked on its own."""
    rows = [{"n": n, "j": j, "max_residual": float(curve_residuals(n, (j,), 256)[0])}
            for n in range(1, level + 1) for j in range(1 << n)]
    worst = max(row["max_residual"] for row in rows)
    report = {"curve_checks": rows, "worst_residual": worst, "tol": tol, "all_ok": worst <= tol}
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("level", range(1, 11))
def test_omega_curves_match_per_curve_reference(level, tmp_path):
    # the rows written without the JSON encoder, against the encoder on every (n, j) row checked on its own
    out = tmp_path / "om"
    assert cli.main(["omega", "--level", str(level), "--out", str(out)]) == 0
    assert (out / "curves.json").read_text() == _omega_reference(level, 1e-9)


# the worst residual is 1.8474111129762605e-13 up to level 3 and 3.1e-13 at level 10
@pytest.mark.parametrize("tol", [0.0, 1.8474111129762605e-13, 2e-13, 1e300])
@pytest.mark.parametrize("level", [3, 10])
def test_omega_curves_match_reference_at_each_tolerance(level, tol, tmp_path):
    out = tmp_path / "om"
    want = _omega_reference(level, tol)
    code = cli.main(["omega", "--level", str(level), "--tol", repr(tol), "--out", str(out)])
    assert code == (0 if '"all_ok": true' in want else 1)
    assert (out / "curves.json").read_text() == want


def test_omega_non_finite_residual_writes_no_curves(tmp_path, monkeypatch, capsys):
    def broken(n, js, samples):
        residuals = curve_residuals(n, js, samples)
        if n == 3:
            residuals[-1] = np.nan
        return residuals

    monkeypatch.setattr(cli, "curve_residuals", broken)
    out = tmp_path / "om"
    assert cli.main(["omega", "--level", "4", "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err.splitlines()[-1]
    assert os.listdir(out) == ["omega.svg"]  # neither curves.json nor its partial file


@pytest.mark.parametrize("t", [-1.0, -0.5, 0.0, 0.3, 1e150])
@pytest.mark.parametrize("chunk", [1, 3, 1000, 1 << 16])
def test_slice_samples_match_per_value_rows(t, chunk, tmp_path, monkeypatch):
    # samples.csv, rows copied from the level before and chunks joined around repr, against one row per value
    monkeypatch.setattr(cli, "_SAMPLE_CHUNK", chunk)
    out = tmp_path / "sl"
    level = 12 if chunk > 1 else 10
    assert cli.main(["slice", "--t", repr(t), "--level", str(level), "--out", str(out)]) == 0
    want = "n,value\n" + "".join(f"{n},{v!r}\n" for n in range(level + 1)
                                  for v in slice_spectrum_samples(t, n).tolist())
    assert (out / "samples.csv").read_text() == want


def test_slice_rows_are_copied_only_from_equal_values(tmp_path, monkeypatch):
    # a level whose values do not hold the level before's bit for bit is a fault, and no samples.csv is written
    def shifted(t, n):
        values = slice_spectrum_samples(t, n)
        if n == 5:
            values[3] = np.nextafter(values[3], np.inf)
        return values

    monkeypatch.setattr(cli, "slice_spectrum_samples", shifted)
    out = tmp_path / "sl"
    assert cli.main(["slice", "--t", "-0.5", "--level", "6", "--out", str(out)]) == 3
    assert os.listdir(out) == ["lambda.json"]


# the counts binning without rounding gave, where ?sterf (and ?stemr, which solved balls up to dim 2048 before) put
# 1/4 a few ulp above the edge
@pytest.mark.parametrize(
    ("point", "radius", "counts"),
    [
        ("(0)", 1024, [0, 302, 156, 123, 112, 115, 170, 46, 0, 0, 1, 0, 46, 170, 115, 112, 123, 156, 302, 0]),
        ("001011(100)", 256, [0, 75, 39, 31, 28, 29, 43, 11, 0, 0, 1, 0, 11, 43, 29, 28, 31, 39, 75, 0]),
    ],
)
def test_orbital_histogram_ignores_last_bits(point, radius, counts, tmp_path):
    out = tmp_path / "orb"
    assert cli.main(["orbital", "--point", point, "--radius", str(radius), "--out", str(out)]) == 0
    hist = _read_json(out / "report.json")["histogram"]
    assert hist == {"lo": -0.6, "hi": 1.1, "counts": counts, "underflow": 0, "overflow": 0}
    values = np.array([float(v) for v in (out / "spectrum.csv").read_text().splitlines()[2:]])
    # the in-gap eigenvalue 1/4 sits on the edge 0.2500000000000001: exact from ?lasq1, a few ulp off from ?sterf
    assert np.abs(values - 0.25).min() <= 1e-15
    for direction in (-np.inf, np.inf):
        moved = values
        for _ in range(4):
            moved = np.nextafter(moved, direction)
        assert cli._histogram(moved) == hist


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
    # 20 bins [e_k, e_k+1) between equally spaced edges, the last one closed at hi, all at 12 decimals
    edges = np.round(np.linspace(lo, hi, 21), 12)
    values = np.round(values, 12)
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
    _assert_reruns_identical(argv, tmp_path)


def _assert_reruns_identical(argv, tmp_path):
    """Runs argv twice into fresh directories and compares every file written, byte for byte."""
    dirs = (tmp_path / "one", tmp_path / "two")
    for d in dirs:
        assert cli.main(argv + ["--out", str(d)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert "manifest.json" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    return dirs[0]


def test_banded_eigenpairs_rerun_byte_identically(tmp_path):
    # multi-letter terms widen the band, which ?sbtrd reduces to a tridiagonal before the split; no eigenvector
    terms = [("ab", 1), ("ba", 1), ("aca", 0.5), ("c", -0.3), ("", 0.2)]
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"terms": [{"word": w, "coef": c} for w, c in terms]}))
    out = _assert_reruns_identical(["spectrum", "--element", str(path), "--level", "8"], tmp_path)
    assert _read_json(out / "manifest.json")["solver"]["lapack_driver"] == "sbtrd+sterf"


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
        ["orbital", "--point", "0" * 32702 + "(1)", "--radius", "256"],
    ],
    ids=["big-q", "zero-q", "neg-samples", "neg-level", "huge-level",
         "bad-point", "bad-gens", "missing-file", "unknown-cmd", "no-cmd",
         "nan-tol", "inf-omega-tol", "nan-slice-t", "inf-omega-t",
         "huge-slice-level", "huge-omega-level", "huge-rigidity-cells",
         "zero-omega-level", "neg-omega-level", "neg-slice-level", "huge-verify-level",
         "huge-orbital-radius", "neg-rigidity-depth", "zero-rigidity-depth", "neg-rigidity-seed",
         "huge-slice-t", "huge-omega-t", "neg-spectrum-tol", "neg-omega-tol", "huge-orbital-point"],
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


def test_orbital_parses_point_once(tmp_path, monkeypatch):
    texts = []
    parse = BoundaryPoint.parse
    monkeypatch.setattr(BoundaryPoint, "parse", staticmethod(lambda text: texts.append(text) or parse(text)))
    out = tmp_path / "o"
    assert cli.main(["orbital", "--point", "1(01)", "--radius", "2", "--out", str(out)]) == 0
    assert texts == ["1(01)"]
    # the manifest keeps --point as given, the report its canonical form
    assert _read_json(out / "manifest.json")["config"]["point"] == "1(01)"
    assert _read_json(out / "report.json")["point"] == "(10)"


@pytest.mark.parametrize("radius, code", [(3, 0), (4, 2)])
def test_orbital_point_size_guard(radius, code, tmp_path, monkeypatch):
    # "01(10)" has 6 characters: (2 x 3 + 1) x 6 = 42 fits a guard of 45, (2 x 4 + 1) x 6 = 54 does not
    monkeypatch.setattr(cli, "POINT_CELL_GUARD", 45)
    out = tmp_path / "o"
    assert cli.main(["orbital", "--point", "01(10)", "--radius", str(radius), "--out", str(out)]) == code
    assert out.exists() == (code == 0)


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
        (["spectrum", "--level", "3"], [{"word": "ab", "coef": 1.0}, {"word": "badadadada", "coef": 2.0}],
         "not self-adjoint"),
        (["spectrum", "--level", "2"], [{"word": "a", "coef": float("nan")}], "finite"),
        (["spectrum", "--level", "2"], [{"word": "a", "coef": 10**400}], "finite"),
        (["spectrum", "--level", "2"], [{"word": "a", "coef": True}], "finite"),
        (["orbital", "--gens", "ab", "--radius", "2"], [{"word": "d", "coef": 1.0}], "['d']"),
        (["spectrum", "--level", "0"], [{"word": "a", "coef": 1e308}, {"word": "b", "coef": 1e308}], "2^500"),
        (["spectrum", "--level", "3"], [{"word": "a", "coef": 1e308}, {"word": "b", "coef": 1e308}], "2^500"),
    ],
    ids=["not-self-adjoint", "inverse-coef-differs", "nan-coef", "huge-int-coef", "bool-coef", "letter-not-in-gens",
         "huge-sum-level-0", "huge-sum-level-3"],
)
def test_element_usage_errors_exit_two(argv, terms, message, tmp_path, capsys):
    # rejected while the arguments are parsed: the command never starts, so --out is never made
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": terms}))
    out = tmp_path / "o"
    assert cli.main(argv + ["--element", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "terms, message",
    [([{"word": "a", "coef": 1.0}] * 257, "257 terms"), ([{"word": "ab" * 8 + "a", "coef": 1.0}], "17 letters")],
    ids=["terms", "letters"],
)
def test_element_size_guards_exit_two(terms, message, tmp_path, monkeypatch, capsys):
    def unreachable(word):
        raise AssertionError("a word was reduced before the size check")

    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": terms}))
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(hecke, "reduce_word", unreachable)
        out = tmp_path / "o"
        assert cli.main(["spectrum", "--element", str(path), "--level", "3", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_element_at_the_size_guards_is_accepted(tmp_path):
    # 256 terms of 16 letters, 4096 letters in all: a word and its reversal (its inverse), 128 times each, whose
    # operator along the line is a band 16 wide, the widest a word at the guard can give
    word = "abacabadabacabad"
    assert (hecke.TERM_GUARD, hecke.WORD_GUARD) == (256, 16) and len(word) == hecke.WORD_GUARD
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": [{"word": w, "coef": 1.0} for w in (word, word[::-1])] * 128}))
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--element", str(path), "--level", "6", "--out", str(out)]) == 0
    assert _read_json(out / "report.json")["dim"] == 64
    solver = _read_json(out / "manifest.json")["solver"]
    assert solver["bandwidth"] == 16 and solver["lapack_driver"].startswith("sbtrd+") and solver["count_shifts"] >= 2


def _padded_element_file(path, size):
    """The one-letter element a, padded with spaces to size bytes."""
    text = json.dumps({"terms": [{"word": "a", "coef": 1.0}]})
    path.write_text(text + " " * (size - len(text)))
    return path


@pytest.mark.parametrize(
    "kind, message",
    [("dev-zero", "more than the guard 1048576 bytes"), ("oversize", "more than the guard 1048576 bytes"),
     ("nested", "nested too deeply")],
)
def test_unbounded_element_files_exit_two(kind, message, tmp_path):
    # the file is read at most BYTE_GUARD + 1 bytes and refused while the arguments are parsed, with no traceback;
    # the run's address space is capped, so a read of /dev/zero that did not stop fails there, not in the test
    assert hecke.BYTE_GUARD == 2**20
    path = "/dev/zero"
    if kind == "oversize":
        path = _padded_element_file(tmp_path / "elem.json", hecke.BYTE_GUARD + 1)
    if kind == "nested":
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""), OPENBLAS_NUM_THREADS="1")
    code = "import sys; from selfsim import cli; sys.exit(cli.main(sys.argv[1:]))"
    out = tmp_path / "o"
    run = subprocess.run([sys.executable, "-c", code, "spectrum", "--element", str(path), "--level", "2", "--out",
                          str(out)], env=env, capture_output=True, text=True, timeout=60,
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
    assert run.returncode == 2, run.stderr
    assert message in run.stderr and "Traceback" not in run.stderr, run.stderr
    assert not out.exists()


def test_element_file_at_the_byte_guard_is_accepted(tmp_path):
    path = _padded_element_file(tmp_path / "elem.json", hecke.BYTE_GUARD)
    assert path.stat().st_size == hecke.BYTE_GUARD
    assert cli.main(["spectrum", "--element", str(path), "--level", "2", "--out", str(tmp_path / "o")]) == 0


def test_argument_faults_do_not_escape_main(tmp_path, monkeypatch, capsys):
    # an unexpected error while the arguments are parsed is an internal fault, not an uncaught exit 1
    def broken(spec):
        raise MemoryError("injected fault")

    monkeypatch.setattr(hecke.AlgebraElement, "from_json", staticmethod(broken))
    path = _padded_element_file(tmp_path / "elem.json", 100)
    assert cli.main(["spectrum", "--element", str(path), "--level", "2", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == "error: internal fault: MemoryError: injected fault"


def test_self_adjoint_element_needs_the_word_problem(tmp_path):
    # (ad)^4 = 1 makes adad its own inverse, although its reversal dada is another reduced word,
    # and badadadada the inverse ba of ab, although it is not the reversal of ab
    path = tmp_path / "elem.json"
    for terms in ([{"word": "adad", "coef": 1.0}], [{"word": "ab", "coef": 1.0}, {"word": "badadadada", "coef": 1.0}]):
        path.write_text(json.dumps({"terms": terms}))
        assert cli.main(["spectrum", "--element", str(path), "--level", "3", "--out", str(tmp_path / "o")]) == 0


def test_element_parse_holds_no_word_cache(tmp_path):
    # 128 random reduced 15-letter words, each next to its reversal with the same coefficient
    rng = np.random.default_rng(1)
    terms = []
    for _ in range(128):
        start = int(rng.integers(2))  # a and one of b, c, d alternate in a reduced word
        word = "".join("a" if i % 2 == start else str(rng.choice(list("bcd"))) for i in range(15))
        coef = float(rng.integers(1, 5)) / 4
        terms += [{"word": word, "coef": coef}, {"word": word[::-1], "coef": coef}]
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": terms}))
    tracemalloc.start()
    try:
        _, _, element = cli._element(str(path))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(element.terms) > 128  # palindromes and equal elements merge
    assert held < 0.5 * 2**20, held


def test_internal_fault_exits_three(tmp_path, monkeypatch, capsys):
    def broken(matrix):
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, "sym_eigs", broken)
    assert cli.main(["spectrum", "--level", "2", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.splitlines()[-1] == "error: internal fault: ValueError: injected fault"


def test_fault_while_streaming_leaves_no_artifact(tmp_path, monkeypatch, capsys):
    def broken(curve_levels, slice_alphas):
        yield "<svg>\n"
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, "omega_svg", broken)
    out = tmp_path / "om"
    assert cli.main(["omega", "--level", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == "error: internal fault: ValueError: injected fault"
    assert os.listdir(out) == []  # neither omega.svg nor the partial file it was written to


def test_orbital_streams_a_large_ball_in_bounded_memory(tmp_path):
    # a 2,046-character point (the one the size-guard extreme uses): graph.csv is 33 MB, a row about 4 KB
    point = format(random.Random(1).getrandbits(2042), "02042b") + "(01)"
    assert cli.main(["orbital", "--radius", "2", "--out", str(tmp_path / "warm")]) == 0  # scipy is imported untraced
    tracemalloc.start()
    try:
        assert cli.main(["orbital", "--point", point, "--radius", "1024", "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "o" / "graph.csv").stat().st_size > 32 * 10**6
    # the ball's 2,049 names take 4 MB and the write buffer 2 MB; formatting graph.csv whole peaked at 72 MB
    assert peak < 16 * 2**20, peak


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


_SOLVER = {"ordering": "line", "bandwidth": 1}


@pytest.mark.parametrize(
    ("argv", "terms", "solver"),
    [
        pytest.param(
            ["spectrum", "--element", "sum", "--level", "6"],
            None,
            dict(_SOLVER, lapack_driver="sterf", halvings=6, count_shifts=65),
            id="spectrum",
        ),
        pytest.param(
            ["orbital", "--point", "(1)", "--gens", "abcd", "--radius", "16"],
            None,
            dict(_SOLVER, lapack_driver="sterf", halvings=0, count_shifts=18),
            id="orbital",
        ),
        # a two-ended ball has diagonal 1/4 throughout: its eigenvalues come from ?lasq1, unchecked above the cutoff
        pytest.param(
            ["orbital", "--point", "(0)", "--radius", "1024"],
            None,
            dict(_SOLVER, lapack_driver="lasq1", halvings=0, count_shifts=0),
            id="orbital-bipartite",
        ),
        # above the cutoff no count check runs, and the level-12 operator halves 12 times
        pytest.param(
            ["spectrum", "--element", "delta", "--level", "12"],
            None,
            dict(_SOLVER, lapack_driver="sterf", halvings=12, count_shifts=0),
            id="spectrum-eigenvalues-only",
        ),
        # a + b + ab + ba links the path's vertices two steps apart: ?sbtrd reduces the wider band to a tridiagonal,
        # whose eigenvalues ?sterf gives and Sturm counts check
        pytest.param(
            ["spectrum", "--level", "5"],
            [("a", 1.0), ("b", 1.0), ("ab", 1.0), ("ba", 1.0)],
            dict(_SOLVER, lapack_driver="sbtrd+sterf", halvings=0, bandwidth=2, count_shifts=17),
            id="spectrum-bandwidth-2",
        ),
    ],
)
def test_manifest_records_solver(argv, terms, solver, tmp_path):
    if terms is not None:
        path = tmp_path / "element.json"
        path.write_text(json.dumps({"terms": [{"word": w, "coef": c} for w, c in terms]}))
        argv = argv + ["--element", str(path)]
    dirs = (tmp_path / "one", tmp_path / "two")
    for d in dirs:
        assert cli.main(argv + ["--out", str(d)]) == 0
    manifest = _read_json(dirs[0] / "manifest.json")
    # level graphs and orbital balls are paths: one-letter elements give tridiagonal operators
    assert manifest["solver"] == solver
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


def test_commands_and_the_schur_step_load_no_scipy_sparse(tmp_path):
    # every operator is band storage or index maps: the solves read the band, and up to dimension 2048 Sturm
    # counts check every band, the five-term one 3 wide; verify and schur_step_check compose permutations
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    five = tmp_path / "five.json"
    five.write_text(json.dumps({"terms": [{"word": w, "coef": c} for w, c in
                                          [("ab", 1), ("ba", 1), ("aca", 0.5), ("c", -0.3), ("", 0.2)]]}))
    code = """if True:
        import sys
        import selfsim.cli as cli
        five = ["--element", sys.argv[2]]
        for k, argv in enumerate((["spectrum", "--level", "12"], ["spectrum", "--level", "11"],
                                  ["orbital", "--point", "(0)", "--radius", "1024"],
                                  ["orbital", "--point", "(1)", "--radius", "1024"],
                                  ["spectrum", "--level", "11", *five],
                                  ["orbital", "--point", "110010(011)", "--radius", "512", *five],
                                  ["verify", "--level", "12"], ["slice", "--t", "-0.5", "--level", "12"],
                                  ["omega", "--level", "6", "--t", "-0.5"], ["rigidity", "--samples", "1000"])):
            assert cli.main(argv + ["--out", f"{sys.argv[1]}/{k}"]) == 0
            assert "scipy.sparse" not in sys.modules, argv
        from selfsim.hecke import schur_step_check
        assert schur_step_check(0.3, 0.7, 13) <= 1e-12
        assert "scipy.sparse" not in sys.modules
    """
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out"), str(five)], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr


def test_public_names_are_used_by_the_cli_or_an_acceptance_claim():
    import selfsim
    import suites
    import test_acceptance

    users = [vars(module).values() for module in (cli, suites, test_acceptance)]
    unused = [name for name in selfsim.__all__
              if not any(value is getattr(selfsim, name) for values in users for value in values)]
    assert unused == []


_DELTA_TERMS = [("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25)]


# SHA-256 of graph.csv, of flags.csv and of the bytes of the assembled operator's nonzeros in (row, column)
# order, as int64 rows, int64 columns and entries, as the string-edge ball and the per-vertex orbital
# assembler made them; spectrum.csv is left
# out because its last bits depend on the LAPACK build
@pytest.mark.parametrize(
    "point, gens, radius, terms, digests",
    [
        ("(1)", "abcd", 0, _DELTA_TERMS, (
            "50c7aa428e9d2158f043cd8474281d45682b21162db58f31d25b7550be95ed27",
            "6cf29243866d277485862558463f89a328d2b480ab7e6ff6da8be4beab351758",
            "f2f7aaa15ac7722ddd9591dc24c19b6c96c66bd9e862c644abf1e3a86ac56d51")),
        ("(1)", "abcd", 64, _DELTA_TERMS, (
            "6fa0cf20b3427f78cc2cc9ae22279f28b483dd9faced3c93b120f744a79e273b",
            "ad26ee0c7b0ccba64cdfa5d180608e4171f8775703ad9b6abab8ce5d3c3e97fb",
            "c238e7a3dc56cd47067540ffb9278a1ea2b827a6d71bc8c3766245c6f3b9d3e6")),
        ("01(10)", "abcd", 32, _DELTA_TERMS, (
            "de733cdb95625e2c5381a0660edd7a3260180ee9d610fcd446d58f2916300db5",
            "3e95d3e56dc4da4cf1c864c0db7b30190db709b3bc1c45ec98a7c27606abb7c3",
            "2a1d4f6f43a8de4d06c8301932d1524fb367a08445a5abd4b3a6d99b70f6978d")),
        ("110010(011)", "abcd", 24, [("ab", 1.0), ("ba", 1.0), ("aca", 0.5), ("c", -0.3), ("", 0.2)], (
            "3013e844d8d6a4fd74999ba0b9b3a751fcc409aed468be99bc82e7479aebfcff",
            "3912c8ce9ee8c6bbd35c17113c5155e3852967e215084650d226e52ad6f253d8",
            "ee651b32f7c589fc2d9df807b14cd1e06a37381b284a26ea708615c3b8a636b1")),
        ("0(01)", "ad", 1, [("a", 0.3), ("d", 0.2), ("ad", 1.0), ("da", 1.0), ("", 0.1)], (
            "ae0c53e0b0920af308cf9934b66df779113e7aa3508091f7ec2017859e1baae6",
            "a6393d28029dd818d385a45b39eb717110114e87d43b19406acf6c2cee2b3a36",
            "517cdde4dcedb9b4449b85935d8fff6b869f9eafa4d9d5fcd735164e79f94a92")),
        ("110010(011)", "bcd", 16, [("b", 1.0), ("c", -0.5), ("d", 0.25), ("", -1.0)], (
            "ad2ab421ee10e13ecc75cd406f8c2f327e1f3ead9ad7ad7e3f0df006039ba643",
            "4633a246e2e896f7b9b465d13b607b165f57fef46854a612708d0f21617cd0d6",
            "642112dc63be650bc754593b2f60e55304240b7a85695709197108ff7653726d")),
    ],
    ids=["ones-r0", "ones-r64", "01(10)-r32", "five-term", "gens-ad", "gens-bcd"],
)
def test_orbital_outputs_match_pinned_digests(point, gens, radius, terms, digests, tmp_path):
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": [{"word": w, "coef": c} for w, c in terms]}))
    out = tmp_path / "orb"
    argv = ["orbital", "--point", point, "--gens", gens, "--radius", str(radius), "--element", str(path)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    M, _ = assemble_orbital(AlgebraElement.from_terms(terms), BoundaryPoint.parse(point), tuple(gens), radius)
    coo = index_order(M).tocoo()  # the nonzeros in (row, column) order
    triplets = coo.row.astype(np.int64).tobytes() + coo.col.astype(np.int64).tobytes() + coo.data.tobytes()
    found = tuple(hashlib.sha256(data).hexdigest()
                  for data in ((out / "graph.csv").read_bytes(), (out / "flags.csv").read_bytes(), triplets))
    assert found == digests


@pytest.mark.parametrize(
    "point, gens, radius, terms",
    [
        ("(1)", "abcd", 0, _DELTA_TERMS),
        ("(1)", "abcd", 64, _DELTA_TERMS),
        ("110010(011)", "abcd", 24, [("ab", 1.0), ("ba", 1.0), ("aca", 0.5), ("c", -0.3), ("", 0.2)]),
        ("0(01)", "ad", 1, [("ad", 1.0), ("da", 1.0), ("", 0.1)]),
        ("1" * 300 + "(0)", "abcd", 9, [("adadada", 1.0), ("b", 0.5)]),
    ],
    ids=["ones-r0", "ones-r64", "five-term", "gens-ad", "long-preperiod"],
)
def test_orbital_ball_and_operator_each_read_the_line_once(point, gens, radius, terms, tmp_path, monkeypatch):
    # the ball written reads the line of the point out to radius, and the operator solved L - 1 steps further,
    # L the longest word: the ball is a prefix of the operator's, numbered alike
    calls = []
    line_tables = schreier._line_tables
    for module in (schreier, hecke):
        monkeypatch.setattr(module, "_line_tables", lambda *args: calls.append(args) or line_tables(*args))
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"terms": [{"word": w, "coef": c} for w, c in terms]}))
    argv = ["orbital", "--point", point, "--gens", gens, "--radius", str(radius), "--element", str(path)]
    assert cli.main(argv + ["--out", str(tmp_path / "orb")]) == 0
    root, longest = str(BoundaryPoint.parse(point)), max(len(w) for w, _ in terms)
    assert [(str(x), *rest) for x, *rest in calls] == [(root, tuple(gens), radius),
                                                       (root, tuple(gens), radius + longest - 1)]
