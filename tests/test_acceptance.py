"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single summary line; run with -v (and optionally -s) to
get one verdict per claim.  The session-scoped fixtures in conftest.py share
the expensive level-13 solves across criteria.
"""

import json
import time

import numpy as np

import selfsim.cli as cli
from selfsim.group import GENERATORS, BoundaryPoint, rigidity_depth
from selfsim.hecke import (
    AlgebraElement,
    assemble_level,
    assemble_orbital,
    delta_element,
    generator_sum_element,
    groupoid_block,
    schur_step_check,
)
from selfsim.renorm import IntervalUnion, curve_invariance_check, lambda_slice, slice_spectrum_samples
from selfsim.spectra import hausdorff_to_set, sym_eigvals

from suites import (
    suite_ball_monotone,
    suite_decomposition,
    suite_omega_invariance,
    suite_shift_agreement,
    suite_word_action,
)

DELTA_TARGET = IntervalUnion(((-0.5, 0.0), (0.5, 1.0)))
SUM_TARGET = IntervalUnion(((-2.0, 0.0), (2.0, 4.0)))


def test_c01_quarter_sum_levels_fill_two_bands(delta_levels):
    eigs, t13 = delta_levels
    worst_forward = 0.0
    for n in range(1, 14):
        forward, _ = hausdorff_to_set(eigs[n], DELTA_TARGET)
        assert forward <= 1e-9, (n, forward)
        worst_forward = max(worst_forward, forward)
    _, backward = hausdorff_to_set(eigs[13], DELTA_TARGET)
    assert backward <= 0.05
    assert t13 <= 60.0
    print(f"C01 PASS forward<={worst_forward:.2e} backward13={backward:.4f} t13={t13:.1f}s")


def test_c02_generator_sum_is_scaled_copy(delta_levels, sum13_eigs):
    assert lambda_slice(-1.0).to_pairs() == [[-2.0, 0.0], [2.0, 4.0]]
    forward, backward = hausdorff_to_set(sum13_eigs, SUM_TARGET)
    assert forward <= 1e-9
    assert backward <= 0.05
    eigs, _ = delta_levels
    assert np.array_equal(np.sort(sum13_eigs), np.sort(4.0 * eigs[13]))
    print(f"C02 PASS forward={forward:.2e} backward={backward:.4f} sum13==4*delta13 bitwise")


def test_c03_slice_spectra_match_formula():
    expected = {
        -1.5: [[-2.5, 0.5], [1.5, 4.5]],
        -1.0: [[-2.0, 0.0], [2.0, 4.0]],
        -0.5: [[-1.5, -0.5], [2.5, 3.5]],
    }
    for t, pairs in expected.items():
        union = lambda_slice(t)
        assert union.to_pairs() == pairs
        samples = slice_spectrum_samples(t, 10)
        worst, backward = hausdorff_to_set(samples, union)
        assert worst <= 1e-9, (t, worst)
        assert backward <= 0.02, (t, backward)
    print("C03 PASS slice endpoints exact, samples inside to 1e-9, fill to 0.02")


def test_c04_spectral_curves_are_invariant():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for n in range(1, 7):
        for j in range(1 << n):
            residual = curve_invariance_check(n, j, 10**4)
            assert residual <= 1e-9, (n, j, residual)
            worst = max(worst, residual)
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    print(f"C04 PASS {count} curves worst={worst:.2e} in {elapsed:.2f}s")


def test_c05_two_by_two_reduction_closes():
    rng = np.random.default_rng(271828)
    accepted = 0
    worst = 0.0
    while accepted < 100:
        alpha, beta = rng.uniform(-2.5, 2.5, 2)
        if abs(beta - 2.0) < 0.1 or abs(beta + 2.0) < 0.1:
            continue
        for n in (1, 2, 3, 4):
            residual = schur_step_check(alpha, beta, n)
            assert residual <= 1e-12, (alpha, beta, n, residual)
            worst = max(worst, residual)
        accepted += 1
    print(f"C05 PASS 100 parameter points x 4 levels worst={worst:.2e}")


def test_c06_defining_relations_hold_exactly():
    checks = list(cli._verify_checks(13))
    bad = [name for name, ok in checks if not ok]
    assert not bad, bad
    print(f"C06 PASS {len(checks)} exact relation checks through level 13")


def test_c07_block_extension_doubles_spectrum():
    elements = {
        "delta": delta_element(),
        "sum": generator_sum_element(),
        "mixed": AlgebraElement.from_terms([("a", 1.0), ("b", -1.0), ("c", 2.0)]),
    }
    worst = 0.0
    for label, element in elements.items():
        for n in range(1, 9):
            level = np.sort(sym_eigvals(assemble_level(element, n)))
            block = np.sort(sym_eigvals(groupoid_block(element, n)))
            gap = float(np.abs(block - np.sort(np.repeat(level, 2))).max())
            assert gap <= 1e-9, (label, n, gap)
            worst = max(worst, gap)
    print(f"C07 PASS 3 elements x levels 1..8 worst={worst:.2e}")


def test_c08_level_spectra_nest(delta_levels):
    eigs, _ = delta_levels
    worst = 0.0
    for n in range(1, 10):
        lower = np.sort(eigs[n])
        upper = np.sort(eigs[n + 1])
        gaps = np.abs(lower[:, None] - upper[None, :]).min(axis=1)
        assert gaps.max() <= 1e-9, (n, gaps.max())
        worst = max(worst, float(gaps.max()))
    print(f"C08 PASS levels 1..10 nested, worst gap={worst:.2e}")


def test_c09_generic_boundary_points_are_rigid():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    depth = 64
    fractions = {}
    for q in (0.3, 0.5, 0.7):
        bits = rng.random((10**4, depth)) >= q
        for g in GENERATORS:
            hits = np.count_nonzero(rigidity_depth(bits, g))
            fraction = hits / len(bits)
            assert fraction >= 0.999, (q, g, fraction)
            fractions[(q, g)] = fraction
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    print(f"C09 PASS min fraction={min(fractions.values()):.4f} in {elapsed:.2f}s")


def test_c10_large_ball_spectrum_concentrates():
    matrix, _ = assemble_orbital(delta_element(), BoundaryPoint.parse("(1)"), GENERATORS, 256)
    values = sym_eigvals(matrix)
    assert values.min() >= -0.6 and values.max() <= 1.1
    near = sum(1 for v in values if hausdorff_to_set([v], DELTA_TARGET)[0] <= 0.05)
    fraction = near / len(values)
    assert fraction >= 0.9
    print(f"C10 PASS dim={len(values)} range=[{values.min():.3f},{values.max():.3f}] near={fraction:.2%}")


def test_c10_two_ended_ball_spectrum_is_closed_form(tmp_path):
    # along its line, delta on a two-ended radius-r ball is 1/4 on the diagonal of a path on 2r + 1 vertices whose
    # edges weigh 1/4 and 1/2 in turn, so its spectrum is 1/4 and 1/4 +- sqrt(5/16 + cos(pi k / (r + 1)) / 4),
    # k = 1..r; each radius is solved by ?lasq1, and the Sturm count check certifies radii 5 and 64
    worst = 0.0
    for point in ("(0)", "(01)", "001011(100)", "110010(011)"):
        for radius, shifts in ((5, 12), (64, 130), (1024, 0)):
            out = tmp_path / f"{point}-{radius}"
            assert cli.main(["orbital", "--point", point, "--radius", str(radius), "--out", str(out)]) == 0
            solver = json.loads((out / "manifest.json").read_text())["solver"]
            assert (solver["lapack_driver"], solver["count_shifts"]) == ("lasq1", shifts)
            values = np.array([float(v) for v in (out / "spectrum.csv").read_text().splitlines()[2:]])
            k = np.arange(1, radius + 1)
            root = np.sqrt(5.0 / 16.0 + np.cos(np.pi * k / (radius + 1)) / 4.0)
            want = np.sort(np.concatenate([[0.25], 0.25 - root, 0.25 + root]))
            gap = np.abs(np.sort(values) - want).max()
            assert gap <= values.size * np.finfo(float).eps, (point, radius, gap)
            worst = max(worst, gap)
    print(f"C10 PASS two-ended balls of radius 5, 64 and 1024 match the closed form to {worst:.2e}")


def test_c11_property_suites():
    for suite in (
        suite_decomposition,
        suite_word_action,
        suite_ball_monotone,
        suite_omega_invariance,
        suite_shift_agreement,
    ):
        summary = suite()
        print(f"C11 {suite.__name__}: {summary}")
    print("C11 PASS all five property suites")
