import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfsim.errors import PoleAtBeta, PoleHit
from selfsim.renorm import (
    IntervalUnion,
    curve_invariance_check,
    curve_points,
    gamma_residual,
    h_orbit,
    in_omega,
    lambda_slice,
    omega_svg,
    renorm_map,
    slice_spectrum_samples,
)
from selfsim.spectra import hausdorff_to_set


def test_renorm_map_fixed_points():
    assert renorm_map((2.0, 0.0)) == (2.0, 0.0)
    assert renorm_map((-2.0, 0.0)) == (2.0, 0.0)
    # the whole axis alpha = 0 is fixed pointwise
    for beta in (0.0, 0.5, -1.75, 3.0):
        assert renorm_map((0.0, beta)) == (0.0, beta)


def test_renorm_map_pole_lines():
    for alpha in (-1.0, 0.0, 3.0):
        with pytest.raises(PoleAtBeta):
            renorm_map((alpha, 2.0))
        with pytest.raises(PoleAtBeta):
            renorm_map((alpha, -2.0))


def test_in_omega_examples():
    assert in_omega((-1.0, 2.0))
    assert in_omega((1.0, 1.0))
    assert in_omega((2.0, 0.0))
    assert not in_omega((0.0, 1.0))
    assert not in_omega((-1.0, 0.0))
    assert not in_omega((4.0, 1.0))
    assert not in_omega((0.0, 0.0))


def test_in_omega_boundary_lines_exact():
    # dyadic alphas make both boundary identities exact in float arithmetic
    alphas = np.arange(8193) / 4096.0  # [0, 2]
    eps = 2.0**-30
    for alpha in alphas:
        beta = 2.0 - alpha
        assert in_omega((alpha, beta))
        assert in_omega((-alpha, beta))
        if beta - eps > 0.0:
            assert not in_omega((alpha, beta - eps))
    for beta in alphas:
        assert in_omega((beta + 2.0, beta))
        assert not in_omega((beta + 2.0 + eps, beta))


def test_gamma_residual_examples():
    assert gamma_residual(0, 0, (2.0, 0.0)) == 0.0
    assert gamma_residual(1, 1, (-2.0, 0.0)) == 0.0
    for n, j in ((0, 0), (3, 5), (6, 17)):
        assert gamma_residual(n, j, (0.0, 2.0)) == 0.0
    # j wraps modulo 2^n
    p = (1.25, -0.5)
    assert gamma_residual(3, 8, p) == gamma_residual(3, 0, p)
    assert abs(gamma_residual(2, 5, p) - gamma_residual(2, 1, p)) < 1e-12
    with pytest.raises(ValueError):
        gamma_residual(-1, 0, p)
    with pytest.raises(ValueError):
        gamma_residual(2, -1, p)


def test_curve_points_lie_on_curve():
    for n, j in ((0, 0), (1, 1), (2, 1), (4, 7)):
        pts = curve_points(n, j, 64)
        assert pts.shape == (64, 2)
        worst = max(abs(gamma_residual(n, j, (a, b))) for a, b in pts)
        assert worst <= 1e-12
    assert curve_points(1, 0, 1).shape == (1, 2)
    with pytest.raises(ValueError):
        curve_points(1, 0, 0)


def test_curve_invariance_examples():
    single = curve_invariance_check(1, 0, 1, 1e-9)
    assert single.ok and single.samples == 1
    for n, j in ((1, 0), (2, 1), (3, 3), (4, 5)):
        check = curve_invariance_check(n, j, 200, 1e-9)
        assert check.ok, (n, j, check.max_residual)
    with pytest.raises(ValueError):
        curve_invariance_check(0, 0, 10, 1e-9)


def test_lambda_slice_endpoints_exact():
    assert lambda_slice(-1.0).to_pairs() == [[-2.0, 0.0], [2.0, 4.0]]
    assert lambda_slice(1.0).to_pairs() == [[-2.0, 0.0], [2.0, 4.0]]
    assert lambda_slice(-1.5).to_pairs() == [[-2.5, 0.5], [1.5, 4.5]]
    assert lambda_slice(0.0).to_pairs() == [[-1.0, -1.0], [3.0, 3.0]]
    # lower bound hits 0 at |t| = 2 and the two bands merge
    assert lambda_slice(-2.0).to_pairs() == [[-3.0, 5.0]]
    assert lambda_slice(4.0).to_pairs() == [[-5.0, -1.0], [3.0, 7.0]]
    for t in (0.25, 1.0, 3.5):
        assert lambda_slice(t) == lambda_slice(-t)


def test_slice_samples_small_levels():
    assert slice_spectrum_samples(-1.0, 1) == [-2.0, 0.0, 2.0, 4.0]
    for n in (0, 3, 5):
        assert slice_spectrum_samples(0.0, n) == [-1.0, 3.0]
    vals = slice_spectrum_samples(-1.0, 2)
    assert len(vals) == 6
    assert min(abs(v - (1.0 + 5**0.5)) for v in vals) < 1e-12
    assert min(abs(v - (1.0 - 5**0.5)) for v in vals) < 1e-12
    # cosine collisions between j and 2^n - j collapse under dedup
    assert len(slice_spectrum_samples(-1.0, 3)) == 10


def test_slice_samples_stay_in_slice():
    for t in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0):
        union = lambda_slice(t)
        for n in range(9):
            worst = max(union.distance(v) for v in slice_spectrum_samples(t, n))
            assert worst <= 1e-9, (t, n, worst)


def test_slice_samples_fill_slice():
    union = lambda_slice(-1.0)
    points = sorted(set(v for n in range(11) for v in slice_spectrum_samples(-1.0, n)))
    forward, backward = hausdorff_to_set(points, union)
    assert forward <= 1e-9
    assert backward <= 0.01


def test_h_orbit_fixed_points_exact():
    sink = h_orbit(-2.0, 6)
    assert sink.values == [-2.0] * 7
    assert sink.distances == [0.0] * 7
    assert h_orbit(0.0, 6).values == [0.0] * 7


def test_h_orbit_attracts_at_rate_half():
    orbit = h_orbit(-1.5, 40)
    assert len(orbit.values) == 41
    assert orbit.distances[-1] <= 1e-9
    assert all(b < a for a, b in zip(orbit.distances[:6], orbit.distances[1:7]))
    ratio = orbit.distances[30] / orbit.distances[29]
    assert 0.45 < ratio < 0.55


def test_h_orbit_repels_from_zero():
    orbit = h_orbit(1e-8, 20)
    assert abs(orbit.values[20]) >= 1e-3


def test_h_orbit_pole():
    assert h_orbit(2.0, 0).values == [2.0]
    with pytest.raises(PoleHit):
        h_orbit(2.0, 1)
    with pytest.raises(ValueError):
        h_orbit(1.0, -1)


def test_interval_union_merging():
    assert IntervalUnion(((0.0, 1.0), (0.5, 2.0))).to_pairs() == [[0.0, 2.0]]
    assert IntervalUnion(((0.0, 1.0), (1.0, 2.0))).to_pairs() == [[0.0, 2.0]]
    assert IntervalUnion(((3.0, 4.0), (0.0, 1.0))).to_pairs() == [[0.0, 1.0], [3.0, 4.0]]
    with pytest.raises(ValueError):
        IntervalUnion(((1.0, 0.0),))


def test_interval_union_distance_and_contains():
    union = IntervalUnion(((0.0, 1.0), (3.0, 4.0)))
    assert union.distance(0.5) == 0.0
    assert union.distance(2.0) == 1.0
    assert union.distance(-1.0) == 1.0
    assert union.distance(5.5) == 1.5
    assert union.contains(1.0)
    assert not union.contains(2.0)
    assert union.contains(2.0, tol=1.0)
    assert union.endpoints() == [0.0, 1.0, 3.0, 4.0]


def test_interval_union_empty():
    empty = IntervalUnion(())
    assert empty.is_empty()
    assert empty.to_pairs() == []
    assert empty.endpoints() == []
    with pytest.raises(ValueError):
        empty.distance(0.0)


_lo = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_width = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_lo, _width), max_size=8))
def test_interval_union_properties(raw):
    pairs = [(lo, lo + w) for lo, w in raw]
    union = IntervalUnion.from_pairs(pairs)
    merged = list(union)
    for lo, hi in merged:
        assert lo <= hi
    for (_, prev_hi), (next_lo, _) in zip(merged, merged[1:]):
        assert next_lo > prev_hi
    for lo, hi in pairs:
        assert union.distance(lo) == 0.0
        assert union.distance(hi) == 0.0
        assert union.distance(lo + (hi - lo) / 2.0) == 0.0
    assert IntervalUnion.from_pairs(union.to_pairs()) == union


def test_omega_svg_deterministic():
    a = omega_svg(curve_levels=2, slice_alphas=(-1.0, 1.5))
    b = omega_svg(curve_levels=2, slice_alphas=(-1.0, 1.5))
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")


def test_omega_svg_contents():
    plain = omega_svg()
    assert plain.count("<polygon") == 4
    # curve overlays: two signed branches per distinct gamma_{n,j}, n <= levels
    assert plain.count("<polyline") == 2
    assert omega_svg(curve_levels=2).count("<polyline") == 6
    assert omega_svg(slice_alphas=(-1.0,)).count("stroke-dasharray") == 1
    assert "stroke-dasharray" not in plain


_POLYLINE = re.compile(r'<polyline points="([^"]*)" fill="none" stroke="([^"]*)"')


def _all_curve_polylines(levels, size=800):
    """(points, stroke) of every gamma_{n,j}, n <= levels, in drawing order, copies included."""
    palette = ("#b03030", "#3060b0", "#308050", "#a07020", "#703090", "#207878")
    lines = []
    for n in range(levels + 1):
        for j in range(1 << n):
            cos = math.cos(2.0 * math.pi * j / (1 << n))
            alphas = np.linspace(-6.0, 6.0, 481)
            betas = np.sqrt(alphas * alphas - 4.0 * alphas * cos + 4.0)
            for sign in (1.0, -1.0):
                coords = " ".join(
                    f"{(a + 6.0) / 12.0 * size:.2f},{(6.0 - sign * b) / 12.0 * size:.2f}"
                    for a, b in zip(alphas, betas)
                    if abs(sign * b) <= 6.0
                )
                if coords:
                    lines.append((coords, palette[(n + j) % len(palette)]))
    return lines


@pytest.mark.parametrize("levels", range(7))
def test_omega_svg_draws_the_top_layer_once(levels):
    # what stays visible of the all-(n, j) drawing: the last copy of each
    # distinct polyline, in the order those last copies were painted
    last = {}
    for k, (coords, stroke) in enumerate(_all_curve_polylines(levels)):
        last[coords] = (k, stroke)
    top = [(coords, stroke) for coords, (k, stroke) in sorted(last.items(), key=lambda item: item[1][0])]
    assert _POLYLINE.findall(omega_svg(curve_levels=levels)) == top


def test_omega_svg_slice_line_position():
    svg = omega_svg(size=1200, slice_alphas=(0.0,))
    # alpha = 0 slice sits on the vertical axis midline
    assert svg.count('x1="600.00"') >= 1
