import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from selfsim import renorm
from selfsim.hecke import AlgebraElement, assemble_level
from selfsim.renorm import (
    IntervalUnion,
    _curve_samples,
    _digit_table,
    _hundredths,
    curve_invariance_check,
    curve_residuals,
    lambda_slice,
    omega_svg,
    renorm_map,
    slice_spectrum_samples,
)
from selfsim.spectra import hausdorff_to_set, sym_eigvals
from suites import in_omega


def test_renorm_map_fixed_points():
    assert renorm_map((2.0, 0.0)) == (2.0, 0.0)
    assert renorm_map((-2.0, 0.0)) == (2.0, 0.0)
    # the whole axis alpha = 0 is fixed pointwise
    for beta in (0.0, 0.5, -1.75, 3.0):
        assert renorm_map((0.0, beta)) == (0.0, beta)


def test_renorm_map_pole_lines():
    for alpha in (-1.0, 0.0, 3.0):
        with pytest.raises(ValueError, match="renormalization map undefined"):
            renorm_map((alpha, 2.0))
        with pytest.raises(ValueError, match="renormalization map undefined"):
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


def _curve_points(n: int, j: int, count: int) -> np.ndarray:
    """The (alpha, beta) rows of _curve_samples for one curve."""
    alphas, betas = _curve_samples(n, (j,), count)
    return np.stack([alphas[0], betas[0]], axis=1)


def test_curve_points_lie_on_curve():
    for n, j in ((0, 0), (1, 1), (2, 1), (4, 7)):
        pts = _curve_points(n, j, 64)
        assert pts.shape == (64, 2)
        cos = math.cos(2.0 * math.pi * j / (1 << n))
        worst = max(abs(4.0 - b * b + a * a - 4.0 * a * cos) for a, b in pts)
        assert worst <= 1e-12
    assert _curve_points(1, 0, 1).shape == (1, 2)
    with pytest.raises(ValueError):
        _curve_samples(1, (0,), 0)


def test_curve_invariance_examples():
    assert curve_invariance_check(1, 0, 1) <= 1e-9
    for n, j in ((1, 0), (2, 1), (3, 3), (4, 5)):
        residual = curve_invariance_check(n, j, 200)
        assert residual <= 1e-9, (n, j, residual)
    with pytest.raises(ValueError):
        curve_invariance_check(0, 0, 10)


def _reference_curve_points(n: int, j: int, count: int) -> np.ndarray:
    """The per-curve sampler _curve_samples replaced, kept verbatim as the bitwise reference."""
    if count < 1:
        raise ValueError("need at least one sample")
    cos = math.cos(2.0 * math.pi * j / (1 << n))
    half = (count + 1) // 2
    alphas = np.linspace(-5.0, 5.0, max(half, 2) * 4)
    keep = (np.abs(alphas) >= 0.4) & (np.abs(alphas - 4.0 * cos) >= 0.4)
    alphas = alphas[keep][:half]
    betas = np.sqrt(alphas * alphas - 4.0 * alphas * cos + 4.0)
    pts = np.concatenate(
        [np.stack([alphas, betas], axis=1), np.stack([alphas, -betas], axis=1)]
    )
    return pts[:count]


def _reference_curve_invariance_check(n: int, j: int, samples: int) -> float:
    """The per-curve check curve_invariance_check replaced, kept verbatim as the bitwise reference."""
    if n < 1:
        raise ValueError("need n >= 1 to step down one level")
    pts = _reference_curve_points(n, j, samples)
    a1, b1 = renorm_map((pts[:, 0], pts[:, 1]))
    cos_prev = math.cos(2.0 * math.pi * j / (1 << (n - 1)))
    residual = 4.0 - b1 * b1 + a1 * a1 - 4.0 * a1 * cos_prev
    return float(np.abs(residual).max())


@pytest.mark.parametrize("samples", [1, 2, 200, 256, 10**4])
def test_curve_residuals_match_per_curve_reference(samples):
    # every curve omega checks, in its chunks of 64, bitwise against the per-curve computation
    for n in range(1, 11):
        for start in range(0, 1 << n, 64):
            js = range(start, min(start + 64, 1 << n))
            got = curve_residuals(n, js, samples).tolist()
            assert got == [_reference_curve_invariance_check(n, j, samples) for j in js], (n, start)
            assert _curve_samples(n, js, samples)[0].shape == (len(js), samples)
    for n, j in ((1, 0), (4, 5), (10, 1023)):
        assert curve_invariance_check(n, j, samples) == _reference_curve_invariance_check(n, j, samples)
        assert np.array_equal(_curve_points(n, j, samples), _reference_curve_points(n, j, samples))


def test_curve_residuals_doubling_identity():
    # row (n, 2j) is row (n - 1, j) bit for bit, j = 0 included: the cosines are the same floats
    previous = curve_residuals(1, range(2), 256)
    for n in range(2, 13):
        js = range(1 << n)
        assert all(math.cos(2.0 * math.pi * (2 * j) / (1 << n)) == math.cos(2.0 * math.pi * j / (1 << (n - 1)))
                   for j in range(1 << (n - 1)))
        rows = np.concatenate([curve_residuals(n, js[start : start + 64], 256) for start in range(0, 1 << n, 64)])
        assert rows[0::2].tobytes() == previous.tobytes(), n
        previous = rows


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
    assert slice_spectrum_samples(-1.0, 0).tolist() == [4.0]
    assert slice_spectrum_samples(-1.0, 1).tolist() == [2.0, 4.0]
    assert slice_spectrum_samples(0.0, 0).tolist() == [3.0]
    for n in (1, 3, 5):
        # repeats are kept: at t = 0 every radicand is 4
        assert slice_spectrum_samples(0.0, n).tolist() == [-1.0] * ((1 << n - 1) - 1) + [3.0] * ((1 << n - 1) + 1)
    vals = slice_spectrum_samples(-1.0, 2).tolist()
    assert len(vals) == 4
    assert min(abs(v - (1.0 + 5**0.5)) for v in vals) < 1e-12
    assert min(abs(v - (1.0 - 5**0.5)) for v in vals) < 1e-12
    # 1 - |t - 2| and 1 - |t + 2| end the lower band of the slice but are eigenvalues at no level
    for n in range(8):
        vals = slice_spectrum_samples(-1.0, n).tolist()
        assert len(vals) == 1 << n
        assert -2.0 not in vals and 0.0 not in vals


@pytest.mark.parametrize("t", [0.0, 1.0, -1.0, 2.0, -2.0, -0.5, 2.5])
def test_slice_samples_are_the_level_spectra(t):
    element = AlgebraElement.from_terms([("a", -t), ("b", 1.0), ("c", 1.0), ("d", 1.0)])
    for n in range(14):
        solved = np.sort(sym_eigvals(assemble_level(element, n)))
        assert np.abs(np.array(slice_spectrum_samples(t, n)) - solved).max() <= 1e-12, (t, n)


def test_slice_samples_stay_in_slice():
    for t in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0):
        union = lambda_slice(t)
        for n in range(9):
            worst = hausdorff_to_set(slice_spectrum_samples(t, n), union)[0]
            assert worst <= 1e-9, (t, n, worst)


def test_slice_samples_fill_slice():
    union = lambda_slice(-1.0)
    points = sorted(set(v for n in range(11) for v in slice_spectrum_samples(-1.0, n)))
    forward, backward = hausdorff_to_set(points, union)
    assert forward <= 1e-9
    assert backward <= 0.01


def test_interval_union_merging():
    assert IntervalUnion(((0.0, 1.0), (0.5, 2.0))).to_pairs() == [[0.0, 2.0]]
    assert IntervalUnion(((0.0, 1.0), (1.0, 2.0))).to_pairs() == [[0.0, 2.0]]
    assert IntervalUnion(((3.0, 4.0), (0.0, 1.0))).to_pairs() == [[0.0, 1.0], [3.0, 4.0]]
    with pytest.raises(ValueError):
        IntervalUnion(((1.0, 0.0),))


def test_interval_union_distance_and_contains():
    union = IntervalUnion(((0.0, 1.0), (3.0, 4.0)))
    for x, distance in ((0.5, 0.0), (2.0, 1.0), (-1.0, 1.0), (5.5, 1.5)):
        assert hausdorff_to_set([x], union)[0] == distance, x


def test_interval_union_empty():
    empty = IntervalUnion(())
    assert empty.is_empty()
    assert empty.to_pairs() == []
    with pytest.raises(ValueError):
        hausdorff_to_set([0.0], empty)


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
    if pairs:
        inside = [v for lo, hi in pairs for v in (lo, hi, lo + (hi - lo) / 2.0)]
        assert hausdorff_to_set(inside, union)[0] == 0.0
    assert IntervalUnion.from_pairs(union.to_pairs()) == union


def test_omega_svg_deterministic():
    a = "".join(omega_svg(curve_levels=2, slice_alphas=(-1.0, 1.5)))
    b = "".join(omega_svg(curve_levels=2, slice_alphas=(-1.0, 1.5)))
    assert a == b
    assert a.startswith("<svg ")
    assert a.rstrip().endswith("</svg>")


def test_omega_svg_contents():
    plain = "".join(omega_svg())
    assert plain.count("<polygon") == 4
    # curve overlays: two signed branches per distinct gamma_{n,j}, n <= levels
    assert plain.count("<polyline") == 2
    assert "".join(omega_svg(curve_levels=2)).count("<polyline") == 6
    assert "".join(omega_svg(slice_alphas=(-1.0,))).count("stroke-dasharray") == 1
    assert "stroke-dasharray" not in plain


def test_omega_svg_yields_bounded_chunks():
    # the level-10 plot is 6 MB: 8 curves to a chunk keep each one near 100 KB
    chunks = list(omega_svg(curve_levels=10))
    assert all(chunk.endswith("\n") for chunk in chunks)
    assert max(map(len, chunks)) < 256 * 2**10


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
    assert _POLYLINE.findall("".join(omega_svg(curve_levels=levels))) == top


def _formatted(values, size=800):
    """The text omega_svg writes for each value: the _digit_table row of its _hundredths, NUL padding dropped."""
    rows = _digit_table(size)[_hundredths(np.asarray(values, dtype=float), size)]
    return [row.tobytes().lstrip(b"\0").decode("ascii") for row in rows]


def _check_formatting(values, size=800):
    """Each value of the viewport [0, size] (sign bit clear) formats as f"{v:.2f}", and each one outside is refused."""
    values = np.asarray(values, dtype=float)
    inside = ~np.signbit(values) & (values <= size)
    assert _formatted(values[inside], size) == [f"{v:.2f}" for v in values[inside].tolist()]
    refused = 0
    for k in np.flatnonzero(~inside).tolist():
        try:
            _hundredths(values[k : k + 1], size)
        except ValueError as exc:
            refused += "values in the viewport" in str(exc)
    assert refused == np.count_nonzero(~inside)


@given(st.lists(st.floats(min_value=-1300.0, max_value=1300.0), min_size=1, max_size=64))
@example([-0.0, 0.0, -0.001, 0.005, -0.005, 0.125, -0.375, 799.995, 1e-300, -5e-324, 800.0, 800.004])
def test_two_decimals_match_python_formatting(values):
    _check_formatting(values)


def test_two_decimals_ties_and_neighbours():
    # the odd multiples of 1/8 are the ties that floats hold exactly; the k/200 are the rounding
    # boundaries, which floats miss by less than an ulp, so their neighbours fall on both sides;
    # 0 and 800 are the ends of the viewport, and the values past them are refused one by one
    eighths = np.arange(-1200 * 8, 1200 * 8 + 1) / 8.0
    hundredths = np.arange(-120000, 120001) / 200.0
    values = np.concatenate([eighths, hundredths, 2.0**51 - np.arange(4), [2.0**-1074, 0.0049999999999999996, 0.0, 800.0]])
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    assert {0.0, 800.0, 2.0**-1074, np.nextafter(800.0, 0.0)} <= set(values.tolist())
    _check_formatting(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**52, -1e300, -0.0, -5e-324, 800.0000000000001])
def test_two_decimals_refuse_values_out_of_range(bad):
    with pytest.raises(ValueError, match="values in the viewport"):
        _hundredths(np.array([1.0, bad]), 800)


def test_digit_table_rows_are_python_formatting():
    # every row of the viewport's table, h = 0 .. 80,000, is the text of h / 100
    table = _digit_table(800)
    assert table.shape == (80001, 6)
    assert [row.lstrip(b"\0").decode("ascii") for row in table.view("S6").ravel().tolist()] == [
        f"{h / 100:.2f}" for h in range(80001)
    ]


def test_omega_svg_slice_line_position():
    svg = "".join(omega_svg(slice_alphas=(0.0,)))
    # alpha = 0 slice sits on the vertical axis midline
    assert svg.count('x1="400.00"') >= 1


def _reference_omega_svg(curve_levels: int = 0, slice_alphas=(), size: int = 800) -> str:
    """The per-point writer omega_svg replaced, kept as the byte-for-byte reference.

    Each curve is read as Python floats, which format exactly as the numpy scalars did.
    """
    span = 12.0

    def sx(alpha: float) -> float:
        return (alpha + 6.0) / span * size

    def sy(beta: float) -> float:
        return (6.0 - beta) / span * size

    def pt(alpha: float, beta: float) -> str:
        return f"{sx(alpha):.2f},{sy(beta):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    # Omega clipped to the viewport is the first-quadrant polygon mirrored
    # through both axes: between the lines |alpha - beta| = 2 outside the
    # diamond |alpha| + |beta| = 2.
    quadrant = [(2.0, 0.0), (6.0, 4.0), (6.0, 6.0), (4.0, 6.0), (0.0, 2.0)]
    for fx, fy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        points = " ".join(pt(fx * a, fy * b) for a, b in quadrant)
        parts.append(f'<polygon points="{points}" fill="#d0d8e8" stroke="none"/>')
    parts.append(
        f'<line x1="0" y1="{sy(0):.2f}" x2="{size}" y2="{sy(0):.2f}" stroke="#888" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{sx(0):.2f}" y1="0" x2="{sx(0):.2f}" y2="{size}" stroke="#888" stroke-width="1"/>'
    )
    palette = ("#b03030", "#3060b0", "#308050", "#a07020", "#703090", "#207878")
    top = 1 << curve_levels
    for j in sorted({0, *range(top // 2, top)}):
        cos = math.cos(2.0 * math.pi * j / top)
        alphas = np.linspace(-6.0, 6.0, 481)
        betas = np.sqrt(alphas * alphas - 4.0 * alphas * cos + 4.0)
        color = palette[(curve_levels + j) % len(palette)]
        for sign in (1.0, -1.0):
            coords = " ".join(pt(a, sign * b) for a, b in zip(alphas.tolist(), betas.tolist()) if abs(sign * b) <= 6.0)
            if coords:
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1"/>'
                )
    for t in slice_alphas:
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="0" x2="{sx(t):.2f}" y2="{size}" '
            f'stroke="#c02020" stroke-width="1.5" stroke-dasharray="6,3"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_SLICES = ((), (-0.5,), (-1.0, 1.5))
_SIZES = (800, 1200)
_COMBOS = [(alphas, size) for alphas in _SLICES for size in _SIZES]
# every (slices, size) pair up to level 4, then one pair per level and every level at 800:
# the reference takes about 1 s at level 10 and doubles with each level
_GOLDEN_CASES = [(n, *combo) for n in range(5) for combo in _COMBOS] + [
    (n, *_COMBOS[n % len(_COMBOS)]) for n in range(5, 10)
] + [(n, _COMBOS[n % len(_COMBOS)][0], 800) for n in (5, 7, 9)] + [(n, (-0.5,), 800) for n in (10, 11, 12)]


@pytest.mark.parametrize(
    "levels, slice_alphas, size",
    _GOLDEN_CASES,
    ids=[f"{n}-t{'_'.join(map(str, alphas)) or 'none'}-{size}" for n, alphas, size in _GOLDEN_CASES],
)
def test_omega_svg_matches_per_point_reference(levels, slice_alphas, size, monkeypatch):
    # the plot is always 800 pixels wide; at 1200 other values go through the two-decimal formatter
    monkeypatch.setattr(renorm, "_SVG_SIZE", size)
    got, want = "".join(omega_svg(levels, slice_alphas)), _reference_omega_svg(levels, slice_alphas, size)
    if got != want:
        # pytest's own diff of two multi-megabyte strings takes minutes
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        pytest.fail(f"first difference at character {at}: {got[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")
