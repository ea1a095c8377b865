"""Renormalization dynamics in the (alpha, beta) parameter plane.

The quadratic map

    F(alpha, beta) = (2 alpha^2 / (4 - beta^2),  beta + alpha^2 beta / (4 - beta^2))

conjugates invertibility of the two-parameter operator family at one tree
level to the next.  Its invariant region

    Omega = { ||alpha| - |beta|| <= 2  and  |alpha| + |beta| >= 2 }

is the joint spectrum locus; the level curves

    gamma_{n,j} = { 4 - beta^2 + alpha^2 - 4 alpha cos(2 pi j / 2^n) = 0 }

map into each other under F and fill Omega densely.  The vertical slice of
Omega at alpha = t, shifted by +1 in beta, is the spectrum Lambda_t of the
operator -t a + b + c + d.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

_POLE_MARGIN = 0.4  # halfwidth of the excluded alpha zones when sampling curves
_SVG_BLOCK = 8  # curves omega_svg formats at once
_SVG_SIZE = 800  # width and height of the Omega plot in pixels


def renorm_map(p: tuple) -> tuple:
    """One renormalization step (scalars or arrays); undefined on the lines beta = +-2."""
    alpha, beta = p
    if np.any(np.abs(beta) == 2.0):
        raise ValueError(f"renormalization map undefined at beta = {beta}")
    denom = 4.0 - beta * beta
    return (2.0 * alpha * alpha / denom, beta + alpha * alpha * beta / denom)


def _curve_samples(n: int, js, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Alphas and betas of count sample points on gamma_{n,j} for every j of js, one row per j.

    Solves beta = +-sqrt(alpha^2 - 4 alpha cos + 4) over an alpha grid in
    [-5, 5]; alphas within the pole margin of beta^2 = 4 (alpha near 0 or
    4 cos) are skipped so images under F stay finite and accurate.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    cos = np.array([math.cos(2.0 * math.pi * j / (1 << n)) for j in js]).reshape(-1, 1)
    half = (count + 1) // 2
    grid = np.linspace(-5.0, 5.0, max(half, 2) * 4)
    keep = (np.abs(grid) >= _POLE_MARGIN) & (np.abs(grid - 4.0 * cos) >= _POLE_MARGIN)
    # the two excluded zones hold under a fifth of the grid, so every row keeps at least half alphas
    keep &= np.cumsum(keep, axis=1) <= half
    alphas = np.broadcast_to(grid, keep.shape)[keep].reshape(len(cos), half)
    betas = np.sqrt(alphas * alphas - 4.0 * alphas * cos + 4.0)
    return np.concatenate([alphas, alphas], axis=1)[:, :count], np.concatenate([betas, -betas], axis=1)[:, :count]


def curve_residuals(n: int, js, samples: int) -> np.ndarray:
    """Max |residual| on gamma_{n-1,j} of the F-images of the samples of gamma_{n,j}, for every j of js.

    Every row is computed by the same floating-point operations, in the same
    order, as one curve on its own, so a row does not depend on the others.
    A row reads its curve only through the cosines of 2 pi j / 2^n and
    2 pi j / 2^(n-1), and the doubling identity makes row (n + 1, 2j) equal
    row (n, j) bit for bit: 2.0 * pi * (2j) / 2^(n+1) is the same float as
    2.0 * pi * j / 2^n, since scaling by a power of two is exact.
    """
    if n < 1:
        raise ValueError("need n >= 1 to step down one level")
    alphas, betas = _curve_samples(n, js, samples)
    a1, b1 = renorm_map((alphas, betas))
    cos_prev = np.array([math.cos(2.0 * math.pi * j / (1 << (n - 1))) for j in js]).reshape(-1, 1)
    residual = 4.0 - b1 * b1 + a1 * a1 - 4.0 * a1 * cos_prev
    return np.abs(residual).max(axis=1)


def curve_invariance_check(n: int, j: int, samples: int) -> float:
    """Max |residual| on gamma_{n-1,j} of F applied to sampled points of gamma_{n,j}."""
    return float(curve_residuals(n, (j,), samples)[0])


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint closed intervals, possibly degenerate."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for lo, hi in self.intervals:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
        merged: list[list[float]] = []
        for lo, hi in sorted(self.intervals):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        object.__setattr__(self, "intervals", tuple((lo, hi) for lo, hi in merged))

    def __iter__(self):
        return iter(self.intervals)

    def is_empty(self) -> bool:
        return not self.intervals

    def to_pairs(self) -> list[list[float]]:
        return [[lo, hi] for lo, hi in self.intervals]

    @staticmethod
    def from_pairs(pairs) -> "IntervalUnion":
        return IntervalUnion(tuple((float(lo), float(hi)) for lo, hi in pairs))


def lambda_slice(t: float) -> IntervalUnion:
    """Spectrum of -t a + b + c + d: the alpha = t slice of Omega, beta + 1.

    The slice constraints ||t| - |beta|| <= 2 and |t| + |beta| >= 2 put |beta|
    in [||t| - 2|, |t| + 2]; both signs of beta survive and the union merges
    into one interval when the lower bound is 0 and degenerates to two points
    at t = 0.
    """
    lo = abs(abs(t) - 2.0)
    hi = abs(t) + 2.0
    return IntervalUnion(((1.0 - hi, 1.0 - lo), (1.0 + lo, 1.0 + hi)))


def slice_spectrum_samples(t: float, n: int) -> np.ndarray:
    """Level-n spectrum of -t a + b + c + d with multiplicity: a sorted float64 array of 2^n values.

    The eigenvalues are 3 - t, 3 + t when n >= 1, and
    1 +- sqrt(t^2 - 4 t cos(2 pi j / 2^k) + 4) for 2 <= k <= n and odd
    j < 2^(k-1).  As i = j 2^(n-k) the angles are 2 pi i / 2^n for
    0 < i < 2^(n-1), the same floats, since scaling by a power of two is
    exact.  The radicand equals (t - 2 cos)^2 + 4 sin^2 and is never negative.
    So level n >= 1 holds every value of level n - 1 bit for bit (3 - t,
    3 + t and those of even i) and 2^(n-1) values more.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    root = np.sqrt(t * t - 4.0 * t * np.cos(2.0 * np.pi * np.arange(1, 1 << n >> 1) / (1 << n)) + 4.0)
    return np.sort(np.concatenate([[3.0 - t, 3.0 + t][: min(n, 1) + 1], 1.0 - root, 1.0 + root]))


def _hundredths(v: np.ndarray, size: int) -> np.ndarray:
    """format(x, ".2f") for every x of v as its number of hundredths, an int64 array of the shape of v.

    The rounding is exact: x = m 2^(e-53) with an integer m < 2^53, so
    100 x = 100 m / 2^(53-e) with 100 m < 2^60, and a shift with the
    remainder rounds it half to even, as CPython's correctly rounded
    formatting does.  Values must lie in the size-pixel viewport [0, size],
    with the sign bit clear (-0.0 formats as "-0.00").
    """
    if np.signbit(v).any() or not (v <= size).all():  # the comparison is false for NaN too
        raise ValueError(f"two-decimal formatting takes values in the viewport [0, {size}]")
    frac, exp = np.frexp(v)
    scaled = np.ldexp(frac, 53).astype(np.int64) * 100
    # at least 1 in the viewport; capped at 62, where 100 m < 2^60 is below the half and rounds to 0 as it should
    shift = np.minimum(53 - exp, 62).astype(np.int64)
    hundredths = scaled >> shift
    rest = scaled - (hundredths << shift)
    half = np.int64(1) << (shift - 1)
    hundredths += (rest > half) | ((rest == half) & (hundredths % 2 == 1))
    return hundredths


def _digit_table(size: int) -> np.ndarray:
    """ASCII rows of f"{h / 100:.2f}" for h = 0 .. 100 size, padded on the left with NUL bytes to one width.

    Its domain is the size-pixel viewport: row h, for h of _hundredths,
    holds the text of every value that rounds to h hundredths.  The rows are
    the size + 1 integer parts, each broadcast against the 100 endings
    ".00" .. ".99", cut after size.00.
    """
    width = len(str(size))
    whole = np.frombuffer("".join(str(i).rjust(width, "\0") for i in range(size + 1)).encode(), dtype=np.uint8)
    cents = np.frombuffer("".join(f".{c:02d}" for c in range(100)).encode(), dtype=np.uint8)
    table = np.empty((size + 1, 100, width + 3), dtype=np.uint8)
    table[..., :width] = whole.reshape(-1, 1, width)
    table[..., width:] = cents.reshape(100, 3)
    return table.reshape(-1, width + 3)[: 100 * size + 1]


def omega_svg(curve_levels: int = 0, slice_alphas=()) -> Iterator[str]:
    """Static _SVG_SIZE-pixel plot of Omega in [-6, 6]^2 with optional curves and slice lines, as text chunks.

    Fixed viewport, axis-aligned, deterministic output; curve overlays show
    gamma_{n,j} for n <= curve_levels and slice lines are vertical alpha = t.
    Each distinct curve is drawn once.  By the doubling identity
    gamma_{n,j} is gamma_{L,j 2^(L-n)} for L = curve_levels, with the same
    cosine as a float (see curve_residuals), and gamma_{L,j} is
    gamma_{L,2^L-j} (same cosine), so level L at j = 0 and
    j = 2^(L-1) .. 2^L-1 covers every curve, each in the colour and stacking
    order of its last copy in the all-(n, j) drawing.

    Every coordinate is written with two decimals, and the text is byte for
    byte what formatting each point on its own with f"{x:.2f}" gives: a
    curve's coordinates are computed as whole arrays by the same
    floating-point operations, in the same order, as the scalar mapping of
    one point, and formatted in whole arrays with exact rounding.  CPython
    rounds the exact binary value of x to two decimals, ties to even;
    _hundredths computes that rounding in integers, and the text of the
    rounded value is its row of _digit_table.  Every curve coordinate lies
    in the viewport [0, _SVG_SIZE], the table's domain, and one outside it
    raises.

    The chunks are the header, the curves of each block of _SVG_BLOCK, and
    the slice lines with the closing tag; each ends in a newline, and their
    join is the whole text.  No chunk is kept once yielded.
    """
    span, size = 12.0, _SVG_SIZE

    def sx(alpha: float) -> float:
        return (alpha + 6.0) / span * size

    def sy(beta: float) -> float:
        return (6.0 - beta) / span * size

    def pt(alpha: float, beta: float) -> str:
        return f"{sx(alpha):.2f},{sy(beta):.2f}"

    header = [
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
        header.append(f'<polygon points="{points}" fill="#d0d8e8" stroke="none"/>')
    header.append(
        f'<line x1="0" y1="{sy(0):.2f}" x2="{size}" y2="{sy(0):.2f}" stroke="#888" stroke-width="1"/>'
    )
    header.append(
        f'<line x1="{sx(0):.2f}" y1="0" x2="{sx(0):.2f}" y2="{size}" stroke="#888" stroke-width="1"/>'
    )
    yield "".join(f"{line}\n" for line in header)
    palette = ("#b03030", "#3060b0", "#308050", "#a07020", "#703090", "#207878")
    top = 1 << curve_levels
    alphas = np.linspace(-6.0, 6.0, 481)
    digits = _digit_table(size)
    x_codes = digits[_hundredths(sx(alphas), size)]
    js = sorted({0, *range(top // 2, top)})
    for start in range(0, len(js), _SVG_BLOCK):
        block = js[start : start + _SVG_BLOCK]
        cos = np.array([math.cos(2.0 * math.pi * j / top) for j in block]).reshape(-1, 1)
        betas = np.sqrt(alphas * alphas - 4.0 * alphas * cos + 4.0)
        b = np.stack([betas, -betas], axis=1)  # (curve, sign, alpha)
        keep = np.abs(b) <= 6.0
        # points off the viewport are not written, and 0 stands in for them
        y_codes = digits[_hundredths(np.where(keep, sy(b), 0.0), size)]
        # one row "x,y " per point, its NUL padding dropped; a polyline is its points' rows with the last space cut
        codes = np.concatenate(
            [np.broadcast_to(x_codes, b.shape + x_codes.shape[1:]), np.full(b.shape + (1,), ord(","), np.uint8),
             y_codes, np.full(b.shape + (1,), ord(" "), np.uint8)], axis=-1)
        shown = (codes != 0) & keep[..., None]
        text = codes[shown].tobytes().decode("ascii")
        ends = np.cumsum(shown.sum(axis=(2, 3)).ravel()).tolist()
        # freed before the polylines are cut, so the arrays do not lie between the strings on the heap
        del b, keep, y_codes, codes, shown
        lines = []
        for k, (begin, end) in enumerate(zip([0] + ends, ends)):
            if end > begin:
                color = palette[(curve_levels + block[k // 2]) % len(palette)]
                lines.append(
                    f'<polyline points="{text[begin:end - 1]}" fill="none" stroke="{color}" stroke-width="1"/>\n'
                )
        yield "".join(lines)
    yield "".join(
        f'<line x1="{sx(t):.2f}" y1="0" x2="{sx(t):.2f}" y2="{size}" '
        f'stroke="#c02020" stroke-width="1.5" stroke-dasharray="6,3"/>\n'
        for t in slice_alphas
    ) + "</svg>\n"
