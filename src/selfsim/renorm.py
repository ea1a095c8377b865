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
from dataclasses import dataclass

import numpy as np

_POLE_MARGIN = 0.4  # halfwidth of the excluded alpha zones when sampling curves
_SVG_BLOCK = 8  # curves omega_svg formats at once
_SVG_SIZE = 800  # width and height of the Omega plot in pixels
_DEDUP_TOL = 1e-12  # slice samples closer than this are one value


def renorm_map(p: tuple) -> tuple:
    """One renormalization step (scalars or arrays); undefined on the lines beta = +-2."""
    alpha, beta = p
    if np.any(np.abs(beta) == 2.0):
        raise ValueError(f"renormalization map undefined at beta = {beta}")
    denom = 4.0 - beta * beta
    return (2.0 * alpha * alpha / denom, beta + alpha * alpha * beta / denom)


def in_omega(p: tuple[float, float]) -> bool:
    alpha, beta = p
    return abs(abs(alpha) - abs(beta)) <= 2.0 and abs(alpha) + abs(beta) >= 2.0


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

    def distance(self, x: float) -> float:
        if not self.intervals:
            raise ValueError("empty union has no distances")
        best = math.inf
        for lo, hi in self.intervals:
            if lo <= x <= hi:
                return 0.0
            best = min(best, abs(x - lo), abs(x - hi))
        return best

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


def slice_spectrum_samples(t: float, n: int) -> list[float]:
    """Level-n eigenvalue samples on the alpha = t slice: 1 +- sqrt per curve.

    The radicand t^2 - 4 t cos + 4 equals (t - 2 cos)^2 + 4 sin^2 and is never
    negative.  Values are sorted and deduplicated within _DEDUP_TOL, collapsing
    the exact cosine collisions between j and 2^n - j.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    j = np.arange(1 << n)
    root = np.sqrt(t * t - 4.0 * t * np.cos(2.0 * np.pi * j / (1 << n)) + 4.0)
    values = np.sort(np.concatenate([1.0 - root, 1.0 + root]))
    kept: list[float] = []
    for v in values:
        if not kept or v - kept[-1] > _DEDUP_TOL:
            kept.append(float(v))
    return kept


def _two_decimals(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII codes of format(x, ".2f") for every x of v, and which of them to keep.

    Each value gets one row along a new last axis: sign, integer digits,
    point and two decimals, with the sign kept where the sign bit is set and
    the leading zeros of the integer part dropped.  The digits are exact:
    |x| = m 2^(e-53) with an integer m < 2^53, so 100 |x| = 100 m / 2^(53-e)
    with 100 m < 2^60, and a shift with the remainder rounds it half to even,
    as CPython's correctly rounded formatting does.  Values must be finite
    and below 2^52 in magnitude.
    """
    if not (np.abs(v) < 2.0**52).all():  # false for NaN and the infinities too
        raise ValueError("two-decimal formatting takes finite values below 2^52 in magnitude")
    frac, exp = np.frexp(np.abs(v))
    scaled = np.ldexp(frac, 53).astype(np.int64) * 100
    # at least 1 below 2^52; capped at 62, where 100 m < 2^60 is below the half and rounds to 0 as it should
    shift = np.minimum(53 - exp, 62).astype(np.int64)
    hundredths = scaled >> shift
    rest = scaled - (hundredths << shift)
    half = np.int64(1) << (shift - 1)
    hundredths += (rest > half) | ((rest == half) & (hundredths % 2 == 1))
    width = max(3, len(str(int(hundredths.max(initial=0)))))
    codes = np.empty(v.shape + (width + 2,), dtype=np.uint8)
    shown = np.ones(codes.shape, dtype=bool)
    codes[..., 0] = ord("-")
    shown[..., 0] = np.signbit(v)
    codes[..., width - 1] = ord(".")
    # digit columns, most significant first: the integer part, then two decimals after the point
    for k, column in enumerate([*range(1, width - 1), width, width + 1]):
        power = 10 ** (width - 1 - k)
        codes[..., column] = hundredths // power % 10 + ord("0")
        if column < width - 2:  # a leading zero unless it is the units digit
            shown[..., column] = hundredths >= power
    return codes, shown


def omega_svg(curve_levels: int = 0, slice_alphas=()) -> str:
    """Static _SVG_SIZE-pixel plot of Omega in [-6, 6]^2 with optional curves and slice lines.

    Fixed viewport, axis-aligned, deterministic output; curve overlays show
    gamma_{n,j} for n <= curve_levels and slice lines are vertical alpha = t.
    Each distinct curve is drawn once: gamma_{n,j} is gamma_{L,j 2^(L-n)} for
    L = curve_levels, and gamma_{L,j} is gamma_{L,2^L-j} (same cosine), so
    level L at j = 0 and j = 2^(L-1) .. 2^L-1 covers every curve, each in the
    colour and stacking order of its last copy in the all-(n, j) drawing.

    Every coordinate is written with two decimals, and the text is byte for
    byte what formatting each point on its own with f"{x:.2f}" gives: a
    curve's coordinates are computed as whole arrays by the same
    floating-point operations, in the same order, as the scalar mapping of
    one point, and formatted in whole arrays with exact rounding.  CPython
    rounds the exact binary value of x to two decimals, ties to even; the
    array formatter computes that rounding in integers, so the two agree on
    every finite value below 2^52 in magnitude (the bound it accepts).
    """
    span, size = 12.0, _SVG_SIZE

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
    alphas = np.linspace(-6.0, 6.0, 481)
    x_codes, x_shown = _two_decimals(sx(alphas))
    js = sorted({0, *range(top // 2, top)})
    for start in range(0, len(js), _SVG_BLOCK):
        block = js[start : start + _SVG_BLOCK]
        cos = np.array([math.cos(2.0 * math.pi * j / top) for j in block]).reshape(-1, 1)
        betas = np.sqrt(alphas * alphas - 4.0 * alphas * cos + 4.0)
        b = np.stack([betas, -betas], axis=1)  # (curve, sign, alpha)
        keep = np.abs(b) <= 6.0
        # points off the viewport are not written, and 0 stands in for them
        y_codes, y_shown = _two_decimals(np.where(keep, sy(b), 0.0))
        # one row "x,y " per point; a polyline is its points' rows with the last space cut
        codes = np.concatenate(
            [np.broadcast_to(x_codes, b.shape + x_codes.shape[1:]), np.full(b.shape + (1,), ord(","), np.uint8),
             y_codes, np.full(b.shape + (1,), ord(" "), np.uint8)], axis=-1)
        kept = keep[..., None]
        shown = np.concatenate([x_shown & kept, kept, y_shown & kept, kept], axis=-1)
        text = codes[shown].tobytes().decode("ascii")
        ends = np.cumsum(shown.sum(axis=(2, 3)).ravel()).tolist()
        # freed before the polylines are cut, so the arrays do not lie between the strings on the heap
        del b, keep, kept, y_codes, y_shown, codes, shown
        for k, (begin, end) in enumerate(zip([0] + ends, ends)):
            if end > begin:
                color = palette[(curve_levels + block[k // 2]) % len(palette)]
                parts.append(
                    f'<polyline points="{text[begin:end - 1]}" fill="none" stroke="{color}" stroke-width="1"/>'
                )
    for t in slice_alphas:
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="0" x2="{sx(t):.2f}" y2="{size}" '
            f'stroke="#c02020" stroke-width="1.5" stroke-dasharray="6,3"/>'
        )
    parts.append("</svg>\n")  # the final newline inside the join: one copy of the text, not two
    return "\n".join(parts)
