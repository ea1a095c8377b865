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
from itertools import compress

import numpy as np

_POLE_MARGIN = 0.4  # halfwidth of the excluded alpha zones when sampling curves


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


def curve_points(n: int, j: int, count: int) -> np.ndarray:
    """Sample points on gamma_{n,j}, avoiding the poles of the renormalization.

    Solves beta = +-sqrt(alpha^2 - 4 alpha cos + 4) over an alpha grid in
    [-5, 5]; alphas within the pole margin of beta^2 = 4 (alpha near 0 or
    4 cos) are skipped so images under F stay finite and accurate.
    Returns an array of (alpha, beta) rows.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    cos = math.cos(2.0 * math.pi * j / (1 << n))
    half = (count + 1) // 2
    alphas = np.linspace(-5.0, 5.0, max(half, 2) * 4)
    keep = (np.abs(alphas) >= _POLE_MARGIN) & (np.abs(alphas - 4.0 * cos) >= _POLE_MARGIN)
    alphas = alphas[keep][:half]
    betas = np.sqrt(alphas * alphas - 4.0 * alphas * cos + 4.0)
    pts = np.concatenate(
        [np.stack([alphas, betas], axis=1), np.stack([alphas, -betas], axis=1)]
    )
    return pts[:count]


@dataclass(frozen=True)
class CurveCheck:
    max_residual: float
    samples: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol


def curve_invariance_check(n: int, j: int, samples: int, tol: float) -> CurveCheck:
    """Verify that sampled points of gamma_{n,j} land on gamma_{n-1,j} under F."""
    if n < 1:
        raise ValueError("need n >= 1 to step down one level")
    pts = curve_points(n, j, samples)
    a1, b1 = renorm_map((pts[:, 0], pts[:, 1]))
    cos_prev = math.cos(2.0 * math.pi * j / (1 << (n - 1)))
    residual = 4.0 - b1 * b1 + a1 * a1 - 4.0 * a1 * cos_prev
    return CurveCheck(float(np.abs(residual).max()), len(pts), tol)


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


def slice_spectrum_samples(t: float, n: int, dedup_tol: float = 1e-12) -> list[float]:
    """Level-n eigenvalue samples on the alpha = t slice: 1 +- sqrt per curve.

    The radicand t^2 - 4 t cos + 4 equals (t - 2 cos)^2 + 4 sin^2 and is never
    negative.  Values are sorted and deduplicated within dedup_tol, collapsing
    the exact cosine collisions between j and 2^n - j.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    j = np.arange(1 << n)
    root = np.sqrt(t * t - 4.0 * t * np.cos(2.0 * np.pi * j / (1 << n)) + 4.0)
    values = np.sort(np.concatenate([1.0 - root, 1.0 + root]))
    kept: list[float] = []
    for v in values:
        if not kept or v - kept[-1] > dedup_tol:
            kept.append(float(v))
    return kept


def omega_svg(curve_levels: int = 0, slice_alphas=(), size: int = 800) -> str:
    """Static plot of Omega in [-6, 6]^2 with optional curves and slice lines.

    Fixed viewport, axis-aligned, deterministic output; curve overlays show
    gamma_{n,j} for n <= curve_levels and slice lines are vertical alpha = t.
    Each distinct curve is drawn once: gamma_{n,j} is gamma_{L,j 2^(L-n)} for
    L = curve_levels, and gamma_{L,j} is gamma_{L,2^L-j} (same cosine), so
    level L at j = 0 and j = 2^(L-1) .. 2^L-1 covers every curve, each in the
    colour and stacking order of its last copy in the all-(n, j) drawing.

    Every coordinate is written with two decimals, and the text is byte for
    byte what formatting each point on its own gives: a curve's coordinates
    are computed as whole arrays by the same floating-point operations, in
    the same order, as the scalar mapping of one point.
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
    alphas = np.linspace(-6.0, 6.0, 481)
    xs = [f"{v:.2f}," for v in sx(alphas).tolist()]
    for j in sorted({0, *range(top // 2, top)}):
        cos = math.cos(2.0 * math.pi * j / top)
        betas = np.sqrt(alphas * alphas - 4.0 * alphas * cos + 4.0)
        color = palette[(curve_levels + j) % len(palette)]
        for sign in (1.0, -1.0):
            b = sign * betas
            keep = (np.abs(b) <= 6.0).tolist()
            ys = compress(sy(b).tolist(), keep)
            coords = " ".join([x + f"{y:.2f}" for x, y in zip(compress(xs, keep), ys)])
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
