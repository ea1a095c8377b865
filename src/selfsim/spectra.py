"""Symmetric eigensolver plumbing and spectral set comparisons.

All operators in scope are real symmetric, so spectra are eigenvalue
multisets.  Every input (an OperatorMatrix through its csr(), a dense array or
a scipy sparse matrix) is checked for symmetry in CSR form, reordered by
reverse Cuthill-McKee and solved as a band matrix by LAPACK ?sbevd.  Level
Schreier graphs and orbital balls are paths, so their operators come out
tridiagonal.  The solver contract adds two guarantees on top of LAPACK:

* determinism: identical input bytes give identical output bytes;
* exact scale equivariance under powers of two: the band is divided by a
  power-of-two prescale factor before the LAPACK call (an exact float
  operation), so eigvals(4 M) == 4 * eigvals(M) bitwise whenever the entries
  of 4 M are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric, RadiusTooSmall
from .hecke import OperatorMatrix
from .renorm import IntervalUnion

_VECTOR_MAX_DIM = 2048  # above this residuals use the a priori backward bound

_ASYM_REL_TOL = 1e-12


def _band(M):
    """Symmetry-checked CSR of M in reverse Cuthill-McKee order, and its lower band for eig_banded."""
    from scipy import sparse
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    S = M.csr() if isinstance(M, OperatorMatrix) else sparse.csr_matrix(M, dtype=float)
    if S.shape[0] != S.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {S.shape}")
    S.sum_duplicates()
    scale = 1.0 + float(np.abs(S.data).max(initial=0.0))
    asym = float(np.abs((S - S.T).data).max(initial=0.0))
    if asym > _ASYM_REL_TOL * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {_ASYM_REL_TOL:.0e} * {scale:.3e}")
    perm = reverse_cuthill_mckee(S, symmetric_mode=True)
    P = S[perm][:, perm]
    lower = sparse.tril(P, format="coo")
    offset = lower.row - lower.col
    band = np.zeros((int(offset.max(initial=0)) + 1, S.shape[0]))
    band[offset, lower.col] = lower.data
    return P, band


def _prescale(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Divide by the power of two bracketing the largest entry (exact).

    The scaled array has max entry in [1/2, 1); arrays that differ by an
    exact power-of-two factor scale to bit-identical arrays, which is what
    makes the solver exactly equivariant under such factors.
    """
    top = float(np.abs(M).max(initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return M, 1.0
    _, e = math.frexp(top)
    p = math.ldexp(1.0, e)
    return M / p, p


def _solve_band(band: np.ndarray, vectors: bool):
    """Eigenvalues (ascending) and, if asked, eigenvectors of a lower band."""
    from scipy.linalg import eig_banded

    scaled, p = _prescale(band)
    if not vectors:
        return p * eig_banded(scaled, lower=True, eigvals_only=True), None
    w, V = eig_banded(scaled, lower=True)
    return p * w, V


def sym_eigvals(M) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, deterministic."""
    return _solve_band(_band(M)[1], vectors=False)[0]


@dataclass(frozen=True)
class EigReport:
    eigenvalues: tuple[float, ...]
    residual_bound: float
    bandwidth: int

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def solver(self) -> dict:
        return {"ordering": "reverse_cuthill_mckee", "lapack_driver": "sbevd", "bandwidth": self.bandwidth}

    def to_csv(self) -> str:
        lines = [f"# dim={self.dim} residual_bound={self.residual_bound!r}", "value"]
        lines.extend(repr(v) for v in self.eigenvalues)
        return "\n".join(lines) + "\n"


def sym_eigs(M) -> EigReport:
    """Eigenvalue report with a residual bound on max ||Mv - lambda v|| / ||M||.

    Up to the vector cutoff the bound is measured from computed eigenpairs
    against the reordered sparse matrix; beyond it, forming the full
    eigenvector matrix is not worth the memory and time, and the report falls
    back on the backward-stability bound dim * eps of the underlying solver.
    """
    P, band = _band(M)
    dim = band.shape[1]
    values, V = _solve_band(band, vectors=dim <= _VECTOR_MAX_DIM)
    norm = float(np.abs(values).max(initial=0.0))
    if V is None:
        residual = dim * float(np.finfo(float).eps)
    elif norm == 0.0:
        residual = 0.0
    else:
        gap = P @ V - V * values
        residual = float(np.sqrt((gap * gap).sum(axis=0)).max()) / norm
    return EigReport(tuple(float(v) for v in values), residual, band.shape[0] - 1)


def hausdorff_to_set(points, target: IntervalUnion) -> tuple[float, float]:
    """Directed distances between a finite point set and an interval union.

    Forward: how far points stray from the target.  Backward: how much of the
    target the points fail to cover; the supremum over the continuum is exact
    because the distance-to-points function is piecewise linear with local
    maxima only at interval endpoints and midpoints of consecutive points.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    if not pts.size:
        raise ValueError("need at least one point")
    if target.is_empty():
        raise ValueError("target union is empty")
    gaps = [np.where((lo <= pts) & (pts <= hi), 0.0, np.minimum(abs(pts - lo), abs(pts - hi))) for lo, hi in target]
    forward = float(np.min(gaps, axis=0).max())

    backward = 0.0
    mids = (pts[:-1] + pts[1:]) / 2.0
    for lo, hi in target:
        candidates = np.concatenate([[lo, hi], mids[(lo < mids) & (mids < hi)]])
        i = np.searchsorted(pts, candidates)
        right = np.where(i < pts.size, pts[np.minimum(i, pts.size - 1)] - candidates, math.inf)
        left = np.where(i > 0, candidates - pts[np.maximum(i - 1, 0)], math.inf)
        backward = max(backward, float(np.minimum(left, right).max()))
    return forward, backward


@dataclass(frozen=True)
class ShiftReport:
    """Agreement record for the resolvent-free spectral membership identity.

    For symmetric M the shifted operator S = I - (M - alpha I)^2 / R^2 has
    eigenvalues 1 - (lambda - alpha)^2 / R^2, so membership of alpha in the
    spectrum maps to membership of 1 in sigma(S).  The shifted test uses the
    threshold tol / R^2 on |mu - 1|, i.e. it accepts |lambda - alpha| up to
    sqrt(tol); probes should stay clear of the band (tol, sqrt(tol)) where
    the two tolerances disagree by construction.
    """

    alpha: float
    radius: float
    tol_direct: float
    tol_shifted: float
    gap_direct: float
    gap_shifted: float

    @property
    def direct_member(self) -> bool:
        return self.gap_direct <= self.tol_direct

    @property
    def shifted_member(self) -> bool:
        return self.gap_shifted <= self.tol_shifted

    @property
    def agree(self) -> bool:
        return self.direct_member == self.shifted_member


def spectral_shift_check(M, alpha: float, R: float, tol: float) -> ShiftReport:
    """Test alpha in sigma(M) directly and through the shifted operator."""
    A = np.asarray(M, dtype=float)
    values = sym_eigvals(A)
    norm = float(np.abs(values).max(initial=0.0))
    if R < 2.0 * norm:
        raise RadiusTooSmall(f"need R >= 2 ||M|| = {2.0 * norm}, got {R}")
    if R <= 0.0:
        raise RadiusTooSmall("need a positive radius")
    gap_direct = float(np.abs(values - alpha).min())
    K = A - alpha * np.eye(A.shape[0])
    S = np.eye(A.shape[0]) - (K @ K) / (R * R)
    mu = sym_eigvals(S)
    gap_shifted = float(np.abs(mu - 1.0).min())
    return ShiftReport(alpha, R, tol, tol / (R * R), gap_direct, gap_shifted)


@dataclass(frozen=True)
class Histogram:
    counts: tuple[int, ...]
    lo: float
    hi: float
    underflow: int
    overflow: int

    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow


def eig_histogram(points, bins: int, bounds: tuple[float, float]) -> Histogram:
    """Fixed-range histogram; out-of-range values land in overflow buckets."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if bins < 1:
        raise ValueError("need at least one bin")
    if not lo < hi:
        raise ValueError("need lo < hi")
    pts = np.asarray(list(points), dtype=float)
    inside = pts[(pts >= lo) & (pts <= hi)]
    counts, _ = np.histogram(inside, bins=bins, range=(lo, hi))
    return Histogram(
        tuple(int(c) for c in counts),
        lo,
        hi,
        int((pts < lo).sum()),
        int((pts > hi).sum()),
    )
