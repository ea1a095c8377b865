"""Symmetric eigensolver plumbing and spectral set comparisons.

All operators in scope are real symmetric, so spectra are eigenvalue
multisets.  Every input (an OperatorMatrix through its csr(), a dense array or
a scipy sparse matrix) is checked for symmetry in CSR form, reordered by
reverse Cuthill-McKee (on the off-diagonal pattern) and solved as a band
matrix.  Level Schreier graphs and orbital balls are paths, so their operators
come out tridiagonal.  At bandwidth above 1 LAPACK ?sbevd solves the band.
Eigenpairs of a band of width at most 1 come from LAPACK ?stemr, and its
eigenvalues alone from LAPACK ?sterf after a persymmetric split
(Cantoni-Butler 1976): while the dimension 2m is even and
the diagonal d and off-diagonal e equal their own reversals exactly (no
tolerance), the matrix is orthogonally similar to the direct sum of two m x m
tridiagonals with diagonal d[:m], last entry d[m-1] -/+ e[m-1], and
off-diagonal e[:m-1], and the split goes on with the + block.  In path order
every level operator is persymmetric, and for delta and sum the + block is the
level-(n-1) operator again, so a level-n spectrum halves n times.  Each
halving rounds one entry once, so the backward-stability bound dim * eps
still holds.  A block left by the halvings whose diagonal is one value c
exactly (the orbital balls that miss 1^inf, where delta is 1/4 plus a
zero-diagonal Jacobi matrix) is bipartite about c: its eigenvalues are
c -/+ the singular values of a half-size bidiagonal, which LAPACK ?lasq1
(dqds, Fernando-Parlett 1994) computes to high relative accuracy, so that
bound holds there too.  ?sterf and ?lasq1 are called through the ctypes
pointers of scipy's Cython LAPACK capsules, which release the GIL, so the
blocks of a split run on at most two threads: the main thread solves the
first (largest) block and one helper thread the rest, or one thread solves
them all where one CPU is usable or OMP_NUM_THREADS is 1.  Graded input
(entries near 1e-160 beside entries near 1/4) can cost ?sterf its accuracy
and stop ?stemr short of convergence, so every entry of the prescaled band
below eps / (2 dim) is set to 0 before any LAPACK call: its top entry is at
least 1/2 and a row holds fewer than 2 dim entries, so this moves the matrix
by less than 2 eps ||M||, inside the dim * eps bound.  The solver contract adds two guarantees on top of LAPACK:

* determinism: identical input bytes give identical output bytes, on one
  thread or two;
* exact scale equivariance under powers of two: the band is divided by a
  power-of-two prescale factor before the flush and the LAPACK call (an exact
  float operation, which commutes with the sums and differences of the split), so
  eigvals(4 M) == 4 * eigvals(M) bitwise whenever the entries of 4 M are
  representable.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .hecke import OperatorMatrix
from .renorm import IntervalUnion

_VECTOR_MAX_DIM = 2048  # above this residuals use the a priori backward bound
_RESIDUAL_COLUMNS = 128  # eigenvectors per block of the residual product

_ASYM_REL_TOL = 1e-12


def _band(M):
    """Symmetry-checked CSR of M in reverse Cuthill-McKee order, and its lower band for eig_banded."""
    from scipy import sparse
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    S = M.csr() if isinstance(M, OperatorMatrix) else sparse.csr_matrix(M, dtype=float)
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    S.sum_duplicates()
    scale = 1.0 + float(np.abs(S.data).max(initial=0.0))
    asym = float(np.abs((S - S.T).data).max(initial=0.0))
    if asym > _ASYM_REL_TOL * scale:
        raise ValueError(f"asymmetry {asym:.3e} exceeds {_ASYM_REL_TOL:.0e} * {scale:.3e}")
    # ordered on the off-diagonal pattern: counted in a node's degree, diagonal entries can make a path's
    # least-degree node an inner one, and an ordering started there widens the band
    coo = S.tocoo()
    off = coo.row != coo.col
    graph = sparse.csr_matrix((np.ones(np.count_nonzero(off)), (coo.row[off], coo.col[off])), shape=S.shape)
    perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
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


# the C signature of each LAPACK routine taken from scipy's Cython capsules, and the least size of each of its
# double array arguments at dimension n
_CAPSULE_ROUTINES = {
    "dsterf": ("void (int *, d *, d *, int *)", lambda n: (n, n - 1)),
    "dlasq1": ("void (int *, d *, d *, d *, int *)", lambda n: (n, n, 4 * n)),
}


@functools.cache
def _lapack(name: str):
    """LAPACK routine name from scipy's Cython LAPACK capsules (loaded once, on first use), as routine(*arrays).

    The arrays are the routine's double arguments in order, and its n is the
    size of the first; a nonzero info raises.  ctypes releases the GIL for the
    call, which scipy's own wrappers hold, so two threads can run two calls at once.
    """
    import ctypes

    from scipy.linalg import cython_lapack

    expected, sizes = _CAPSULE_ROUTINES[name]
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = ctypes.pythonapi.PyCapsule_GetName
    capsule_name.argtypes, capsule_name.restype = [ctypes.py_object], ctypes.c_char_p
    capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    capsule_pointer.argtypes, capsule_pointer.restype = [ctypes.py_object, ctypes.c_char_p], ctypes.c_void_p
    capsule_label = capsule_name(capsule)
    # the capsule name is the C signature, with Cython's mangled name for the typedef d of double
    signature = re.sub(r"__pyx_t_\w*?cython_lapack_", "", capsule_label.decode())
    if signature != expected:
        raise RuntimeError(f"{name} has signature {signature!r}, expected {expected!r}")
    int_p = ctypes.POINTER(ctypes.c_int)
    routine = ctypes.CFUNCTYPE(None, int_p, *[ctypes.c_void_p] * len(sizes(0)), int_p)(
        capsule_pointer(capsule, capsule_label)
    )

    def call(*arrays: np.ndarray) -> None:
        n = arrays[0].size
        least = sizes(n)
        fits = len(arrays) == len(least) and all(
            a.dtype == np.float64 and a.flags.c_contiguous and a.size >= k for a, k in zip(arrays, least)
        )
        if not fits:
            raise ValueError(f"{name} needs {len(least)} contiguous float64 arrays of sizes at least {least}")
        info = ctypes.c_int(0)
        routine(ctypes.byref(ctypes.c_int(n)), *(a.ctypes.data for a in arrays), ctypes.byref(info))
        if info.value != 0:
            raise RuntimeError(f"{name} failed with info={info.value}")

    return call


def _sterf_eigvals(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the tridiagonal with diagonal d and off-diagonal e, by LAPACK dsterf.

    The routine and bytes of eigvalsh_tridiagonal(d, e, lapack_driver="sterf"),
    without holding the GIL.  It works on copies, as dsterf overwrites both arrays.
    """
    w = np.array(d, dtype=np.float64)
    _lapack("dsterf")(w, np.array(e, dtype=np.float64))
    return w


def _bipartite_eigvals(c: float, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of the tridiagonal with constant diagonal c and off-diagonal e, as c -/+ singular values.

    With c taken off, the matrix maps even to odd positions and back, so its
    eigenvalues are +/- the singular values of the block between them: the
    upper bidiagonal with diagonal e[0::2] and superdiagonal e[1::2], which
    LAPACK dlasq1 computes by dqds.  At odd dimension that block has one
    column less; an exact 0 pads its diagonal, which adds the singular value
    0 (returned as exactly 0.0 by dqds) and so the eigenvalue c, counted once.
    """
    odd = (e.size + 1) % 2
    sigma = np.concatenate([e[0::2], np.zeros(odd)])  # overwritten with the singular values, descending
    n = sigma.size
    sup = np.zeros(n)  # dlasq1 reads n - 1 entries and uses all n as workspace
    sup[: n - 1] = e[1::2]
    _lapack("dlasq1")(sigma, sup, np.empty(4 * n))
    if odd and sigma[-1] != 0.0:
        raise RuntimeError(f"dlasq1 returned {sigma[-1]!r} for the exact zero singular value")
    return np.concatenate([c + sigma, c - sigma[: n - odd]])


def _solve_blocks(blocks: list) -> list[tuple[np.ndarray, str]]:
    """Eigenvalues and LAPACK driver of each block (diagonal, off-diagonal), in order.

    A block goes to ?lasq1 if it has a constant diagonal and size at least 2,
    and to ?sterf otherwise.
    """
    return [
        (_bipartite_eigvals(diag[0], off), "lasq1") if diag.size >= 2 and np.all(diag == diag[0])
        else (_sterf_eigvals(diag, off), "sterf")
        for diag, off in blocks
    ]


def _two_threads() -> bool:
    """Whether the blocks of a split may use a helper thread: two usable CPUs, and OMP_NUM_THREADS is not 1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus > 1 and os.environ.get("OMP_NUM_THREADS", "").strip() != "1"


def _split_solve(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, str, int]:
    """Eigenvalues (ascending) of a tridiagonal after persymmetric halvings, the LAPACK drivers and the halvings.

    The blocks are independent, and their LAPACK calls release the GIL.  With
    two threads (see _two_threads) the main thread solves the first block,
    the largest, while one helper thread solves the others in order: sizes
    halve and ?sterf costs O(n^2), so the first costs about three times the
    rest together and more threads could not help.  Each block gets the same
    routine on the same bytes either way, and the parts are joined in block order.
    """
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    blocks = []
    while d.size % 2 == 0 and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1]):
        m = d.size // 2
        c = e[m - 1]
        d, e = d[:m].copy(), e[: m - 1]
        anti = d.copy()
        anti[-1] -= c
        blocks.append((anti, e))
        d[-1] += c
    blocks.append((d, e))
    if len(blocks) > 1 and _two_threads():
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as helper:
            rest = helper.submit(_solve_blocks, blocks[1:])
            parts = _solve_blocks(blocks[:1]) + rest.result()
    else:
        parts = _solve_blocks(blocks)
    drivers = {driver for _, driver in parts}
    driver = "+".join(name for name in ("sterf", "lasq1") if name in drivers)
    return np.sort(np.concatenate([values for values, _ in parts])), driver, len(blocks) - 1


def _solve_band(band: np.ndarray, vectors: bool):
    """Eigenvalues (ascending), eigenvectors if asked, the LAPACK driver and the halvings of a lower band."""
    from scipy.linalg import eig_banded, eigh_tridiagonal

    scaled, p = _prescale(band)
    scaled[np.abs(scaled) < np.finfo(float).eps / (2 * band.shape[1])] = 0.0
    if scaled.shape[0] > 2:
        if vectors:
            w, V = eig_banded(scaled, lower=True)
            return p * w, V, "sbevd", 0
        return p * eig_banded(scaled, lower=True, eigvals_only=True), None, "sbevd", 0
    d = scaled[0]
    e = scaled[1, :-1] if scaled.shape[0] == 2 else np.zeros_like(d[1:])
    if vectors:
        w, V = eigh_tridiagonal(d, e, lapack_driver="stemr")
        return p * w, V, "stemr", 0
    w, driver, halvings = _split_solve(d, e)
    return p * w, None, driver, halvings


def sym_eigvals(M) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, deterministic."""
    return _solve_band(_band(M)[1], vectors=False)[0]


@dataclass(frozen=True, eq=False)  # arrays have no truth value, so reports compare by identity
class EigReport:
    eigenvalues: np.ndarray  # float64, ascending
    residual_bound: float
    bandwidth: int
    lapack_driver: str
    halvings: int

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def solver(self) -> dict:
        return {
            "ordering": "reverse_cuthill_mckee",
            "lapack_driver": self.lapack_driver,
            "bandwidth": self.bandwidth,
            "halvings": self.halvings,
        }

    def to_csv(self) -> str:
        lines = [f"# dim={self.dim} residual_bound={self.residual_bound!r}", "value"]
        lines.extend(repr(v) for v in self.eigenvalues.tolist())
        return "\n".join([*lines, ""])


def sym_eigs(M) -> EigReport:
    """Eigenvalue report with a residual bound on max ||Mv - lambda v|| / ||M||.

    Up to the vector cutoff the bound is measured from computed eigenpairs
    against the reordered sparse matrix; beyond it, forming the full
    eigenvector matrix is not worth the memory and time, and the report falls
    back on the backward-stability bound dim * eps of the underlying solver.
    """
    P, band = _band(M)
    dim = band.shape[1]
    values, V, driver, halvings = _solve_band(band, vectors=dim <= _VECTOR_MAX_DIM)
    norm = float(np.abs(values).max(initial=0.0))
    if V is None:
        residual = dim * float(np.finfo(float).eps)
    elif norm == 0.0:
        residual = 0.0
    else:
        worst = 0.0
        for j in range(0, dim, _RESIDUAL_COLUMNS):
            block = V[:, j : j + _RESIDUAL_COLUMNS]
            gap = P @ block - block * values[j : j + _RESIDUAL_COLUMNS]
            worst = max(worst, float(np.sqrt((gap * gap).sum(axis=0)).max()))
        residual = worst / norm
    return EigReport(values, residual, band.shape[0] - 1, driver, halvings)


def hausdorff_to_set(points, target: IntervalUnion) -> tuple[float, float]:
    """Directed distances between a finite point set and an interval union.

    Forward: how far points stray from the target.  The sorted points
    outside it fall into the gaps between its intervals, one slice each, and
    a point's distance is that to the ends of its gap: rounding is monotone,
    so no farther end gives a smaller float.  Backward: how much of the
    target the points fail to cover; the supremum over the continuum is exact
    because the distance-to-points function is piecewise linear with local
    maxima only at interval endpoints and midpoints of consecutive points.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    if not pts.size:
        raise ValueError("need at least one point")
    if target.is_empty():
        raise ValueError("target union is empty")
    los, his = (np.array(ends) for ends in zip(*target))
    # gap j lies between interval j - 1 and interval j, with no interval past either end
    starts = np.concatenate([[0], np.searchsorted(pts, his, side="right")])
    stops = np.concatenate([np.searchsorted(pts, los, side="left"), [pts.size]])
    reach = [0.0]
    for j, (start, stop) in enumerate(zip(starts.tolist(), stops.tolist())):
        if start < stop:
            gap = pts[start:stop]
            left = gap - his[j - 1] if j else math.inf
            right = los[j] - gap if j < los.size else math.inf
            reach.append(np.minimum(left, right).max())
    forward = float(np.max(reach))  # not max(): a NaN point sorts last and must come out as NaN

    backward = 0.0
    mids = (pts[:-1] + pts[1:]) / 2.0
    for lo, hi in target:
        candidates = np.concatenate([[lo, hi], mids[(lo < mids) & (mids < hi)]])
        i = np.searchsorted(pts, candidates)
        right = np.where(i < pts.size, pts[np.minimum(i, pts.size - 1)] - candidates, math.inf)
        left = np.where(i > 0, candidates - pts[np.maximum(i - 1, 0)], math.inf)
        backward = max(backward, float(np.minimum(left, right).max()))
    return forward, backward


def spectral_shift_check(M, alphas, R: float, tol: float) -> tuple[list[bool], list[bool]]:
    """Whether each probe alpha is in sigma(M), tested directly and through the shifted operator.

    For symmetric M the shifted operator S = I - (M - alpha I)^2 / R^2 has
    eigenvalues 1 - (lambda - alpha)^2 / R^2, so membership of alpha in the
    spectrum maps to membership of 1 in sigma(S).  The direct test accepts
    |lambda - alpha| <= tol; the shifted test uses the threshold tol / R^2 on
    |mu - 1|, i.e. it accepts |lambda - alpha| up to sqrt(tol).  Probes should
    stay clear of the band (tol, sqrt(tol)) where the two tests disagree by
    construction.  M is solved once and each S once per probe; the verdicts
    come back as two lists, (direct, shifted), in probe order.
    """
    A = np.asarray(M, dtype=float)
    values = sym_eigvals(A)
    norm = float(np.abs(values).max(initial=0.0))
    if R < 2.0 * norm:
        raise ValueError(f"need R >= 2 ||M|| = {2.0 * norm}, got {R}")
    if R <= 0.0:
        raise ValueError("need a positive radius")
    eye, direct, shifted = np.eye(A.shape[0]), [], []
    for alpha in alphas:
        K = A - alpha * eye
        direct.append(bool(np.abs(values - alpha).min() <= tol))
        shifted.append(bool(np.abs(sym_eigvals(eye - (K @ K) / (R * R)) - 1.0).min() <= tol / (R * R)))
    return direct, shifted
