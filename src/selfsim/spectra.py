"""Symmetric eigensolver plumbing and spectral set comparisons.

All operators in scope are real symmetric, so spectra are eigenvalue multisets.
sym_eigs takes only an OperatorMatrix (hecke), an assembled operator as band
storage along its line.  Its symmetry is checked on the band itself, diagonal k
against diagonal -k, and its lower half goes to LAPACK.  Level Schreier graphs
and orbital balls are stretches of the orbit line, so along it an operator is a
band as wide as its longest word.  A band wider than 1 is first reduced to a
tridiagonal by LAPACK ?sbtrd without Q (backward stable), as ?sbevd does when
no vectors are asked for; no route computes an eigenvector.  Every tridiagonal
goes to LAPACK ?sterf after a persymmetric split (Cantoni-Butler 1976): while
the dimension 2m is even and the diagonal d and off-diagonal e equal their own
reversals exactly (no tolerance), the matrix is orthogonally similar to the
direct sum of two m x m tridiagonals with diagonal d[:m], last entry d[m-1] -/+
e[m-1], and off-diagonal e[:m-1], and the split goes on with the + block.  In
line order the flip of the last tree coordinate is reversal, so every level
operator is persymmetric, and for delta and sum the + block is the level-(n-1)
operator again, so a level-n spectrum halves n times.  Each halving rounds one
entry once, so the backward-stability bound dim * eps still holds.  A block
left by the halvings whose diagonal is one value c exactly (the orbital balls
that miss 1^inf, where delta is 1/4 plus a zero-diagonal Jacobi matrix) is
bipartite about c: its eigenvalues are c -/+ the singular values of a half-size
bidiagonal, which LAPACK ?lasq1 (dqds, Fernando-Parlett 1994) computes to high
relative accuracy, so that bound holds there too.  ?sterf and ?lasq1 are called
through the ctypes pointers of scipy's Cython LAPACK capsules, which release
the GIL, so the blocks of a split run on at most two threads: the main thread
solves the first (largest) block and one helper thread the rest, or one thread
solves them all where one CPU is usable or OMP_NUM_THREADS is 1.  Graded input
(entries near 1e-160 beside entries near 1/4) can cost ?sterf its accuracy, so
every entry of the prescaled band below eps / (2 dim) is set to 0 before any
LAPACK call: its top entry is at least 1/2 and a row holds fewer than 2 dim
entries, so this moves the matrix by less than 2 eps ||M||, inside the
dim * eps bound.  sym_eigs checks every spectrum against two moments of the band,
its trace and squared Frobenius norm, and up to dimension 2048 by Sturm counts of
the tridiagonal before the split, exact for a matrix a few ulps away (Kahan 1966).
The solver contract adds two guarantees on top of LAPACK:

* determinism: identical input bytes give identical output bytes, on one
  thread or two;
* exact scale equivariance under powers of two: the band is divided by a
  power-of-two prescale factor before the flush and the LAPACK call (an exact
  float operation, which commutes with the sums and differences of the split), so
  eigvals(4 M) == 4 * eigvals(M) bitwise whenever the entries of 4 M are
  representable.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .hecke import OperatorMatrix
from .renorm import IntervalUnion

_COUNT_MAX_DIM = 2048  # above this, sym_eigs runs no count check
_HAUSDORFF_BLOCK = 1 << 15  # consecutive point pairs whose midpoints hausdorff_to_set measures at once

_ASYM_REL_TOL = 1e-12


def _band(M: OperatorMatrix) -> np.ndarray:
    """The lower half of M's band storage for LAPACK, cut to its outermost nonzero diagonal.

    M is checked for symmetry first: diagonal k against diagonal -k.
    """
    entries = M.entries
    w = entries.shape[0] // 2
    scale = 1.0 + max(float(entries.max()), -float(entries.min()))  # the largest |entry|, with no temporary
    # np.max, so that a NaN difference comes out as NaN and is left to the non-finite check
    asym = float(np.max([np.abs(entries[w + k, : M.dim - k] - entries[w - k, k:]).max() for k in range(1, w + 1)],
                        initial=0.0))
    if asym > _ASYM_REL_TOL * scale:
        raise ValueError(f"asymmetry {asym:.3e} exceeds {_ASYM_REL_TOL:.0e} * {scale:.3e}")
    lower = entries[w:]
    return lower[: int(np.flatnonzero(lower.any(axis=1)).max(initial=0)) + 1]


def _prescale(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Divide by the power of two bracketing the largest entry (exact).

    The scaled array has max entry in [1/2, 1); arrays that differ by an
    exact power-of-two factor scale to bit-identical arrays, which is what
    makes the solver exactly equivariant under such factors.
    """
    top = float(np.abs(M).max(initial=0.0))
    p = math.ldexp(1.0, math.frexp(top)[1]) if top != 0.0 and math.isfinite(top) else 1.0
    return M / p, p  # a new array even where p is 1, as the flush writes into it


# the C signature of each LAPACK routine taken from scipy's Cython capsules, and the least size of each of its
# double array arguments, given its int arguments
_CAPSULE_ROUTINES = {
    "dsterf": ("void (int *, d *, d *, int *)", lambda n: (n, n - 1)),
    "dlasq1": ("void (int *, d *, d *, d *, int *)", lambda n: (n, n, 4 * n)),
    "dsbtrd": ("void (char *, char *, int *, int *, d *, int *, d *, d *, d *, int *, d *, int *)",
               lambda n, kd, ldab, ldq: (ldab * n, n, n - 1, ldq, n)),
}


@functools.cache
def _routine(name: str):
    """LAPACK routine name from scipy's Cython LAPACK capsules as a ctypes function (loaded once, on first use).

    ctypes releases the GIL for the call, which scipy's own wrappers hold, so
    two threads can run two calls at once.
    """
    from scipy.linalg import cython_lapack

    expected = _CAPSULE_ROUTINES[name][0]
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
    types = {"char *": ctypes.c_char_p, "int *": ctypes.POINTER(ctypes.c_int), "d *": ctypes.c_void_p}
    arguments = signature.removeprefix("void (").removesuffix(")").split(", ")
    return ctypes.CFUNCTYPE(None, *(types[a] for a in arguments))(capsule_pointer(capsule, capsule_label))


def _lapack(name: str, *args) -> None:
    """LAPACK routine name on args, its arguments before info; arrays it would read past the end of are refused.

    ints go by reference and arrays by address, and a nonzero info raises.
    """
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    least = _CAPSULE_ROUTINES[name][1](*(a for a in args if isinstance(a, int)))
    fits = len(arrays) == len(least) and all(a.dtype == np.float64 and a.flags.c_contiguous and a.size >= k
                                             for a, k in zip(arrays, least))
    if not fits:
        raise ValueError(f"{name} needs {len(least)} contiguous float64 arrays of sizes at least {least}")
    info = ctypes.c_int(0)
    _routine(name)(*(ctypes.byref(ctypes.c_int(a)) if isinstance(a, int) else a.ctypes.data if isinstance(a, np.ndarray)
                     else a for a in args), ctypes.byref(info))
    if info.value != 0:
        raise RuntimeError(f"{name} failed with info={info.value}")


def _to_tridiagonal(lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a tridiagonal orthogonally similar to the band whose lower half is lower.

    A band of width at most 1 is its own.  A wider one is reduced by LAPACK
    dsbtrd without Q, which ?sbevd runs before ?sterf when no vectors are
    asked for: ?sterf on its output gives the bytes of values-only eig_banded
    on a band whose largest entry is near 1, which ?sbevd leaves unscaled.
    """
    kd, n = lower.shape[0] - 1, lower.shape[1]
    if kd <= 1:
        return lower[0], lower[1, :-1] if kd else np.zeros(n - 1)
    d, e = np.empty(n), np.empty(n)
    # the Fortran array AB(kd + 1, n) is lower.T in C order, and dsbtrd overwrites it
    _lapack("dsbtrd", b"N", b"L", n, kd, np.ascontiguousarray(lower.T), kd + 1, d, e, np.empty(1), 1, np.empty(n))
    return d, e[: n - 1]


def _sterf_eigvals(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the tridiagonal with diagonal d and off-diagonal e, by LAPACK dsterf.

    The routine and bytes of eigvalsh_tridiagonal(d, e, lapack_driver="sterf"),
    without holding the GIL.  It works on copies, as dsterf overwrites both arrays.
    """
    w = np.array(d, dtype=np.float64)
    _lapack("dsterf", w.size, w, np.array(e, dtype=np.float64))
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
    _lapack("dlasq1", n, sigma, sup, np.empty(4 * n))
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


def _sturm_counts(d: np.ndarray, e: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues below each shift of a matrix a few ulps from the tridiagonal (d, e) (Kahan 1966).

    They are the negative pivots of LDL^T, a pivot smaller than pivmin taken as
    -pivmin as in ?stebz.  Each row's step runs on all shifts at once, so no
    array is larger than the shifts.
    """
    e2 = e * e
    pivmin = float(np.finfo(float).tiny) * max(1.0, float(e2.max(initial=0.0)))
    pivot, count = d[0] - shifts, np.zeros(shifts.size, dtype=np.intp)
    for i in range(d.size):
        if i:
            pivot = d[i] - shifts - e2[i - 1] / pivot
        pivot[np.abs(pivot) < pivmin] = -pivmin
        count += pivot < 0
    return count


def _count_check(d: np.ndarray, e: np.ndarray, w: np.ndarray) -> int:
    """Number of shifts at which the Sturm count of the prescaled tridiagonal (d, e) is the number of w below.

    Ascending values w closer than tol = 2 dim eps form a cluster, and the
    shifts are w[0] - tol, the midpoint of each gap between clusters and
    w[-1] + tol.  A mismatch raises.
    """
    tol = 2 * d.size * float(np.finfo(float).eps)
    ends = np.flatnonzero(np.diff(w) >= tol)  # the last index of every cluster but the last
    shifts = np.concatenate([[w[0] - tol], (w[ends] + w[ends + 1]) / 2, [w[-1] + tol]])
    count, below = _sturm_counts(d, e, shifts), np.concatenate([[0], ends + 1, [d.size]])
    if not np.array_equal(count, below):
        k = int(np.flatnonzero(count != below)[0])
        raise RuntimeError(f"Sturm count {count[k]} at shift {float(shifts[k])!r} differs from {below[k]} values below")
    return shifts.size


def _moment_check(scaled: np.ndarray, w: np.ndarray) -> None:
    """Raise unless the values w match the trace and squared Frobenius norm of the band B with lower half scaled.

    Each value is within dim eps ||B|| of its own, so sum(w) is within dim^2 eps ||B||_F of the trace and
    sum(w^2) within 2 dim^2 eps ||B||_F^2 of ||B||_F^2: the diagonal squared plus twice each other one squared.
    """
    frob2 = float(np.square(scaled[0]).sum() + 2.0 * np.square(scaled[1:]).sum())
    tol = w.size * w.size * float(np.finfo(float).eps) * math.sqrt(frob2)
    for name, got, want, bound in (("sum", w.sum(), scaled[0].sum(), tol),
                                   ("sum of squares", np.square(w).sum(), frob2, 2.0 * tol * math.sqrt(frob2))):
        if abs(got - want) > bound:
            raise RuntimeError(f"eigenvalue {name} {float(got)!r} differs from {float(want)!r} by over {bound:.3e}")


@dataclass(frozen=True, eq=False)  # arrays have no truth value, so reports compare by identity
class EigReport:
    eigenvalues: np.ndarray  # float64, ascending
    bandwidth: int
    lapack_driver: str
    halvings: int
    count_shifts: int  # shifts at which _count_check matched, 0 where it did not run

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def residual_bound(self) -> float:
        """The backward-stability bound dim * eps of the solver, relative to ||M||."""
        return self.dim * float(np.finfo(float).eps)

    @property
    def solver(self) -> dict:
        return {
            "ordering": "line",  # every operator is solved along its line
            "lapack_driver": self.lapack_driver,
            "bandwidth": self.bandwidth,
            "halvings": self.halvings,
            "count_shifts": self.count_shifts,
        }

    def to_csv(self) -> str:
        lines = [f"# dim={self.dim} residual_bound={self.residual_bound!r}", "value"]
        lines.extend(repr(v) for v in self.eigenvalues.tolist())
        return "\n".join([*lines, ""])


def sym_eigs(M: OperatorMatrix) -> EigReport:
    """Eigenvalue report of an OperatorMatrix, with the backward-stability bound dim * eps of the solver.

    M is solved along its line, where an assembled operator is a band no
    wider than its longest word; any other input raises TypeError.  A band
    wider than 1 is first reduced to a tridiagonal by ?sbtrd, and every
    tridiagonal goes to the persymmetric split, for eigenvalues only, checked
    by two moments of the band (_moment_check) and up to dimension 2048 by Sturm
    counts of the tridiagonal that was split (_count_check): a miss raises RuntimeError.
    """
    if not isinstance(M, OperatorMatrix):
        raise TypeError(f"sym_eigs takes an OperatorMatrix, got {type(M).__name__}")
    band = _band(M)
    dim = M.dim
    scaled, p = _prescale(band)
    scaled[np.abs(scaled) < np.finfo(float).eps / (2 * dim)] = 0.0
    d, e = _to_tridiagonal(scaled)
    w, driver, halvings = _split_solve(d, e)
    shifts = _count_check(d, e, w) if dim <= _COUNT_MAX_DIM else 0
    _moment_check(scaled, w)
    reduced = "sbtrd+" if scaled.shape[0] > 2 else ""
    return EigReport(p * w, band.shape[0] - 1, reduced + driver, halvings, shifts)


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
    pts = np.asarray(points, dtype=float)
    if not (pts[:-1] <= pts[1:]).all():  # a NaN fails the test too, and np.sort puts it last
        pts = np.sort(pts)  # a sorted copy: the caller's array stays as it is
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
    for lo, hi in target:
        # the midpoint of pts[k] and pts[k + 1] lies between them (or overflows), so one inside (lo, hi) has
        # pts[k + 1] > lo and pts[k] < hi: the pairs from first on and before stop, taken a block at a time
        first = max(int(np.searchsorted(pts, lo, side="right")) - 1, 0)
        stop = min(int(np.searchsorted(pts, hi, side="left")), pts.size - 1)
        reach = [_farthest_from_points(pts, np.array([lo, hi]))]
        for start in range(first, stop, _HAUSDORFF_BLOCK):
            end = min(start + _HAUSDORFF_BLOCK, stop)
            mids = (pts[start:end] + pts[start + 1 : end + 1]) / 2.0
            reach.append(_farthest_from_points(pts, mids[(lo < mids) & (mids < hi)]))
        backward = max(backward, float(np.max(reach)))  # np.max, as a NaN distance must come out as NaN
    return forward, backward


def _farthest_from_points(pts: np.ndarray, candidates: np.ndarray) -> float:
    """Largest distance from a candidate to the nearest of the sorted pts (-inf for no candidates).

    The nearest point is one of the two searchsorted neighbours of the
    candidate, and every candidate is measured by this one formula.
    """
    i = np.searchsorted(pts, candidates)
    right = np.where(i < pts.size, pts[np.minimum(i, pts.size - 1)] - candidates, math.inf)
    left = np.where(i > 0, candidates - pts[np.maximum(i - 1, 0)], math.inf)
    return np.minimum(left, right).max(initial=-math.inf)
