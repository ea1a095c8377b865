"""Output checkers for the benchmark workloads, independent of selfsim.

Each checker reads the artifacts one CLI command wrote into its --out
directory and compares them with a computation made here: closed forms from
the literature, a Jacobi-matrix re-solve, and Hausdorff distances
recomputed with vectorised numpy.  Nothing here imports selfsim, and nothing
compares against a stored copy of an earlier output.  A failed check raises
CheckFailed.
"""

from __future__ import annotations

import json
import math
import os
import xml.parsers.expat
from collections import Counter

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_json(outdir: str, name: str):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _read_values(path: str) -> np.ndarray:
    """One float per line after the header lines (comments and 'value')."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    _require(rows and rows[0] == "value", f"{path}: missing 'value' header")
    return np.array([float(v) for v in rows[1:]])


# --- interval unions and Hausdorff distances --------------------------------


def slice_union(t: float) -> list[tuple[float, float]]:
    """Closed-form spectrum of -t a + b + c + d (Bartholdi-Grigorchuk)."""
    lo, hi = abs(abs(t) - 2.0), abs(t) + 2.0
    return [(1.0 - hi, 1.0 - lo), (1.0 + lo, 1.0 + hi)]


def distance_to_union(points: np.ndarray, union) -> np.ndarray:
    """Distance of every point to a union of closed intervals."""
    best = np.full(points.shape, np.inf)
    for lo, hi in union:
        best = np.minimum(best, np.maximum(np.maximum(lo - points, points - hi), 0.0))
    return best


def hausdorff(points, union) -> tuple[float, float]:
    """(forward, backward) directed distances between points and the union.

    Backward is the largest distance from a point of the union to the point
    set; on each interval it is attained at an endpoint or at a midpoint of
    two consecutive points lying inside the interval.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    _require(pts.size > 0, "empty point set")
    forward = float(distance_to_union(pts, union).max())
    mids = (pts[:-1] + pts[1:]) / 2.0
    backward = 0.0
    for lo, hi in union:
        cand = np.concatenate([[lo, hi], mids[(mids > lo) & (mids < hi)]])
        i = np.searchsorted(pts, cand)
        right = np.where(i < pts.size, pts[np.minimum(i, pts.size - 1)] - cand, np.inf)
        left = np.where(i > 0, cand - pts[np.maximum(i - 1, 0)], np.inf)
        backward = max(backward, float(np.minimum(left, right).max()))
    return forward, backward


def _check_hausdorff(report_fwd, report_bwd, points, union, what: str) -> tuple[float, float]:
    forward, backward = hausdorff(points, union)
    _require(
        abs(report_fwd - forward) <= 1e-12 and abs(report_bwd - backward) <= 1e-12,
        f"{what}: reported Hausdorff ({report_fwd!r}, {report_bwd!r}) != recomputed ({forward!r}, {backward!r})",
    )
    return forward, backward


# --- level-spectrum ---------------------------------------------------------


def generator_sum_spectrum(level: int) -> np.ndarray:
    """Level spectrum of a + b + c + d in closed form, ascending.

    {2, 4} together with 1 +- sqrt(5 - 4 cos(2 pi j / 2^k)) for 2 <= k <= level
    and odd j < 2^(k-1): 2^level simple eigenvalues.
    """
    roots = [
        np.sqrt(5.0 - 4.0 * np.cos(2.0 * np.pi * np.arange(1, 1 << (k - 1), 2) / (1 << k)))
        for k in range(2, level + 1)
    ]
    r = np.concatenate([np.zeros(0)] + roots)
    return np.sort(np.concatenate([[2.0, 4.0], 1.0 - r, 1.0 + r]))


SPECTRUM_TARGETS = {"delta": [(-0.5, 0.0), (0.5, 1.0)], "sum": [(-2.0, 0.0), (2.0, 4.0)]}


def check_spectrum(outdir: str, element: str, level: int, tol: float, backward_max: float) -> np.ndarray:
    """eigenvalues.csv and report.json of `spectrum --element delta|sum`."""
    values = _read_values(os.path.join(outdir, "eigenvalues.csv"))
    _require(values.size == 1 << level, f"{element}: {values.size} eigenvalues, expected {1 << level}")
    scale = 1.0 if element == "sum" else 0.25
    gap = float(np.abs(values - scale * generator_sum_spectrum(level)).max())
    _require(gap <= 1e-12, f"{element}: eigenvalues differ from the closed form by {gap:.3e}")
    report = _read_json(outdir, "report.json")
    union = SPECTRUM_TARGETS[element]
    forward, backward = _check_hausdorff(
        report["hausdorff_forward"], report["hausdorff_backward"], values, union, element
    )
    _require(forward <= tol, f"{element}: forward Hausdorff {forward:.3e} > {tol:.0e}")
    _require(backward <= backward_max, f"{element}: backward Hausdorff {backward:.3e} > {backward_max}")
    return values


def check_sum_is_four_delta(delta_dir: str, sum_dir: str) -> None:
    """Claim C02: the sum spectrum is exactly four times the delta spectrum."""
    delta = _read_values(os.path.join(delta_dir, "eigenvalues.csv"))
    total = _read_values(os.path.join(sum_dir, "eigenvalues.csv"))
    _require(np.array_equal(4.0 * delta, total), "sum != 4 * delta bitwise")


# --- orbital-rigidity -------------------------------------------------------


def _read_graph(outdir: str) -> tuple[str, list[tuple[str, str, str]]]:
    with open(os.path.join(outdir, "graph.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(lines[0].startswith("# root=") and lines[1] == "source,target,label", "graph.csv: bad header")
    edges = [tuple(line.split(",")) for line in lines[2:] if line]
    _require(all(len(e) == 3 for e in edges), "graph.csv: bad row")
    return lines[0][len("# root="):], edges


def path_order(root: str, edges) -> list[str]:
    """Vertices in order along the graph, which must be a simple path once
    loops are dropped and parallel edges merged."""
    nbrs: dict[str, set[str]] = {root: set()}
    for src, tgt, _ in edges:
        nbrs.setdefault(src, set())
        nbrs.setdefault(tgt, set())
        if src != tgt:
            nbrs[src].add(tgt)
            nbrs[tgt].add(src)
    _require(all(len(n) <= 2 for n in nbrs.values()), "graph: a vertex has more than two neighbours")
    ends = [v for v, n in nbrs.items() if len(n) <= 1]
    _require(len(ends) == 2 or len(nbrs) == 1, f"graph: {len(ends)} path ends, expected 2")
    order, prev = [ends[0]], None
    while len(order) < len(nbrs):
        step = [w for w in nbrs[order[-1]] if w != prev]
        if not step:
            break
        prev = order[-1]
        order.append(step[0])
    _require(len(order) == len(nbrs), "graph: not connected")
    return order


def check_orbital(outdir: str, radius: int) -> None:
    """graph.csv, spectrum.csv and flags.csv of `orbital --element delta`."""
    root, edges = _read_graph(outdir)
    order = path_order(root, edges)
    n = len(order)
    _require(radius + 1 <= n <= 2 * radius + 1, f"ball has {n} vertices, expected {radius + 1}..{2 * radius + 1}")
    pos = {v: i for i, v in enumerate(order)}
    # Jacobi matrix of delta = (a+b+c+d)/4: 1/4 per labelled edge, loops on
    # the diagonal; a path order makes it tridiagonal.
    diag = np.zeros(n)
    up, down = Counter(), Counter()
    for src, tgt, _ in edges:
        i, j = pos[src], pos[tgt]
        if i == j:
            diag[i] += 0.25
        elif j == i + 1:
            up[i] += 1
        else:
            down[j] += 1
    _require(up == down, "graph: edge multiplicities are not symmetric")
    off = 0.25 * np.array([up[i] for i in range(n - 1)], dtype=float)
    expected = eigvalsh_tridiagonal(diag, off)
    values = _read_values(os.path.join(outdir, "spectrum.csv"))
    _require(values.size == n, f"spectrum.csv has {values.size} values for {n} vertices")
    gap = float(np.abs(np.sort(values) - expected).max())
    _require(gap <= 1e-12, f"spectrum differs from the Jacobi re-solve by {gap:.3e}")
    with open(os.path.join(outdir, "flags.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:] if line]
    _require(len(rows) == n, f"flags.csv has {len(rows)} rows for {n} vertices")
    flagged = [v for v, f in rows if f == "1"]
    _require(len(flagged) <= 2, f"{len(flagged)} flagged rows, expected at most 2")
    for v in flagged:
        _require(abs(pos[v] - pos[root]) == radius, f"flagged row {v} is not at distance {radius}")


def check_rigidity(outdir: str, samples: int) -> None:
    """rigidity.json: every sampled point is rigid for every generator."""
    report = _read_json(outdir, "rigidity.json")
    _require(report["samples"] == samples, f"rigidity: {report['samples']} samples, expected {samples}")
    fractions = report["per_generator"]
    _require(sorted(fractions) == ["a", "b", "c", "d"], f"rigidity: generators {sorted(fractions)}")
    _require(all(f == 1.0 for f in fractions.values()), f"rigidity: fractions {fractions}")


# --- slice-omega ------------------------------------------------------------


def check_slice(outdir: str, t: float, level: int, backward_max: float) -> None:
    """lambda.json, samples.csv and report.json of `slice`."""
    union = slice_union(t)
    got = _read_json(outdir, "lambda.json")["intervals"]
    _require(
        len(got) == 2 and all(abs(g - e) <= 1e-14 for pair, ref in zip(got, union) for g, e in zip(pair, ref)),
        f"lambda.json {got} != closed form {union}",
    )
    data = np.loadtxt(os.path.join(outdir, "samples.csv"), delimiter=",", skiprows=1, ndmin=2)
    levels, values = data[:, 0].astype(int), data[:, 1]
    stray = float(distance_to_union(values, union).max())
    _require(stray <= 1e-9, f"a sample lies {stray:.3e} outside the slice")
    report = _read_json(outdir, "report.json")["hausdorff"]
    _require(sorted(map(int, report)) == list(range(level + 1)), f"report.json levels {sorted(report)}")
    backward = math.inf
    for n in range(level + 1):
        rep = report[str(n)]
        _, backward = _check_hausdorff(rep["forward"], rep["backward"], values[levels == n], union, f"level {n}")
    _require(backward <= backward_max, f"level-{level} backward Hausdorff {backward:.3e} > {backward_max}")


def check_omega(outdir: str, level: int, tol: float) -> None:
    """curves.json rows and residuals; omega.svg is well-formed XML."""
    report = _read_json(outdir, "curves.json")
    rows = report["curve_checks"]
    _require(len(rows) == (1 << (level + 1)) - 2, f"curves.json has {len(rows)} rows")
    keys = {(r["n"], r["j"]) for r in rows}
    _require(keys == {(n, j) for n in range(1, level + 1) for j in range(1 << n)}, "curves.json: wrong (n, j) set")
    worst = max(r["max_residual"] for r in rows)
    _require(worst <= tol, f"curve residual {worst:.3e} > {tol:.0e}")
    parser = xml.parsers.expat.ParserCreate()
    tags = []
    parser.StartElementHandler = lambda name, attrs: tags.append(name) if not tags else None
    try:
        with open(os.path.join(outdir, "omega.svg"), "rb") as fh:
            parser.ParseFile(fh)
    except xml.parsers.expat.ExpatError as exc:
        raise CheckFailed(f"omega.svg is not well-formed XML: {exc}") from None
    _require(tags == ["svg"], f"omega.svg root element {tags}")
