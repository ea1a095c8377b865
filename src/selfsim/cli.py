"""Batch command line: verify | spectrum | slice | omega | orbital | rigidity.

Every command writes its artifacts plus a manifest.json into --out; outputs
are deterministic given an identical configuration (including seeds), so
reruns are byte-identical.  Exit codes: 0 success, 1 invariant failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import SelfsimError
from .group import GENERATORS, BoundaryPoint, rigidity_depth
from .hecke import (
    ASSEMBLY_GUARD,
    LEVEL_GUARD,
    AlgebraElement,
    assemble_level,
    assemble_orbital,
    delta_element,
    generator_sum_element,
    word_perm,
)
from .renorm import IntervalUnion, curve_invariance_check, lambda_slice, omega_svg, slice_spectrum_samples
from .schreier import orbital_ball
from .spectra import eig_histogram, hausdorff_to_set, sym_eigs

_TARGETS = {
    "delta": (((-0.5, 0.0), (0.5, 1.0))),
    "sum": (((-2.0, 0.0), (2.0, 4.0))),
    "e": (((1.0, 1.0),)),
}

# omega checks 2^(level+1) - 2 curves and draws 2^(level-1) + 1 distinct ones; the level-12 SVG is 24 MB
OMEGA_LEVEL_GUARD = 12
RIGIDITY_CELL_GUARD = 1 << 24  # samples x depth boundary coordinates drawn by rigidity


def _write(outdir: str, name: str, text: str) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return name


def _write_json(outdir: str, name: str, data, indent: int | None = 2) -> str:
    return _write(outdir, name, json.dumps(data, sort_keys=True, indent=indent, allow_nan=False) + "\n")


def _manifest(outdir: str, command: str, config: dict, tolerances: dict, outputs: list[str], **extra) -> None:
    data = {
        "command": command,
        "config": config,
        "tolerances": tolerances,
        "versions": {
            "selfsim": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "outputs": sorted(outputs),
        **extra,
    }
    _write_json(outdir, "manifest.json", data)


def _parse_element(spec: str) -> tuple[str, AlgebraElement]:
    if spec == "delta":
        return spec, delta_element()
    if spec == "sum":
        return spec, generator_sum_element()
    if spec == "e":
        return spec, AlgebraElement.from_terms([("", 1.0)])
    with open(spec, encoding="utf-8") as fh:
        return os.path.basename(spec), AlgebraElement.from_json(fh.read())


_TAU = {"a": "aca", "b": "d", "c": "b", "d": "c"}

_BASE_RELATORS = ("aa", "bb", "cc", "dd", "bcd")


def _tau(word: str) -> str:
    return "".join(_TAU[ch] for ch in word)


def _relator_ok(word: str, n: int) -> bool:
    return bool(np.array_equal(word_perm(word, n), np.arange(1 << n)))


def _bcd_square_ok(n: int) -> bool:
    """(B + C + D - I)^2 == 4 I in exact integer arithmetic."""
    import scipy.sparse as sparse
    dim = 1 << n
    cols = np.arange(dim)
    acc = sparse.csr_matrix((dim, dim), dtype=np.int64)
    for letter in ("b", "c", "d"):
        rows = word_perm(letter, n)
        acc += sparse.csr_matrix((np.ones(dim, dtype=np.int64), (rows, cols)), shape=(dim, dim))
    acc -= sparse.identity(dim, dtype=np.int64, format="csr")
    gap = (acc @ acc) - 4 * sparse.identity(dim, dtype=np.int64, format="csr")
    gap.eliminate_zeros()
    return gap.nnz == 0


def _verify_checks(level: int):
    relators = list(_BASE_RELATORS)
    word = "adadadad"
    for _ in range(3):
        relators.append(word)
        word = _tau(word)
    word = "adacac" * 4
    for _ in range(2):
        relators.append(word)
        word = _tau(word)
    for n in range(level + 1):
        for rel in relators:
            yield f"relator {rel} at n={n}", _relator_ok(rel, n)
        yield f"(B+C+D-I)^2=4I at n={n}", _bcd_square_ok(n)


def cmd_verify(level: int, outdir: str) -> int:
    checks = [{"name": name, "ok": bool(ok)} for name, ok in _verify_checks(level)]
    failures = [c["name"] for c in checks if not c["ok"]]
    report = {"level": level, "checks": checks, "all_ok": not failures}
    outputs = [_write_json(outdir, "verify.json", report)]
    _manifest(outdir, "verify", {"level": level}, {}, outputs)
    for name in failures:
        print(f"FAIL {name}", file=sys.stderr)
    return 1 if failures else 0


def cmd_spectrum(element_spec: str, level: int, tol: float, outdir: str) -> int:
    name, element = _parse_element(element_spec)
    rep = sym_eigs(assemble_level(element, level))
    outputs = [_write(outdir, "eigenvalues.csv", rep.to_csv())]
    target_pairs = _TARGETS.get(name)
    report: dict = {"element": name, "level": level, "dim": rep.dim, "target": None}
    failed = False
    if target_pairs is not None:
        target = IntervalUnion.from_pairs(target_pairs)
        forward, backward = hausdorff_to_set(rep.eigenvalues, target)
        report.update(
            target=target.to_pairs(),
            hausdorff_forward=forward,
            hausdorff_backward=backward,
            within_tol=bool(forward <= tol),
        )
        failed = forward > tol
    outputs.append(_write_json(outdir, "report.json", report))
    config = {"element": element_spec, "level": level, "tol": tol}
    _manifest(outdir, "spectrum", config, {"tol": tol}, outputs, solver=rep.solver)
    if failed:
        print(f"FAIL eigenvalues stray {report['hausdorff_forward']:.3e} from the target", file=sys.stderr)
        return 1
    return 0


def cmd_slice(t: float, n_max: int, outdir: str) -> int:
    union = lambda_slice(t)
    outputs = [_write_json(outdir, "lambda.json", {"t": t, "intervals": union.to_pairs()}, indent=None)]
    lines = ["n,value"]
    per_level = {}
    for n in range(n_max + 1):
        values = slice_spectrum_samples(t, n)
        lines.extend(f"{n},{v!r}" for v in values)
        forward, backward = hausdorff_to_set(values, union)
        per_level[str(n)] = {"forward": forward, "backward": backward}
    outputs.append(_write(outdir, "samples.csv", "\n".join(lines) + "\n"))
    outputs.append(_write_json(outdir, "report.json", {"t": t, "hausdorff": per_level}))
    outputs.append(_write(outdir, "omega-slice.svg", omega_svg(curve_levels=3, slice_alphas=(t,))))
    _manifest(outdir, "slice", {"t": t, "level": n_max}, {}, outputs)
    return 0


def cmd_omega(level: int, slice_ts: tuple[float, ...], tol: float, outdir: str) -> int:
    outputs = [_write(outdir, "omega.svg", omega_svg(curve_levels=level, slice_alphas=slice_ts))]
    rows = []
    worst = 0.0
    for n in range(1, level + 1):
        for j in range(1 << n):
            check = curve_invariance_check(n, j, 256, tol)
            worst = max(worst, check.max_residual)
            rows.append({"n": n, "j": j, "max_residual": check.max_residual})
    report = {"curve_checks": rows, "worst_residual": worst, "tol": tol, "all_ok": worst <= tol}
    outputs.append(_write_json(outdir, "curves.json", report))
    _manifest(outdir, "omega", {"level": level, "t": list(slice_ts), "tol": tol}, {"tol": tol}, outputs)
    if worst > tol:
        print(f"FAIL curve residual {worst:.3e} exceeds {tol:.0e}", file=sys.stderr)
        return 1
    return 0


def cmd_orbital(point: str, gens: str, radius: int, element_spec: str, outdir: str) -> int:
    x = BoundaryPoint.parse(point)
    letters = tuple(dict.fromkeys(gens))
    unknown = set(letters) - set(GENERATORS)
    if unknown:
        raise ValueError(f"unknown generators {sorted(unknown)}")
    name, element = _parse_element(element_spec)
    ball = orbital_ball(x, letters, radius)
    outputs = [_write(outdir, "graph.csv", ball.to_csv())]
    matrix, flags = assemble_orbital(element, ball)
    rep = sym_eigs(matrix)
    outputs.append(_write(outdir, "spectrum.csv", rep.to_csv()))
    flag_lines = ["vertex,flagged"]
    flag_lines.extend(f"{v},{int(f)}" for v, f in zip(ball.vertices, flags))
    outputs.append(_write(outdir, "flags.csv", "\n".join(flag_lines) + "\n"))
    hist = eig_histogram(rep.eigenvalues, 20, (-0.6, 1.1))
    report = {
        "point": str(x),
        "gens": "".join(letters),
        "radius": radius,
        "element": name,
        "dim": rep.dim,
        "flagged_rows": int(np.count_nonzero(flags)),
        "histogram": {"lo": hist.lo, "hi": hist.hi, "counts": list(hist.counts),
                      "underflow": hist.underflow, "overflow": hist.overflow},
    }
    outputs.append(_write_json(outdir, "report.json", report))
    config = {"point": point, "gens": gens, "radius": radius, "element": element_spec}
    _manifest(outdir, "orbital", config, {}, outputs, solver=rep.solver)
    return 0


def cmd_rigidity(q: float, samples: int, depth: int, seed: int, outdir: str) -> int:
    rng = np.random.default_rng(seed)
    per_generator: dict[str, float] = {}
    if samples > 0:
        bits = (rng.random((samples, depth)) >= q).astype(np.uint8)
        prefixes = ["".join("01"[b] for b in row) for row in bits]
        points = [BoundaryPoint(prefix, "0") for prefix in prefixes]
        for g in GENERATORS:
            hits = sum(1 for x in points if rigidity_depth(x, g, depth) is not None)
            per_generator[g] = hits / samples
    report = {"q": q, "samples": samples, "depth": depth, "seed": seed, "per_generator": per_generator}
    outputs = [_write_json(outdir, "rigidity.json", report)]
    _manifest(outdir, "rigidity", {"q": q, "samples": samples, "depth": depth, "seed": seed}, {}, outputs)
    return 0


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _level(lo: int, hi: int):
    """Argument type: an integer tree level in [lo, hi]."""

    def level(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"level must be in [{lo}, {hi}], got {value}")
        return value

    return level


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Spectral computations for the self-similar action on the binary tree.",
        epilog="Linear algebra runs in the BLAS/LAPACK of numpy and scipy, which read "
        "OMP_NUM_THREADS and OPENBLAS_NUM_THREADS at start-up; set them to cap the thread count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="exact relation suite over a level range")
    p.add_argument("--level", type=_level(0, LEVEL_GUARD), default=13, help="largest level checked (default 13)")
    p.add_argument("--out", default="selfsim-out", help="output directory")

    p = sub.add_parser("spectrum", help="level spectrum of an element vs a named target set")
    p.add_argument("--element", default="delta", help="delta | sum | e | path to element JSON")
    p.add_argument("--level", type=_level(0, ASSEMBLY_GUARD), default=8)
    p.add_argument("--tol", type=_finite, default=1e-9, help="membership tolerance for the target set")
    p.add_argument("--out", default="selfsim-out")

    p = sub.add_parser("slice", help="slice spectrum endpoints and per-level samples")
    p.add_argument("--t", type=_finite, default=-1.0)
    p.add_argument("--level", type=_level(0, LEVEL_GUARD), default=8, help="largest sample level")
    p.add_argument("--out", default="selfsim-out")

    p = sub.add_parser("omega", help="parameter-region plot and curve invariance residuals")
    p.add_argument("--level", type=_level(1, OMEGA_LEVEL_GUARD), default=4, help="deepest curve family drawn and checked")
    p.add_argument("--t", type=_finite, action="append", default=[], help="slice line(s) to draw")
    p.add_argument("--tol", type=_finite, default=1e-9)
    p.add_argument("--out", default="selfsim-out")

    p = sub.add_parser("orbital", help="orbital-ball graph and truncated spectrum")
    p.add_argument("--point", default="(1)", help="boundary point, e.g. '01(10)'")
    p.add_argument("--gens", default="abcd")
    p.add_argument("--radius", type=int, default=64)
    p.add_argument("--element", default="delta")
    p.add_argument("--out", default="selfsim-out")

    p = sub.add_parser("rigidity", help="sampled rigidity fractions per generator")
    p.add_argument("--q", type=float, default=0.5, help="coordinatewise probability of 0")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="selfsim-out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return cmd_verify(args.level, args.out)
        if args.command == "spectrum":
            return cmd_spectrum(args.element, args.level, args.tol, args.out)
        if args.command == "slice":
            return cmd_slice(args.t, args.level, args.out)
        if args.command == "omega":
            return cmd_omega(args.level, tuple(args.t), args.tol, args.out)
        if args.command == "orbital":
            return cmd_orbital(args.point, args.gens, args.radius, args.element, args.out)
        if args.command == "rigidity":
            if not 0.0 < args.q < 1.0:
                raise ValueError("q must be strictly between 0 and 1")
            if args.samples < 0:
                raise ValueError("samples must be >= 0")
            if args.samples * args.depth > RIGIDITY_CELL_GUARD:
                raise ValueError(f"samples x depth exceeds the guard {RIGIDITY_CELL_GUARD}")
            return cmd_rigidity(args.q, args.samples, args.depth, args.seed, args.out)
        raise ValueError(f"unknown command {args.command}")
    except (SelfsimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
