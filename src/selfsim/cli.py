"""Batch command line: verify | spectrum | slice | omega | orbital | rigidity.

Every command writes its artifacts plus a manifest.json into --out; outputs
are deterministic given an identical configuration (including seeds), so
reruns are byte-identical.  Exit codes: 0 success, 1 invariant failure,
2 usage error (every argument is checked before a command starts) or an
unwritable --out, 3 internal fault.  Artifacts are written as they are
formatted, a bounded chunk at a time, under a temporary name that is renamed
to the artifact's once its last chunk is written.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import traceback
from collections.abc import Iterable, Iterator

import numpy as np

from . import __version__
from .group import GENERATORS, BoundaryPoint, rigidity_depth
from .hecke import (
    ASSEMBLY_GUARD,
    BYTE_GUARD,
    LEVEL_GUARD,
    AlgebraElement,
    _level_perms,
    _word_map,
    assemble_level,
    assemble_orbital,
    delta_element,
    generator_sum_element,
)
from .renorm import IntervalUnion, curve_residuals, lambda_slice, omega_svg, slice_spectrum_samples
from .schreier import _CHUNK_CHARS, orbital_ball
from .spectra import hausdorff_to_set, sym_eigs

_TARGETS = {
    "delta": (((-0.5, 0.0), (0.5, 1.0))),
    "sum": (((-2.0, 0.0), (2.0, 4.0))),
    "e": (((1.0, 1.0),)),
}

# omega reports 2^(level+1) - 2 curves, checks the 2^level distinct ones and draws 2^(level-1) + 1 up to their
# mirror images; the level-12 SVG is 24 MB
OMEGA_LEVEL_GUARD = 12
_CURVE_CHUNK = 64  # curves omega checks at once
_SAMPLE_CHUNK = 1 << 16  # slice samples formatted at once
# Artifacts are written through a 2 MB buffer, larger than the bounded chunks.  glibc hands the free top of its
# heap back to the system once it exceeds twice the largest block it has unmapped; this buffer, unmapped at the
# first close, raises that mark, so the 0.1-1 MB temporaries of the chunk producers and curve checks are not
# handed back and faulted in again at every block (about 7,500 page faults a round of slice --level 14 and
# omega --level 10 in one process without it, none with it).
_WRITE_BUFFER = 1 << 21
RIGIDITY_CELL_GUARD = 1 << 24  # samples x depth boundary coordinates drawn by rigidity
_DRAW_BLOCK = 1 << 16  # uniform draws rigidity holds as float64 at once (512 KB)
# a two-ended radius-4096 ball has dimension 8193, the size of the level-13 spectrum
RADIUS_GUARD = 4096
# (2 radius + 1) x len(--point) characters: a ball holds at most 2 radius + 1 points about as long as --point
POINT_CELL_GUARD = 1 << 24
# bounds every operator entry and eigenvalue, so they and the power-of-two prescale stay finite;
# --t, the coefficient of a in -t a + b + c + d, is held to it as well, so t * t stays finite
COEF_SUM_GUARD = 2.0**500


def _write(outdir: str, name: str, chunks: Iterable[str]) -> str:
    """Writes the text chunks in turn to name in outdir, returning name.

    The chunks go to a temporary name in outdir that is renamed to name once
    the last one is written, so a fault on the way leaves no file of that name.
    """
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    partial = f"{path}.part"
    try:
        with open(partial, "w", encoding="utf-8", buffering=_WRITE_BUFFER) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    return name


def _write_json(outdir: str, name: str, data, indent: int | None = 2) -> str:
    return _write(outdir, name, [json.dumps(data, sort_keys=True, indent=indent, allow_nan=False) + "\n"])


def _manifest(args: argparse.Namespace, outputs: list[str], **extra) -> None:
    """manifest.json: the parsed arguments but --out (--element and --point as given), and --tol where taken."""
    config = {k: v[0] if isinstance(v, tuple) else v  # a (text, parsed...) argument by its text
              for k, v in vars(args).items() if k not in ("command", "out", "run")}
    data = {
        "command": args.command,
        "config": config,
        "tolerances": {"tol": args.tol} if "tol" in config else {},
        "versions": {
            "selfsim": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "outputs": sorted(outputs),
        **extra,
    }
    _write_json(args.out, "manifest.json", data)


def _element(spec: str) -> tuple[str, str, AlgebraElement]:
    """Argument type: (spec, name, element) for delta, sum, e or a self-adjoint element JSON file."""
    if spec == "delta":
        return spec, spec, delta_element()
    if spec == "sum":
        return spec, spec, generator_sum_element()
    if spec == "e":
        return spec, spec, AlgebraElement.from_terms([("", 1.0)])
    try:
        with open(spec, "rb") as fh:
            data = fh.read(BYTE_GUARD + 1)  # a device such as /dev/zero never ends
        if len(data) > BYTE_GUARD:
            raise ValueError(f"element file has more than the guard {BYTE_GUARD} bytes")
        element = AlgebraElement.from_json(data.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {spec!r}: {exc}") from None
    # merged duplicate words may sum to inf, which fails the comparison too
    if not sum(abs(c) for _, c in element.terms) <= COEF_SUM_GUARD:
        raise argparse.ArgumentTypeError(f"{spec!r} has coefficients whose absolute sum exceeds 2^500")
    # m* takes each word to its reversal, the inverse of a product of involutions; self-adjoint is m - m* = 0
    if AlgebraElement.from_terms([*element.terms, *((w[::-1], -c) for w, c in element.terms)]).terms:
        raise argparse.ArgumentTypeError(f"{spec!r} is not self-adjoint")
    return spec, os.path.basename(spec), element


_TAU = {"a": "aca", "b": "d", "c": "b", "d": "c"}

_BASE_RELATORS = ("aa", "bb", "cc", "dd", "bcd")


def _tau(word: str) -> str:
    return "".join(_TAU[ch] for ch in word)


def _relator_ok(word: str, perms: dict[str, np.ndarray]) -> bool:
    identity = np.arange(perms["a"].size)
    return bool(np.array_equal(_word_map(perms, word, identity.size), identity))


def _bcd_square_ok(perms: dict[str, np.ndarray]) -> bool:
    """(B + C + D - I)^2 == 4 I in exact integer arithmetic, on the level whose permutations are perms.

    That is (B + C + D)^2 == 3 I + 2 (B + C + D): the nine rows y[x[j]] of
    column j, x and y in b, c, d, are as a multiset j three times and b[j],
    c[j], d[j] twice each.  Each of those four candidates must be hit by as
    many rows as that multiset holds of its value; as the multiplicities of
    the distinct candidates sum to nine, no row is then left over.
    """
    letters = [perms[g] for g in ("b", "c", "d")]
    candidates = np.stack([np.arange(letters[0].size), *letters])
    gap = np.int8(-3) * (candidates == candidates[0])  # rows hitting each candidate, less its multiplicity
    for x in letters:
        gap -= np.int8(2) * (candidates == x)
        for y in letters:
            gap += candidates == y[x]
    return not gap.any()


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
        perms = _level_perms(n)
        for rel in relators:
            yield f"relator {rel} at n={n}", _relator_ok(rel, perms)
        yield f"(B+C+D-I)^2=4I at n={n}", _bcd_square_ok(perms)


def cmd_verify(args: argparse.Namespace) -> int:
    checks = [{"name": name, "ok": bool(ok)} for name, ok in _verify_checks(args.level)]
    failures = [c["name"] for c in checks if not c["ok"]]
    report = {"level": args.level, "checks": checks, "all_ok": not failures}
    outputs = [_write_json(args.out, "verify.json", report)]
    _manifest(args, outputs)
    for name in failures:
        print(f"FAIL {name}", file=sys.stderr)
    return 1 if failures else 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    spec, name, element = args.element
    level, tol, outdir = args.level, args.tol, args.out
    rep = sym_eigs(assemble_level(element, level))
    outputs = [_write(outdir, "eigenvalues.csv", [rep.to_csv()])]
    target_pairs = _TARGETS.get(spec)  # a named element's own; a file named delta has none
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
    _manifest(args, outputs, solver=rep.solver)
    if failed:
        print(f"FAIL eigenvalues stray {report['hausdorff_forward']:.3e} from the target", file=sys.stderr)
        return 1
    return 0


def _kept_rows(values: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """The places of the sorted values that hold the sorted prev, a sub-multiset of them, as a boolean mask.

    The k-th of a run of equal values of prev goes to the k-th place of that
    run in values.  Raises unless the masked values are prev bit for bit, in
    order, which is what lets their rows be copied.
    """
    places = np.searchsorted(values, prev) + (np.arange(prev.size) - np.searchsorted(prev, prev))
    kept = np.zeros(values.size, dtype=bool)
    kept[places[places < values.size]] = True
    if not np.array_equal(values[kept].view(np.uint64), prev.view(np.uint64)):
        raise RuntimeError("a level's slice samples do not hold the level before's bit for bit")
    return kept


def cmd_slice(args: argparse.Namespace) -> int:
    t, n_max, outdir = args.t, args.level, args.out
    union = lambda_slice(t)
    outputs = [_write_json(outdir, "lambda.json", {"t": t, "intervals": union.to_pairs()}, indent=None)]
    per_level = {}

    def samples():
        # level n holds level n - 1's values bit for bit (see slice_spectrum_samples), and equal floats have equal
        # repr, so a level copies the rows of the level before, kept as one "\n"-joined string per chunk and split
        # a chunk at a time, and formats only its other 2^(n-1) values
        yield "n,value\n"
        prev, prev_text = np.empty(0), []
        for n in range(n_max + 1):
            values = slice_spectrum_samples(t, n)
            kept = _kept_rows(values, prev)
            old_rows = itertools.chain.from_iterable(chunk.split("\n") for chunk in prev_text)
            text = []
            for start in range(0, values.size, _SAMPLE_CHUNK):
                chunk, copied = values[start : start + _SAMPLE_CHUNK], kept[start : start + _SAMPLE_CHUNK]
                # rebinding rows first frees the previous chunk's strings before this chunk's are made (with a
                # second name, slice-omega peak_rss_mb read 0.8 MB higher)
                rows = np.empty(chunk.size, dtype=object)
                rows[copied] = list(itertools.islice(old_rows, np.count_nonzero(copied)))
                rows[~copied] = list(map(repr, chunk[~copied].tolist()))
                rows = rows.tolist()
                if n < n_max:
                    text.append("\n".join(rows))
                # the chunk's rows "n,value\n" as three pieces around one join, which are not copied into one string
                yield from (f"{n},", f"\n{n},".join(rows), "\n")
            prev, prev_text = values, text
            forward, backward = hausdorff_to_set(values, union)
            per_level[str(n)] = {"forward": forward, "backward": backward}

    outputs.append(_write(outdir, "samples.csv", samples()))
    outputs.append(_write_json(outdir, "report.json", {"t": t, "hausdorff": per_level}))
    outputs.append(_write(outdir, "omega-slice.svg", omega_svg(curve_levels=3, slice_alphas=(t,))))
    _manifest(args, outputs)
    return 0


def _curve_rows(n: int, residuals: list[str]) -> str:
    """The curves.json rows of level n, joined as json.dumps(..., sort_keys=True, indent=2) lays them out."""
    return ",\n".join(f'    {{\n      "j": {j},\n      "max_residual": {r},\n      "n": {n}\n    }}'
                      for j, r in enumerate(residuals))


def cmd_omega(args: argparse.Namespace) -> int:
    level, tol, outdir = args.level, args.tol, args.out
    outputs = [_write(outdir, "omega.svg", omega_svg(curve_levels=level, slice_alphas=tuple(args.t)))]
    rows = []  # the text of each level's rows
    worst = 0.0
    residuals: list[str] = []  # the text of the level before n's, by j
    for n in range(1, level + 1):
        # gamma_{n,2j} has the residual of gamma_{n-1,j} (the doubling identity of curve_residuals), so at n >= 2
        # only the odd j are checked, and row (n, 2j) takes the text of row (n - 1, j)
        js = range(1, 1 << n, 2) if n > 1 else range(2)
        checked = np.concatenate([curve_residuals(n, js[start : start + _CURVE_CHUNK], 256)
                                  for start in range(0, len(js), _CURVE_CHUNK)])
        if not np.isfinite(checked).all():
            raise ValueError(f"a curve residual at n={n} is not finite")
        worst = max(worst, float(checked.max()))
        # float.__repr__, as json.dumps writes a float
        fresh = list(map(float.__repr__, checked.tolist()))
        residuals = fresh if n == 1 else [r for pair in zip(residuals, fresh) for r in pair]
        rows.append(_curve_rows(n, residuals))
    # curves.json is json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n" for the report
    # {"curve_checks": [{"n": n, "j": j, "max_residual": r}, ...], "worst_residual": worst, "tol": tol,
    # "all_ok": worst <= tol}, written as its head, the rows of each level and its tail
    head = f'{{\n  "all_ok": {"true" if worst <= tol else "false"},\n  "curve_checks": [\n'
    tail = f'\n  ],\n  "tol": {float.__repr__(tol)},\n  "worst_residual": {float.__repr__(worst)}\n}}\n'
    outputs.append(_write(outdir, "curves.json", [head, ",\n".join(rows), tail]))
    _manifest(args, outputs)
    if worst > tol:
        print(f"FAIL curve residual {worst:.3e} exceeds {tol:.0e}", file=sys.stderr)
        return 1
    return 0


def _histogram(values: np.ndarray) -> dict:
    """Counts of values in 20 equal bins of [-0.6, 1.1] (the last one closed), and below and above that range.

    Values and edges are rounded to 12 decimals first, so a value on an edge
    (1/4, the in-gap eigenvalue of delta) lands in the same bin whatever the
    last bits of the LAPACK driver that computed it.
    """
    lo, hi = -0.6, 1.1
    values = np.round(values, 12)
    counts, _ = np.histogram(values, bins=np.round(np.linspace(lo, hi, 21), 12))  # ignores values outside [lo, hi]
    return {"lo": lo, "hi": hi, "counts": counts.tolist(),
            "underflow": int(np.count_nonzero(values < lo)), "overflow": int(np.count_nonzero(values > hi))}


def _flag_rows(vertices: tuple[str, ...], flags: np.ndarray) -> Iterator[str]:
    """flags.csv as text chunks: the header, then rows, _CHUNK_CHARS characters or one row at a time."""
    yield "vertex,flagged\n"
    step = max(1, _CHUNK_CHARS // (max(map(len, vertices)) + 3))
    for start in range(0, len(vertices), step):
        rows = zip(vertices[start : start + step], flags[start : start + step].tolist())
        yield "".join(f"{v},{int(f)}\n" for v, f in rows)


def cmd_orbital(args: argparse.Namespace) -> int:
    x = args.point[1]
    letters = tuple(dict.fromkeys(args.gens))
    radius, outdir = args.radius, args.out
    _, name, element = args.element
    ball = orbital_ball(x, letters, radius)
    outputs = [_write(outdir, "graph.csv", ball.to_csv())]
    matrix, flags = assemble_orbital(element, x, letters, radius)
    rep = sym_eigs(matrix)
    outputs.append(_write(outdir, "spectrum.csv", [rep.to_csv()]))
    outputs.append(_write(outdir, "flags.csv", _flag_rows(ball.vertices, flags)))
    report = {
        "point": str(x),
        "gens": "".join(letters),
        "radius": radius,
        "element": name,
        "dim": rep.dim,
        "flagged_rows": int(np.count_nonzero(flags)),
        "histogram": _histogram(rep.eigenvalues),
    }
    outputs.append(_write_json(outdir, "report.json", report))
    _manifest(args, outputs, solver=rep.solver)
    return 0


def _draw_rays(rng: np.random.Generator, q: float, samples: int, depth: int) -> np.ndarray:
    """rng.random((samples, depth)) >= q, drawn _DRAW_BLOCK numbers at a time.

    Generator.random fills its output in C order from one stream, so the
    blocks of the flattened sample get the numbers of one whole draw, and the
    float64 draws never take 8 bytes per boolean cell kept.
    """
    bits = np.empty((samples, depth), dtype=bool)
    flat = bits.reshape(-1)
    for start in range(0, flat.size, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, flat.size)
        flat[start:stop] = rng.random(stop - start) >= q
    return bits


def cmd_rigidity(args: argparse.Namespace) -> int:
    q, samples, depth, seed = args.q, args.samples, args.depth, args.seed
    rng = np.random.default_rng(seed)
    per_generator: dict[str, float] = {}
    if samples > 0:
        bits = _draw_rays(rng, q, samples, depth)
        for g in GENERATORS:
            per_generator[g] = np.count_nonzero(rigidity_depth(bits, g)) / samples
    report = {"q": q, "samples": samples, "depth": depth, "seed": seed, "per_generator": per_generator}
    outputs = [_write_json(args.out, "rigidity.json", report)]
    _manifest(args, outputs)
    return 0


def _in(lo, hi, kind=int):
    """Argument type: an int (or another kind) in [lo, hi]; hi may be np.inf, and NaN is in no range."""

    def number(text: str):
        value = kind(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}], got {value}")
        return value

    return number


def _point(text: str) -> tuple[str, BoundaryPoint]:
    """Argument type: (text, point) for a boundary point."""
    try:
        return text, BoundaryPoint.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _gens(text: str) -> str:
    unknown = set(text) - set(GENERATORS)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown generators {sorted(unknown)}")
    return text


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be strictly between 0 and 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Spectral computations for the self-similar action on the binary tree.",
        epilog="Linear algebra runs in the BLAS/LAPACK of numpy and scipy, which read "
        "OMP_NUM_THREADS and OPENBLAS_NUM_THREADS at start-up; set them to cap the thread count. The blocks "
        "of an eigenvalue-only tridiagonal solve run on at most two threads, or on one under OMP_NUM_THREADS=1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    coef = _in(-COEF_SUM_GUARD, COEF_SUM_GUARD, float)
    tol = _in(0.0, sys.float_info.max, float)

    p = sub.add_parser("verify", help="exact relation suite over a level range")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--level", type=_in(0, LEVEL_GUARD), default=13, help="largest level checked (default 13)")
    p.add_argument("--out", default="selfsim-out", help="output directory")

    p = sub.add_parser("spectrum", help="level spectrum of an element vs a named target set")
    p.set_defaults(run=cmd_spectrum)
    p.add_argument("--element", type=_element, default="delta", help="delta | sum | e | path to element JSON")
    p.add_argument("--level", type=_in(0, ASSEMBLY_GUARD), default=8)
    p.add_argument("--tol", type=tol, default=1e-9, help="membership tolerance for the target set")
    p.add_argument("--out", default="selfsim-out")

    p = sub.add_parser("slice", help="slice spectrum endpoints and per-level samples")
    p.set_defaults(run=cmd_slice)
    p.add_argument("--t", type=coef, default=-1.0)
    p.add_argument("--level", type=_in(0, LEVEL_GUARD), default=8, help="largest sample level")
    p.add_argument("--out", default="selfsim-out")

    p = sub.add_parser("omega", help="parameter-region plot and curve invariance residuals")
    p.set_defaults(run=cmd_omega)
    p.add_argument("--level", type=_in(1, OMEGA_LEVEL_GUARD), default=4, help="deepest curve family drawn and checked")
    p.add_argument("--t", type=coef, action="append", default=[], help="slice line(s) to draw")
    p.add_argument("--tol", type=tol, default=1e-9)
    p.add_argument("--out", default="selfsim-out")

    p = sub.add_parser("orbital", help="orbital-ball graph and truncated spectrum")
    p.set_defaults(run=cmd_orbital)
    p.add_argument("--point", type=_point, default="(1)", help="boundary point, e.g. '01(10)'")
    p.add_argument("--gens", type=_gens, default="abcd")
    p.add_argument("--radius", type=_in(0, RADIUS_GUARD), default=64)
    p.add_argument("--element", type=_element, default="delta")
    p.add_argument("--out", default="selfsim-out")

    p = sub.add_parser("rigidity", help="sampled rigidity fractions per generator")
    p.set_defaults(run=cmd_rigidity)
    p.add_argument("--q", type=_probability, default=0.5, help="coordinatewise probability of 0")
    p.add_argument("--samples", type=_in(0, RIGIDITY_CELL_GUARD), default=10000)
    p.add_argument("--depth", type=_in(1, RIGIDITY_CELL_GUARD), default=64)
    p.add_argument("--seed", type=_in(0, np.inf), default=1)
    p.add_argument("--out", default="selfsim-out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rigidity" and args.samples * args.depth > RIGIDITY_CELL_GUARD:
            parser.error(f"--samples x --depth exceeds the guard {RIGIDITY_CELL_GUARD}")
        if args.command == "orbital":
            if (2 * args.radius + 1) * len(args.point[0]) > POINT_CELL_GUARD:
                parser.error(f"(2 x --radius + 1) x the length of --point exceeds the guard {POINT_CELL_GUARD}")
            missing = args.element[2].support_letters() - set(args.gens)
            if missing:
                parser.error(f"--element uses letters {sorted(missing)} that --gens {args.gens!r} leaves out")
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
