"""End-to-end and per-layer benchmark of the selfsim command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

One run is one fresh process.  It times the import of selfsim.cli in fresh
interpreters (setup_s), then repeats rounds of CLI commands, called in
process through selfsim.cli.main, until S seconds have passed; a round is
never cut short.  Each command's outputs are checked by checks.py after the
round.  With --trace 1 a round is an untraced pass followed by a traced pass
(layers.py), and the run reports per-layer metrics instead of end-to-end
ones.  The last line of standard output is the result as JSON; the metric
names and units are those of BENCHMARK.json.  --all runs every workload,
untraced and traced, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from typing import Callable, NamedTuple

import layers as layers_mod

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_SAMPLES = 5

# Level 12 keeps a traced level-spectrum run (two passes) well inside the
# 180 s a run may take; a level-13 pass alone takes 70-120 s on 2 cores.
LEVEL = 12
ORBITAL_FIXED = (("(1)", 1024), ("(1)", 2048), ("(0)", 1024), ("01(10)", 1024))
ORBITAL_DRAWN_RADIUS = 1024
RIGIDITY_QS = (0.3, 0.5, 0.7)
RIGIDITY_SAMPLES, RIGIDITY_DEPTH = 10000, 64
SLICE_T, SLICE_LEVEL, OMEGA_LEVEL, TOL = -0.5, 14, 10, 1e-9


class Op(NamedTuple):
    """One CLI command and the check of what it wrote.

    check(outdir, earlier) gets the op's --out directory and those of the
    ops before it in the round.
    """

    argv: list[str]
    check: Callable[[str, list[str]], None]


def _drawn_point(rng: random.Random) -> str:
    # A period holding both bits is never cofinal with 1^inf, so the ball is
    # two-ended (2r+1 vertices) and every seed does the same amount of work.
    pre = "".join(rng.choice("01") for _ in range(6))
    return f"{pre}({rng.choice(['001', '010', '011', '100', '101', '110'])})"


def workload_ops(name: str, seed: int) -> list[Op]:
    import checks

    if name == "level-spectrum":
        def check_sum(out, earlier):
            checks.check_spectrum(out, "sum", LEVEL, TOL, 0.05)
            checks.check_sum_is_four_delta(earlier[0], out)

        level = str(LEVEL)
        return [
            Op(["spectrum", "--element", "delta", "--level", level, "--tol", repr(TOL)],
               lambda out, _: checks.check_spectrum(out, "delta", LEVEL, TOL, 0.05)),
            Op(["spectrum", "--element", "sum", "--level", level, "--tol", repr(TOL)], check_sum),
        ]
    if name == "orbital-rigidity":
        rng = random.Random(seed)
        points = list(ORBITAL_FIXED) + [(_drawn_point(rng), ORBITAL_DRAWN_RADIUS) for _ in range(2)]
        ops = [
            Op(["orbital", "--point", point, "--gens", "abcd", "--radius", str(r), "--element", "delta"],
               lambda out, _, r=r: checks.check_orbital(out, r))
            for point, r in points
        ]
        ops += [
            Op(["rigidity", "--q", repr(q), "--samples", str(RIGIDITY_SAMPLES), "--depth", str(RIGIDITY_DEPTH),
                "--seed", str(rng.randrange(1 << 31))],
               lambda out, _: checks.check_rigidity(out, RIGIDITY_SAMPLES))
            for q in RIGIDITY_QS
        ]
        return ops
    if name == "slice-omega":
        return [
            Op(["slice", "--t", repr(SLICE_T), "--level", str(SLICE_LEVEL)],
               lambda out, _: checks.check_slice(out, SLICE_T, SLICE_LEVEL, 0.02)),
            Op(["omega", "--level", str(OMEGA_LEVEL), "--t", repr(SLICE_T), "--tol", repr(TOL)],
               lambda out, _: checks.check_omega(out, OMEGA_LEVEL, TOL)),
        ]
    raise ValueError(f"unknown workload {name!r}")


class Pass(NamedTuple):
    wall: float
    cpu: float
    per_command: dict
    dirs: list
    attempted: int
    failed: int
    correct: bool


def run_pass(cli, ops: list[Op], base: str) -> Pass:
    """Run every op of a round, then check their outputs (untimed)."""
    dirs = [os.path.join(base, str(k)) for k in range(len(ops))]
    per_command: dict[str, float] = defaultdict(float)
    codes = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op, out in zip(ops, dirs):
        start = time.perf_counter()
        try:
            code = cli.main(op.argv + ["--out", out])
        except Exception:
            traceback.print_exc()
            code = None
        per_command[op.argv[0]] += time.perf_counter() - start
        codes.append(code)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    failed, correct = 0, True
    for k, (op, out, code) in enumerate(zip(ops, dirs, codes)):
        if code != 0:
            failed += 1
            print(f"FAIL {' '.join(op.argv)}: exit {code}", file=sys.stderr)
            continue
        try:
            op.check(out, dirs[:k])
        except Exception as exc:  # a crash in a checker is a failed check too
            failed += 1
            correct = False
            print(f"FAIL {' '.join(op.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return Pass(wall, cpu, dict(per_command), dirs, len(ops), failed, correct)


def boundary_image_probe(group, dirs: list[str]) -> tuple[int, float]:
    """Call boundary_image once per ball vertex and generator; (calls, seconds)."""
    calls, seconds = 0, 0.0
    for out in dirs:
        path = os.path.join(out, "graph.csv")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[2:] if line]
        points = [group.BoundaryPoint.parse(v) for v in sorted({r[0] for r in rows} | {r[1] for r in rows})]
        start = time.perf_counter()
        for y in points:
            for g in group.GENERATORS:
                group.boundary_image(g, y)
        seconds += time.perf_counter() - start
        calls += len(points) * len(group.GENERATORS)
    return calls, seconds


def measure_setup() -> float:
    """Seconds from launching a fresh interpreter until selfsim.cli is imported."""
    code = "import selfsim.cli, time; print(repr(time.monotonic()))"
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1]) - start


def environment(threads: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OMP_NUM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": threads,
        "torch_importable": importlib.util.find_spec("torch") is not None,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, int]:
    """One run: (result, number of rounds)."""
    setup = statistics.median(measure_setup() for _ in range(SETUP_SAMPLES))
    sys.path.insert(0, SRC)
    import selfsim
    import selfsim.cli as cli
    from selfsim import group, hecke, renorm, schreier, spectra

    if not os.path.abspath(selfsim.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"selfsim imported from {selfsim.__file__}, not from {SRC}")
    modules = {"group": group, "schreier": schreier, "hecke": hecke, "renorm": renorm, "spectra": spectra, "cli": cli}
    ops = workload_ops(workload, seed)
    base = os.path.join(ROOT, ".perfbench_out", f"{workload}-{os.getpid()}")
    untraced, traced = [], []
    layers = layers_mod.Layers()
    probe_calls, probe_seconds = 0, 0.0
    start = time.perf_counter()
    try:
        while not untraced or time.perf_counter() - start < seconds:
            untraced.append(run_pass(cli, ops, os.path.join(base, f"u{len(untraced)}")))
            if trace:
                layers.install(modules)
                try:
                    traced.append(run_pass(cli, ops, os.path.join(base, f"t{len(traced)}")))
                finally:
                    layers.uninstall()
                calls, secs = boundary_image_probe(group, traced[-1].dirs)
                probe_calls, probe_seconds = probe_calls + calls, probe_seconds + secs
            shutil.rmtree(base, ignore_errors=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    passes = untraced + traced
    result = {
        "correct": all(p.correct for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
    }
    if not trace:
        values = {
            "wall_s": statistics.median(p.wall for p in untraced),
            "cpu_s": statistics.median(p.cpu for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup,
        }
        wanted = spec["end_to_end"]
    else:
        k = len(traced)
        values = {f"{span}.s": secs / k for span, secs in layers.seconds.items()}
        values.update({name: work / k for name, work in layers.work.items()})
        values["spectra.sym_eigs.maxrss_mb"] = layers.peak_rss_mb["spectra.sym_eigs"]
        values["group.boundary_image.us_per_call"] = 1e6 * probe_seconds / probe_calls if probe_calls else 0.0
        for command in ("spectrum", "orbital", "rigidity", "slice", "omega"):
            values[f"cli.{command}.s"] = sum(p.per_command.get(command, 0.0) for p in untraced) / k
        traced_wall = sum(p.wall for p in traced) / k
        values["trace.overhead_s"] = traced_wall - sum(p.wall for p in untraced) / k
        values["trace.unaccounted_s"] = traced_wall - sum(layers.seconds.values()) / k
        wanted = spec["per_layer"]
    result["metrics"] = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    unknown = set(values) - set(result["metrics"])
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return result, len(untraced)


def run_all(seed: int, seconds: int, spec: dict) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload["name"], "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload['name']} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload['name']} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
            if result["failed"] or not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "selfsim", "cli.py")):
        print(f"error: no selfsim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    # BLAS reads these once, when numpy is first imported: set them before.
    threads = str(len(os.sched_getaffinity(0)))
    os.environ["OMP_NUM_THREADS"] = os.environ["OPENBLAS_NUM_THREADS"] = threads
    if args.all:
        return run_all(args.seed, seconds, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    print("env " + json.dumps(environment(threads), sort_keys=True))
    result, rounds = run(args.workload, args.seed, seconds, bool(args.trace), spec)
    print(f"rounds={rounds} attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
