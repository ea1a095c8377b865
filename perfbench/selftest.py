"""Self-test of the output checkers: each must pass a real output and reject
a corrupted copy of it.

Run from the root of a checkout:  python3 perfbench/selftest.py

The CLI runs at small sizes here (level 8, radius 64, slice level 8, omega
level 4), so size-dependent thresholds are loosened; every corruption below
is caught by a size-independent part of a check.
"""

from __future__ import annotations

import os
import shutil
import sys
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import selfsim.cli as cli  # noqa: E402


def _edit(path: str, fn) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


def _move_value(k: int, delta: float):
    def fn(lines):
        head = [i for i, line in enumerate(lines) if line == "value"][0]
        lines[head + 1 + k] = repr(float(lines[head + 1 + k]) + delta)
        return lines

    return fn


def _drop_vertex(lines):
    """Remove every edge touching one interior vertex of the ball."""
    root = lines[0].split("=", 1)[1]
    victim = next(row.split(",")[1] for row in lines[2:] if row.split(",")[0] == root and row.split(",")[1] != root)
    return [row for row in lines if victim not in row.split(",")[:2] or row.startswith("#")]


def _push_sample_out(lines):
    n, _ = lines[-1].split(",")
    lines[-1] = f"{n},{3.5 + 1e-3!r}"  # beyond the right end 1 + |t| + 2 of the t = -0.5 slice
    return lines


def _cases(base: str):
    """(name, command, checker, corruption file, corruption) tuples."""
    delta, total = os.path.join(base, "delta"), os.path.join(base, "sum")
    ball0, ball1 = os.path.join(base, "ball0"), os.path.join(base, "ball1")
    sl, om, rig = os.path.join(base, "slice"), os.path.join(base, "omega"), os.path.join(base, "rigidity")
    spectrum = ["spectrum", "--level", "8", "--tol", "1e-9"]
    return [
        ("delta eigenvalue moved by 1e-6", spectrum + ["--element", "delta", "--out", delta],
         lambda: checks.check_spectrum(delta, "delta", 8, 1e-9, 0.5), "delta/eigenvalues.csv", _move_value(17, 1e-6)),
        ("sum eigenvalue moved by 1e-6", spectrum + ["--element", "sum", "--out", total],
         lambda: checks.check_spectrum(total, "sum", 8, 1e-9, 0.5), "sum/eigenvalues.csv", _move_value(200, 1e-6)),
        ("sum != 4 delta after moving one delta eigenvalue by 1e-6", None,
         lambda: checks.check_sum_is_four_delta(delta, total), "delta/eigenvalues.csv", _move_value(3, 1e-6)),
        ("graph vertex dropped, two-ended ball",
         ["orbital", "--point", "(0)", "--radius", "64", "--element", "delta", "--out", ball0],
         lambda: checks.check_orbital(ball0, 64), "ball0/graph.csv", _drop_vertex),
        ("graph vertex dropped, one-ended ball",
         ["orbital", "--point", "(1)", "--radius", "64", "--element", "delta", "--out", ball1],
         lambda: checks.check_orbital(ball1, 64), "ball1/graph.csv", _drop_vertex),
        ("orbital eigenvalue moved by 1e-6", None,
         lambda: checks.check_orbital(ball0, 64), "ball0/spectrum.csv", _move_value(5, 1e-6)),
        ("rigidity fraction below 1", ["rigidity", "--samples", "200", "--seed", "3", "--out", rig],
         lambda: checks.check_rigidity(rig, 200), "rigidity/rigidity.json",
         lambda lines: [line.replace("1.0", "0.995", 1) for line in lines]),
        ("slice sample pushed outside the slice", ["slice", "--t", "-0.5", "--level", "8", "--out", sl],
         lambda: checks.check_slice(sl, -0.5, 8, 0.5), "slice/samples.csv", _push_sample_out),
        ("omega.svg truncated", ["omega", "--level", "4", "--t", "-0.5", "--out", om],
         lambda: checks.check_omega(om, 4, 1e-9), "omega/omega.svg", lambda lines: lines[:-2]),
    ]


def main() -> int:
    base = os.path.join(ROOT, ".perfbench_out", f"selftest-{os.getpid()}")
    failures = 0
    try:
        for name, command, check, target, corrupt in _cases(base):
            if command is not None and cli.main(command) != 0:
                print(f"FAIL {name}: command exited nonzero")
                failures += 1
                continue
            path = os.path.join(base, target)
            saved = path + ".orig"
            shutil.copyfile(path, saved)
            try:
                check()
            except Exception:
                print(f"FAIL {name}: checker rejects the real output")
                traceback.print_exc()
                failures += 1
                continue
            _edit(path, corrupt)
            try:
                check()
            except checks.CheckFailed as exc:
                print(f"ok   {name}: {exc}")
            else:
                print(f"FAIL {name}: checker accepts the corrupted output")
                failures += 1
            finally:
                shutil.move(saved, path)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
