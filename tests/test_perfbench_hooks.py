"""The benchmark's per-layer tracer and probe still find and count what they reach.

perfbench/layers.py wraps public selfsim functions by name and reads work
counts off their results, and perfbench/run.py calls group.boundary_image in
every traced round; a refactor that renames one of them or changes what it
returns would otherwise only show up as a broken traced benchmark.
"""

import importlib.util
import os

import selfsim.cli as cli
from selfsim import group, hecke, renorm, schreier, spectra

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_tracer_counts_assembly(tmp_path):
    modules = {"group": group, "schreier": schreier, "hecke": hecke, "renorm": renorm, "spectra": spectra, "cli": cli}
    original = cli.assemble_level
    tracer = _load("layers").Layers()
    tracer.install(modules)
    try:
        assert cli.main(["spectrum", "--level", "3", "--out", str(tmp_path / "s")]) == 0
        assert cli.main(["orbital", "--radius", "4", "--out", str(tmp_path / "o")]) == 0
        written = tracer.work["cli.write.bytes"]
        assert cli.main(["omega", "--level", "2", "--out", str(tmp_path / "w")]) == 0
        assert cli.main(["rigidity", "--samples", "10", "--depth", "4", "--out", str(tmp_path / "r")]) == 0
    finally:
        tracer.uninstall()
    assert cli.assemble_level is original
    # level 3 delta: 8 rows of at most 3 nonzeros; the radius-4 ball around
    # the fixed point 1^inf of b, c, d is one-ended: 5 vertices
    assert 0.0 < tracer.work["hecke.assemble_level.mb"] <= 24 * 8 / float(1 << 20)
    assert 0.0 < tracer.work["hecke.assemble_orbital.mb"] <= 15 * 8 / float(1 << 20)
    assert tracer.work["spectra.sym_eigs.dim"] == 8 + 5
    assert tracer.work["cli.write.bytes"] - written >= (tmp_path / "w" / "omega.svg").stat().st_size
    # rigidity walks the whole sample once per generator
    assert tracer.work["group.rigidity_depth.calls"] == 4
    for span in ("hecke.assemble_level", "hecke.assemble_orbital", "spectra.sym_eigs", "renorm.omega_svg", "cli.write",
                 "group.rigidity_depth"):
        assert tracer.seconds[span] > 0.0, span


def test_boundary_image_probe_reads_the_ball(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))  # run.py imports layers by its bare name
    out = str(tmp_path / "o")
    assert cli.main(["orbital", "--radius", "4", "--out", out]) == 0
    # the radius-4 ball around 1^inf has 5 vertices, each probed with the 4 generators
    assert _load("run").boundary_image_probe(group, [out])[0] == 20
