"""Per-layer tracing from outside the program.

Layer.install() replaces public functions of the selfsim modules (and the
names the CLI imported from them) with wrappers that add up the time spent
inside each call and a work count taken from its arguments or result.  No
wrapped function calls another, so every span is its own self time.
uninstall() puts the originals back.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")
_MB = float(1 << 20)


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE / _MB


def _file_bytes(args, result) -> int:
    outdir, name = args[0], result
    return os.path.getsize(os.path.join(outdir, name))


# (module, function, span name, work counter name or None, work counted per call)
SPANS = (
    ("group", "rigidity_depth", "group.rigidity_depth", "group.rigidity_depth.calls", lambda a, r: 1),
    ("schreier", "orbital_ball", "schreier.orbital_ball", "schreier.orbital_ball.vertices",
     lambda a, r: len(r.vertices)),
    ("hecke", "assemble_level", "hecke.assemble_level", "hecke.assemble_level.mb",
     lambda a, r: r.entries.nbytes / _MB),
    ("hecke", "assemble_orbital", "hecke.assemble_orbital", "hecke.assemble_orbital.mb",
     lambda a, r: r[0].entries.nbytes / _MB),
    ("spectra", "sym_eigs", "spectra.sym_eigs", "spectra.sym_eigs.dim", lambda a, r: r.dim),
    ("spectra", "hausdorff_to_set", "spectra.hausdorff_to_set", "spectra.hausdorff_to_set.points",
     lambda a, r: len(a[0])),
    ("renorm", "slice_spectrum_samples", "renorm.slice_spectrum_samples", "renorm.slice_spectrum_samples.values",
     lambda a, r: len(r)),
    ("renorm", "curve_invariance_check", "renorm.curve_invariance_check", "renorm.curve_invariance_check.curves",
     lambda a, r: 1),
    ("renorm", "omega_svg", "renorm.omega_svg", None, None),
    ("cli", "_write", "cli.write", "cli.write.bytes", _file_bytes),
)
# Artifact formatting outside cli._write, counted in the cli.write span.
FORMATTERS = (("spectra", "EigReport"), ("schreier", "MarkedGraph"))
# Spans whose peak resident set is sampled while they run.
RSS_SPANS = {"spectra.sym_eigs"}


class _RssSampler:
    """Highest resident set seen while the block runs, polled every 5 ms."""

    def __init__(self):
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        while not self._stop.wait(0.005):
            self.peak = max(self.peak, _rss_mb())

    def __enter__(self):
        self.peak = _rss_mb()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_mb())


class Layers:
    """Span times (s), work counts and peak RSS per layer, summed over calls."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.work = defaultdict(float)
        self.peak_rss_mb = defaultdict(float)
        self._saved = []

    def _wrap(self, fn, span, counter, count):
        def traced(*args, **kwargs):
            sampler = _RssSampler() if span in RSS_SPANS else None
            start = time.perf_counter()
            if sampler is None:
                result = fn(*args, **kwargs)
            else:
                with sampler:
                    result = fn(*args, **kwargs)
            self.seconds[span] += time.perf_counter() - start
            if sampler is not None:
                self.peak_rss_mb[span] = max(self.peak_rss_mb[span], sampler.peak)
            if counter is not None:
                self.work[counter] += count(args, result)
            return result

        return traced

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, modules: dict) -> None:
        """Wrap the SPANS functions in every given module that holds them."""
        for mod, fname, span, counter, count in SPANS:
            original = getattr(modules[mod], fname)
            traced = self._wrap(original, span, counter, count)
            for owner in modules.values():
                if getattr(owner, fname, None) is original:
                    self._patch(owner, fname, traced)
        for mod, cls in FORMATTERS:
            klass = getattr(modules[mod], cls)
            self._patch(klass, "to_csv", self._wrap(klass.to_csv, "cli.write", None, None))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
