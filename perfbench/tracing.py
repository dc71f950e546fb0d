"""Spans around the program's layer functions, installed from outside.

The traced run replaces module attributes with timing wrappers; no file of
the package changes.  A function imported by name into another module is
a separate attribute there (`momentsynth.synthesis.report`,
`momentsynth.cli.report`, ...), so every module of the package that holds
the original object gets the wrapper, otherwise those calls would be
silently missed.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  Layers are named after the modules that
# do work; `measures` and `errors` only hold data types.
LAYER_FUNCTIONS = (
    ("momentsynth.lattice", "embed", "lattice.embed"),
    ("momentsynth.operators", "build_tuple", "operators.build_tuple"),
    ("momentsynth.dilation", "fourier_table", "dilation.fourier_table"),
    ("momentsynth.dilation", "min_eigenvalue", "dilation.min_eigenvalue"),
    ("momentsynth.dilation", "psd_check", "dilation.psd_check"),
    ("momentsynth.synthesis", "synthesize", "synthesis.synthesize"),
    ("momentsynth.synthesis", "cf_atoms_1d", "synthesis.cf_atoms_1d"),
    ("momentsynth.synthesis", "grid_nnls", "synthesis.grid_nnls"),
    ("momentsynth.synthesis", "refine", "synthesis.refine"),
    ("momentsynth.verify", "report", "verify.report"),
    ("momentsynth.verify", "measure_moments", "verify.measure_moments"),
    ("momentsynth.documents", "read_doc", "documents.read_doc"),
    ("momentsynth.documents", "problem_from_doc", "documents.problem_from_doc"),
    ("momentsynth.documents", "measure_from_doc", "documents.measure_from_doc"),
    ("momentsynth.cli", "_cmd_verify", "cli.verify"),
)


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent span index or -1, op id].  Calls are
    nested on one thread, so the innermost open span is the parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op: int = -1
        self._patched: list[tuple[object, str, object]] = []
        self.sites: set[str] = set()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op]
            self.spans.append(record)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                record[2] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Wrap every layer function in every package module that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "momentsynth" or name.startswith("momentsynth."))]
        for module_name, attr, span_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.span(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        self.sites.add(f"{module.__name__}.{key}")
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()


def summarize(spans: list[list], first: int = 0, scale=None) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Covers spans[first:], whose parents all lie in that range or are -1.
    Self time is a span's duration minus the durations of its children;
    children never overlap because the program runs on one thread.  Times
    of spans in op i are multiplied by scale[i] when `scale` is given.
    """
    window = spans[first:]
    child_time = [0.0] * len(window)
    for name, start, end, parent, _ in window:
        if parent >= 0:
            child_time[parent - first] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, op), children in zip(window, child_time):
        factor = scale[op] if scale is not None else 1.0
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += factor * (end - start)
        entry["self_s"] += factor * (end - start - children)
    return out
