"""Spans around rdbalance's public calls, recorded from outside the library.

``Tracer`` wraps each call in ``TARGETS`` at every rdbalance module that
binds it (``rdbalance.solver.decompose`` and ``rdbalance.cli.decompose``
are the same function bound twice), and at the class for methods.  The
wrappers are installed only while a traced operation runs.  Spans stay in
memory as (name, start, end, parent span, operation id) and are written
out by ``write_spans`` after the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


def _snapshot_written(counts, args, kwargs, result):
    counts["solver.snapshot_bytes_written"] += os.path.getsize(
        kwargs.get("path", args[0] if args else None))


def _snapshot_read(counts, args, kwargs, result):
    spec = kwargs.get("spec", args[0] if args else None)
    if spec.csv_path is not None:
        counts["solver.snapshot_bytes_read"] += os.path.getsize(spec.csv_path)


def _rows(counts, args, kwargs, result):
    counts["diagnostics.rows"] += len(result.series.t)


def _conservation_laws(counts, args, kwargs, result):
    counts["network.conservation_laws"] += result.n_conserved


def _modes(counts, args, kwargs, result):
    counts["linearised.modes_examined"] += result.modes_examined


PACKAGE = "rdbalance"
# (module, qualified name, counter run on the call's result or None)
TARGETS = (
    ("solver", "Stepper.advance", None),
    ("solver", "simulate", _rows),
    ("solver", "write_snapshot_csv", _snapshot_written),
    ("solver", "build_initial", _snapshot_read),
    ("diagnostics", "relative_entropy", None),
    ("diagnostics", "weighted_norm", None),
    ("diagnostics", "entropy_dissipation", None),
    ("diagnostics", "DiagnosticsSeries.write_csv", None),
    ("diagnostics", "DiagnosticsSeries.read_csv", None),
    ("diagnostics", "fit_decay_rate", None),
    ("network", "decompose", _conservation_laws),
    ("network", "validate_network", None),
    ("equilibrium", "conserved_masses", None),
    ("equilibrium", "detailed_balance_equilibrium", None),
    ("linearised", "operator_spectral_gap", _modes),
    ("linearised", "weighted_spectrum", None),
    ("linearised", "linearised_matrix", None),
    ("parser", "parse_network", None),
    ("parser", "serialize_network", None),
    ("cli", "load_config", None),
    ("cli", "dispatch", None),
)
COUNTERS = ("solver.snapshot_bytes_written", "solver.snapshot_bytes_read",
            "diagnostics.rows", "network.conservation_laws",
            "linearised.modes_examined")


def span_names() -> list[str]:
    return [f"{module}.{qualname}" for module, qualname, _ in TARGETS]


class Tracer:
    """In-memory spans with per-name call counts and self time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op = None
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [span index, time covered by children]
        self._patches = self._plan()

    def _wrap(self, name, func, counter):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = open_[-1][0] if open_ else None
            spans.append([name, clock(), None, parent, self.op])
            open_.append([len(spans) - 1, 0.0])
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                index, children = open_.pop()
                span = spans[index]
                span[2] = end
                duration = end - span[1]
                self.calls[name] += 1
                self.self_s[name] += duration - children
                if open_:
                    open_[-1][1] += duration
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        patches = []
        for module_name, qualname, counter in TARGETS:
            name = f"{module_name}.{qualname}"
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in qualname:  # a method: patch the class once
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                patches.append((cls, attr, raw, wrapped))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original, wrapped))
        return patches

    def install(self, op) -> None:
        self.op = op
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.op = None

    def per_op(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Calls, self seconds and counters per traced operation."""
        metrics = {}
        for name in span_names():
            metrics[f"{name}.calls"] = (self.calls[name] / n_ops, "1/op")
            metrics[f"{name}.self_s"] = (self.self_s[name] / n_ops, "s/op")
        for name in COUNTERS:
            unit = "B/op" if "bytes" in name else "1/op"
            metrics[name] = (self.counts[name] / n_ops, unit)
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{'' if parent is None else parent}\t{op}\n")
