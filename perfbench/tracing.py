"""Spans and counters around the library's public functions, from outside.

The tracer re-binds each traced function's name in every ``equigraph``
module that holds it (``from .spectra import energy`` leaves a second
binding in the importer), and replaces the ``Surd``, ``ExactValue`` and
``Spectrum`` constructors on their classes.  Nothing under ``src/`` is
edited; ``uninstall`` restores every binding.

A span is ``[name, start, end, parent, item, error]``; spans stay in
memory and are written out once the run ends.  A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, function) pairs timed as spans
SPAN_FUNCTIONS = [
    ("srg", "enumerate_equien"),
    ("srg", "equien_condition"),
    ("srg", "classify"),
    ("srg", "eigen_data"),
    ("srg", "energy_closed"),
    ("exact", "squarefree_decompose"),
    ("spectra", "discrepancy"),
    ("spectra", "complement_spectrum"),
    ("spectra", "energy"),
    ("spectra", "check_equienergetic"),
    ("rings", "unitary_spectrum"),
    ("jacobi", "jacobi_eigenvalues"),
    ("graphs", "numeric_spectrum"),
    ("graphs", "read_graph"),
]
# (module, class, method, span name): constructors timed as spans
SPAN_METHODS = [("spectra", "Spectrum", "__init__", "spectra.Spectrum.new")]
# (module, class, method, counter name): called too often to time, only counted
COUNTED_METHODS = [
    ("exact", "Surd", "__init__", "exact.Surd.new.calls"),
    ("exact", "Surd", "compare", "exact.Surd.compare.calls"),
    ("exact", "ExactValue", "__init__", "exact.ExactValue.new.calls"),
]
MODULES = ("cli", "srg", "exact", "spectra", "rings", "jacobi", "graphs")


def _result_len(args, result) -> int:
    return len(result)


def _matrix_n3(args, result) -> int:
    return len(args[0]) ** 3


# (module, function) -> (counter name, amount added per call)
TALLIED_FUNCTIONS = {
    # scan survivors; the scan's time stays in enumerate_equien's self time
    ("srg", "_equien_scan"): ("srg.candidates", _result_len),
    ("srg", "enumerate_equien"): ("srg.rows", _result_len),
    ("jacobi", "jacobi_eigenvalues"): ("jacobi.work_n3", _matrix_n3),
}


class Tracer:
    def __init__(self, package: str = "equigraph"):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, ""]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def tally(self, name: str, fn, amount):
        """``fn`` adding ``amount(args, result)`` to counter ``name`` per call."""
        counts = self.counts

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += amount(args, result)
            return result

        return tallied

    # -- installation ---------------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]

    def _rebind(self, original, replacement) -> None:
        """Point every module-level binding of ``original`` at ``replacement``."""
        found = False
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no {self.package} module")

    def _replace_method(self, cls, method: str, replacement) -> None:
        self._undo.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, replacement)

    def install(self) -> None:
        mod = lambda name: sys.modules[f"{self.package}.{name}"]
        for module, func in dict.fromkeys(SPAN_FUNCTIONS + list(TALLIED_FUNCTIONS)):
            original = wrapped = getattr(mod(module), func)
            if (module, func) in TALLIED_FUNCTIONS:
                counter, amount = TALLIED_FUNCTIONS[module, func]
                wrapped = self.tally(counter, wrapped, amount)
            if (module, func) in SPAN_FUNCTIONS:
                wrapped = self.span(f"{module}.{func}", wrapped)
            self._rebind(original, wrapped)
        for module, cls_name, method, name in SPAN_METHODS:
            cls = getattr(mod(module), cls_name)
            self._replace_method(cls, method, self.span(name, cls.__dict__[method]))
        for module, cls_name, method, name in COUNTED_METHODS:
            cls = getattr(mod(module), cls_name)
            self._replace_method(cls, method, self.counter(name, cls.__dict__[method]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,item,error\n")
            for i, (name, start, end, parent, item, error) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{item},{error}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans, counts) -> dict[str, float]:
    """Per-name calls, inclusive seconds (outermost spans of that name only,
    so recursion is not counted twice) and self seconds; per-module self
    seconds and their share of the root spans' time; plus every counter."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    root_time = 0.0
    for i, (name, start, end, parent, _item, error) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        out[f"layer.{name.split('.', 1)[0]}.self_s"] += selfs[i]
        if error:
            out[f"{name}.raised.{error}"] += 1
        if parent < 0:
            root_time += end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] += end - start
    out.update(counts)
    out["trace.root_s"] = root_time
    for module in MODULES:
        out[f"layer.{module}.share"] = (
            out[f"layer.{module}.self_s"] / root_time if root_time else 0.0)
    return dict(out)
