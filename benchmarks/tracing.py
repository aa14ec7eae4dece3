"""Spans and counts at the boundaries of the rmx modules.

A ``Tracer`` replaces every public function of each module with a wrapper
that records a span (name, parent, start, end) and a call count, then puts
the originals back.  The wrappers live only in the benchmark's process; no
file under ``src/rmx`` changes.  Because each module looks its own functions
up in its module dictionary, calls from inside a module are traced as well
as calls from other modules.  Methods of classes (``CartanData.neighbors``,
``Monomial.__mul__`` and so on) are not wrapped, so their time counts as
self time of the calling layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = (
    "root_system",
    "quantum_cartan",
    "ar_quiver",
    "denominators",
    "schur_weyl",
    "rep_oracle",
    "linalg",
    "cli",
    "selfcheck",
)

# linalg entry points that run an elimination; in_column_space is two rank
# calls, which are counted where they happen
ELIMINATIONS = ("rank", "nullspace", "solve")

# the span log is bounded so that a traced pass keeps a small footprint;
# counts and self times cover every call regardless
SPAN_CAP = 50_000


def public_functions(module):
    """(name, function) for the functions a module defines and exports."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    ]


class Tracer:
    """Wraps module functions in spans while installed; holds the results."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module
        self.calls: Counter = Counter()  # "layer.function" -> calls
        self.self_s: defaultdict = defaultdict(float)  # "layer.function" -> s
        self.cells = 0
        self.max_rows = 0
        self.spans: list = []  # (name, parent index or -1, start, end)
        self.dropped = 0
        self._stack: list = []  # [span index, seconds spent in child spans]
        self._saved: list = []

    def install(self) -> None:
        for layer, module in self.modules.items():
            for name, fn in public_functions(module):
                shape = None
                if layer == "linalg" and name in ELIMINATIONS:
                    shape = inspect.signature(fn)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn, shape))

    def uninstall(self) -> None:
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved.clear()

    def _count_cells(self, shape, args, kwargs) -> None:
        bound = shape.bind(*args, **kwargs).arguments
        mat = bound["mat"]
        ncols = bound.get("ncols")
        if ncols is None:
            ncols = len(mat[0]) if mat else 0
        self.cells += len(mat) * ncols
        self.max_rows = max(self.max_rows, len(mat))

    def _wrap(self, key: str, fn, shape):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if shape is not None:
                self._count_cells(shape, args, kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            if index < SPAN_CAP:
                spans.append(None)
            else:
                index = -1
                self.dropped += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                calls[key] += 1
                self_s[key] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if index >= 0:
                    spans[index] = (key, parent, start, end)

        return span

    def layer_totals(self) -> dict:
        """Per-layer call counts and self seconds."""
        out = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.calls"] = sum(
                n for k, n in self.calls.items() if k.startswith(prefix))
            out[f"{layer}.self_s"] = sum(
                s for k, s in self.self_s.items() if k.startswith(prefix))
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
