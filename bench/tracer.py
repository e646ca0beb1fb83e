"""Outside-in tracing of ecq: timing and counting wrappers installed from the
benchmark, never from the library.

Every public module-level function of a layer module is wrapped once, and the
wrapper is written into every ecq module that holds a reference to the
function: the defining module, each module that imported the name, and the
package namespace. That is what makes a call like ``descent -> rational_roots``
visible even though ``descent`` bound the name at import time. Spans stay in
memory; ``write`` dumps them when the run ends.

A span is ``(name, start, end, parent, query, extra)``. ``parent`` is the index
of the enclosing span or -1; ``extra`` is a small annotation for the few
functions whose per-layer metrics need an argument or a result size.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from types import FunctionType

LAYERS = (
    "arith",
    "polynomials",
    "curves",
    "group",
    "heights",
    "ec_heights",
    "descent",
    "two_descent",
    "cli",
)

_MARK = "__bench_wrapped__"

# Prefix of the report line bench/cli_shim.py writes on stderr.
SHIM_MARK = "#bench-trace "


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# name -> f(args, kwargs, result) giving the span's extra annotation
_ANNOTATE = {
    "ec_heights.enumerate_points": lambda a, k, r: [float(_arg(a, k, 1, "log_bound")), len(r)],
    "descent.halve_point": lambda a, k, r: len(r),
    "descent.descend": lambda a, k, r: len(r.steps),
    "group.mul": lambda a, k, r: _arg(a, k, 1, "n"),
}


def ecq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "ecq" or name.startswith("ecq.")]


def public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if isinstance(obj, FunctionType) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def installed_wrappers() -> list[str]:
    """Every "module.attribute" of a loaded ecq module that is a bench wrapper."""
    return [
        f"{m.__name__}.{attr}"
        for m in ecq_modules()
        for attr, obj in vars(m).items()
        if hasattr(obj, _MARK)
    ]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.query = -1
        self.recording = True
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"ecq.{layer}")
            if module is None:
                continue
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in ecq_modules():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        annotate = _ANNOTATE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    extra = annotate(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.query, extra)

        setattr(wrapper, _MARK, True)
        return wrapper

    def merge(self, spans) -> None:
        """Append spans recorded by another process, re-basing parent indices."""
        base = len(self.spans)
        for name, start, end, parent, _query, extra in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, self.query, extra))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds, self seconds, and the extras list.

    Self time is a span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _query, _extra in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _parent, _query, extra) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "extras": []})
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child[i]
        if extra is not None:
            entry["extras"].append((extra, end - start))
    return out
