"""Tracing from outside the package.

``Tracer.install`` rebinds, in every ``fibsurf`` module and in the package
namespace, each attribute that holds a public function to a wrapper that
records a span (name, op, parent, start, end).  Each module's copy is
rebound because the modules import these names from each other directly
(``fibsurf.adapted`` has its own ``solve_integer``).  The arithmetic methods
of ``IntMatrix`` and ``PeriodData.__init__`` are spanned too;
``IntMatrix.__init__`` runs tens of thousands of times per pass, so it is
only counted.  Element accessors (``__getitem__``, ``row``, ``column``, ...)
are left alone: a span per element read would swamp the numbers.

Spans stay in memory until the pass ends; ``write`` dumps them and
``layer_table`` turns them into per-function counts and self times.
Self time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import cProfile
import functools
import io
import json
import pstats
import time
import types
from collections import Counter, defaultdict

LAYERS = ("intlinalg", "lattice_core", "adapted", "periods", "modular", "invariants", "serialize", "cli")
INTMATRIX_SPANNED = {
    "__mul__": "mul",
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "scale": "scale",
    "transpose": "transpose",
    "power": "power",
    "det": "det",
    "submatrix": "submatrix",
}


def _matrix_bits(m) -> int:
    return max((abs(v).bit_length() for row in m.entries() for v in row), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.smith_inputs: set = set()
        self.smith_max_bits = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)``
        runs once the span is closed."""
        nid = self._name_id(name)
        spans, stack, errors = self.spans, self.stack, self.errors
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, self.op, parent, start, end)
            if after is not None:
                after(args, result)
            return result

        wrapper.__traced__ = True
        return wrapper

    def root(self, name: str, fn):
        """Span for one whole operation; spans opened inside it carry its
        operation number."""
        wrapped = self.span(name, fn)

        def run(x):
            self.op += 1
            return wrapped(x)

        return run

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_smith(self, args, result) -> None:
        m = args[0]
        self.smith_inputs.add((m.rows, m.cols, m.entries()))
        bits = max(_matrix_bits(result.s), _matrix_bits(result.t),
                   _matrix_bits(result.s_inv), _matrix_bits(result.t_inv))
        self.smith_max_bits = max(self.smith_max_bits, bits)

    def install(self) -> None:
        import fibsurf
        from fibsurf import intlinalg, periods

        import fibsurf.cli  # not imported by the package itself

        wrappers: dict = {}
        modules = [fibsurf] + [getattr(fibsurf, layer) for layer in LAYERS]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(val, types.FunctionType):
                    continue
                if getattr(val, "__traced__", False) or not val.__module__.startswith("fibsurf."):
                    continue
                if val not in wrappers:
                    layer = val.__module__.split(".", 1)[1]
                    after = self._after_smith if val.__name__ == "smith_normal_form" else None
                    wrappers[val] = self.span(f"{layer}.{val.__name__}", val, after)
                setattr(mod, attr, wrappers[val])

        cls = intlinalg.IntMatrix
        for meth, short in INTMATRIX_SPANNED.items():
            setattr(cls, meth, self.span(f"intlinalg.IntMatrix.{short}", vars(cls)[meth]))
        cls.__init__ = self.counted("intlinalg.IntMatrix.init", vars(cls)["__init__"])
        pd = periods.PeriodData
        pd.__init__ = self.span("periods.PeriodData.init", vars(pd)["__init__"])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "op", "parent", "start_ns", "end_ns"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
            )

    def layer_table(self) -> dict:
        """name -> {calls, self_ns, errors} over every recorded span, plus
        the count-only entries."""
        child_ns = [0] * len(self.spans)
        for nid, _op, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for idx, (nid, _op, _parent, start, end) in enumerate(self.spans):
            calls[nid] += 1
            self_ns[nid] += end - start - child_ns[idx]
        table = {}
        for nid, name in enumerate(self.names):
            table[name] = {"calls": calls[nid], "self_ns": self_ns[nid], "errors": self.errors[name]}
        for name, n in self.counts.items():
            table[name] = {"calls": n, "self_ns": None, "errors": 0}
        return table


def profile_by_module(run, top: int = 15) -> dict:
    """Run ``run()`` under cProfile; return the top functions by internal
    time and the internal time summed per fibsurf module."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    stats = pstats.Stats(prof, stream=io.StringIO())
    by_module: dict = defaultdict(float)
    rows = []
    for (filename, line, func), (_cc, ncalls, tottime, cumtime, _callers) in stats.stats.items():
        module = _module_of(filename)
        by_module[module] += tottime
        rows.append((tottime, ncalls, cumtime, f"{module}:{func}:{line}"))
    rows.sort(reverse=True)
    return {
        "by_module_s": dict(sorted(by_module.items(), key=lambda kv: -kv[1])),
        "top": [
            {"function": name, "calls": n, "tottime_s": tt, "cumtime_s": ct}
            for tt, n, ct, name in rows[:top]
        ],
    }


def _module_of(filename: str) -> str:
    parts = filename.replace("\\", "/").split("/")
    if len(parts) >= 2 and parts[-2] == "fibsurf":
        return "fibsurf." + parts[-1].removesuffix(".py")
    if len(parts) >= 2 and parts[-2] == "perfbench":
        return "benchmark"
    if filename.startswith("<") or filename == "~":
        return "builtins"
    return "stdlib/other"
