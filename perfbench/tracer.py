"""Spans around algentropy's public functions, recorded from outside.

``Tracer.install()`` replaces each listed function, in every algentropy
module that binds it (and ``ShiftGroup.closure`` on its class), by a
wrapper that records a span; ``uninstall()`` puts the originals back.
Nothing in the package itself changes.

Per function the tracer keeps a call count and inclusive seconds (a
recursive call inside an open span of the same function adds no time
again).  Per module it keeps self seconds: the time of its spans minus
the time of the spans of other modules opened inside them.  Three
counters read the results: numeric (non-exact) Mahler results, elements
returned by shift closures and stabilization steps in entropy reports.
Raw spans are held in memory up to ``SPAN_CAP`` and written at the end.
"""

import json
import sys
from time import perf_counter

from algentropy import models

# module -> traced public functions; "ShiftGroup.closure" is a method
TARGETS = {
    "intlinalg": ("hnf", "hnf_with_transform", "index_in", "lattice_intersect",
                  "snf_invariant_factors"),
    "abelian": ("canonicalize_presentation",),
    "inertia": ("inert_index", "strict_inert_index", "commensurable",
                "is_inertial_endomorphism"),
    "fully_inert": ("is_fully_inert",),
    "rational": ("charpoly_primitive", "lattice_index"),
    "polynomial": ("squarefree_decomposition", "gcd_primitive", "exact_div",
                   "rational_roots"),
    "mahler": ("mahler_measure", "kronecker_test", "cyclotomic_polynomial"),
    "models": ("ShiftGroup.closure", "shift_trajectory_order"),
    "entropy": ("h_alg_stabilized", "h_alg_yuzvinski", "intrinsic_entropy",
                "limit_free_h", "i_entropy"),
    "cli": ("run",),
}
COUNTERS = ("mahler.numeric_results", "models.closure.elements", "entropy.steps_used")
SPAN_CAP = 50_000


def span_name(module, func):
    return f"{module}.{func.rsplit('.', 1)[-1]}"


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, funcs in TARGETS.items():
        for func in funcs:
            name = span_name(module, func)
            out.append((f"{name}.calls", "count"))
            out.append((f"{name}.s", "s"))
        out.append((f"{module}.self_s", "s"))
    out.extend((c, "count") for c in COUNTERS)
    return out


def _count_result(name, result, counters):
    if name == "mahler.mahler_measure":
        if not result.exact:
            counters["mahler.numeric_results"] += 1
    elif name == "models.closure":
        counters["models.closure.elements"] += len(result)
    elif name.startswith("entropy."):
        counters["entropy.steps_used"] += result.steps_used


class Tracer:
    def __init__(self):
        self.calls = {}
        self.inclusive = {}
        self.self_s = {module: 0.0 for module in TARGETS}
        self.counters = {c: 0 for c in COUNTERS}
        self.spans = []
        self.dropped = 0
        self.op = 0
        self._stack = []  # open spans: [module, start, seconds in other modules, id]
        self._next_id = 0
        self._open = {}
        self._patches = []

    def _wrap(self, module, name, fn):
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        stack, open_count, spans = self._stack, self._open, self.spans
        counters = self.counters
        calls[name] = 0
        inclusive[name] = 0.0
        open_count[name] = 0

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][3] if stack else -1
            frame = [module, perf_counter(), 0.0, span_id]
            stack.append(frame)
            open_count[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_count[name] -= 1
                duration = end - frame[1]
                calls[name] += 1
                if not open_count[name]:
                    inclusive[name] += duration
                if stack and stack[-1][0] == module:
                    # the enclosing span of the same module accounts for this
                    # interval; pass up the time spent in other modules
                    stack[-1][2] += frame[2]
                else:
                    self_s[module] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((self.op, span_id, parent, name, frame[1], end))
                else:
                    self.dropped += 1
            _count_result(name, result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "algentropy" or k.startswith("algentropy.")]
        for module, funcs in TARGETS.items():
            home = sys.modules[f"algentropy.{module}"]
            for func in funcs:
                name = span_name(module, func)
                if func == "ShiftGroup.closure":
                    original = models.ShiftGroup.__dict__["closure"]
                    wrapper = self._wrap(module, name, original)
                    self._patches.append((models.ShiftGroup, "closure", original))
                    setattr(models.ShiftGroup, "closure", wrapper)
                    continue
                original = getattr(home, func)
                if original.__module__ != home.__name__:
                    raise RuntimeError(f"{name} is not defined in {home.__name__}")
                wrapper = self._wrap(module, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self):
        out = {}
        for module, funcs in TARGETS.items():
            for func in funcs:
                name = span_name(module, func)
                out[f"{name}.calls"] = self.calls.get(name, 0)
                out[f"{name}.s"] = self.inclusive.get(name, 0.0)
            out[f"{module}.self_s"] = self.self_s[module]
        out.update(self.counters)
        return out

    def write(self, path):
        """Spans as JSON lines: op number, span id, parent id (-1 at the
        top), name, start and end in perf_counter seconds."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
