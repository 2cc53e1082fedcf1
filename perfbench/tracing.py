"""In-memory spans around the public functions of the qnls modules.

`instrument` replaces every public function a qnls layer defines with a
wrapper that records one span (name, start, end, parent) per call, and
rebinds every module attribute that refers to the same function object, so
names imported with `from .quadrature import integrate_with_tail` are traced
too.  Nothing under `src/qnls` is edited; the rebinding lives only in the
process that calls `instrument`.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cli", "ibvp", "boundary", "fractional", "spectral", "bilinear",
          "quadrature", "dispersion")

# Names imported into another module: calls through these bindings must be
# traced like calls through the defining module.
IMPORTED_BINDINGS = ("bilinear.integrate_with_tail", "bilinear.panel_sums",
                     "bilinear.bourgain_norm", "boundary.rl_apply",
                     "boundary.bourgain_norm")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counted per call: span name -> (counter name, f(args, kwargs, result)).
WORK = {
    "boundary.forcing_field": (
        "points", lambda a, k, r: len(_arg(a, k, 1, "xs")) * len(_arg(a, k, 2, "ts"))),
    "ibvp.simulate": ("steps", lambda a, k, r: r[1].times.size - 1),
    "ibvp.contraction_iterate": ("iterations", lambda a, k, r: len(r.distances)),
    "quadrature.panel_sums": (
        "nodes", lambda a, k, r: (len(_arg(a, k, 1, "edges")) - 1) * _arg(a, k, 2, "order")),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None
    work: int = 0


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    # a work counter that raised; kept here so the program's result stands
    count_errors: list[str] = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self.stack, self.count_errors
        count = WORK.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span.work = count(args, kwargs, result)
                except Exception as exc:
                    errors.append(f"{name}: {exc!r}")
            return result

        traced.__wrapped_span__ = name
        return traced


def instrument(recorder: Recorder) -> dict[str, str]:
    """Wrap the public functions of every layer; return binding -> span name.

    Call after `qnls.cli` is imported, so every qnls module is loaded.
    """
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"qnls.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[id(obj)] = (obj, recorder.wrap(f"{layer}.{attr}", obj))
    bindings = {}
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("qnls.") or mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                bindings[f"{modname[len('qnls.'):]}.{attr}"] = hit[1].__wrapped_span__
    missing = [b for b in IMPORTED_BINDINGS if b not in bindings]
    if missing:
        raise RuntimeError(f"imported bindings not traced: {missing}")
    return bindings


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap; a recursive call is an ordinary child.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function calls, self time and work, plus per-layer self time."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        layer = s.name.split(".", 1)[0]
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + t
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + t
        if s.name in WORK:
            key = f"{s.name}.{WORK[s.name][0]}"
            out[key] = out.get(key, 0) + s.work
        if s.name == "bilinear.j_eval" and s.error == "QuadratureNonConvergent":
            out["bilinear.j_eval.fallbacks"] = out.get("bilinear.j_eval.fallbacks", 0) + 1
    return out


def root_time(spans: list[Span]) -> float:
    """Wall time covered by spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
