"""Layer tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces every public function of every `chargraph`
module with a timing wrapper, in every module namespace that holds it (so
`chargraph.rates.conditional_graph_entropy`, the name `rates` calls, is
wrapped as well as `chargraph.solvers.conditional_graph_entropy`).
`Tracer.uninstall()` puts the original objects back. Nothing is written
into the package's source files, and an untraced run never installs.

A span is one wrapped call. Its self time is its duration minus the part
of it covered by its child spans. Spans nest per thread; a span opened on
a worker thread with nothing open on that thread is a child of the span
open on the item's own thread (the CLI's thread pool), and such children
are merged as a union because they overlap each other.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import threading
import time
import types

# Layer of a wrapped function, keyed by "<module>.<function>" below the
# package; a function not listed falls into "<module>.other".
LAYER_OF = {
    "solvers.conditional_graph_entropy": "solvers.cond",
    "solvers.graph_entropy": "solvers.plain",
    "solvers.chromatic_entropy": "solvers.chromatic",
    "graphs.enumerate_mis": "graphs.mis",
    "graphs.build_char_graph": "graphs.build",
    "graphs.make_graph": "graphs.build",
    "graphs.greedy_coloring": "graphs.coloring",
    "graphs.exact_min_coloring": "graphs.coloring",
    "rates.min_coloring": "graphs.coloring",
    "graphs.or_power": "graphs.or_power",
    "rates.chain_rate": "rates.chain",
    "functions.evaluate_demand": "functions.evaluate",
    "simulator.build_encoders": "simulator.encoders",
    "simulator.build_decode_table": "simulator.decode_table",
    "simulator.run_simulation": "simulator.mc",
}
for _name in (
    "prop1_rate", "prop2_rate", "prop3_rate", "slepian_wolf_rate",
    "theorem1_sum_rate", "scenario1_rates", "scenario2_table2_rates",
    "scenario2_diniz_rates", "scenario3_rates", "multilinear_rates",
):
    LAYER_OF[f"rates.{_name}"] = "rates.closed_form"
for _name in (
    "iid_bernoulli_joint", "product_joint", "joint_from_array",
    "uniform_joint", "crossover_joint", "diniz_pair_joint",
):
    LAYER_OF[f"probability.{_name}"] = "probability.joint"
# whole modules that form one layer
MODULE_LAYERS = {"topology": "topology", "cli": "cli", "probability": "probability.closed_form"}

SOLVER_LAYERS = ("solvers.cond", "solvers.plain")
MAX_KEPT_SPANS = 100_000  # bounds the spans file (about 18 MB)


def layer_of(qualname: str) -> str:
    if qualname in LAYER_OF:
        return LAYER_OF[qualname]
    module = qualname.split(".", 1)[0]
    return MODULE_LAYERS.get(module, f"{module}.other")


def _result_counts(layer: str, result) -> dict[str, float]:
    """Work counts read off a layer's return value."""
    if layer in SOLVER_LAYERS:
        return {"iters": result.iterations, "unconverged": int(not result.converged)}
    if layer == "graphs.mis":
        return {"sets": result.count}
    if layer in ("graphs.build", "graphs.or_power"):
        out = {"edges": len(result.edges)}
        if layer == "graphs.build":
            out["vertices"] = result.n
        return out
    if layer == "rates.chain":
        return {"orderings": result.metadata.get("orderings_tried", 0)}
    if layer == "simulator.decode_table":
        return {"entries": len(result.table)}
    if layer == "simulator.mc":
        return {"trials": result.trials, "decode_errors": result.errors}
    return {}


class _Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "thread",
                 "same_covered", "cross", "under_chain")

    def __init__(self, sid, name, layer, parent, thread, under_chain):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = self.end = 0.0
        self.parent = parent
        self.thread = thread
        self.same_covered = 0.0  # children on this span's thread run one after another
        self.cross = []          # (start, end) of children on other threads
        self.under_chain = under_chain


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Collects spans between `begin_item` and `end_item`.

    Per-layer totals (calls, self_s, and the counts of `_result_counts`) are
    kept for the current item; `end_item` returns them. While `keep_spans`
    is set, an item's finished spans are kept for export, whole items only:
    an item that would take the kept spans past MAX_KEPT_SPANS is dropped
    with all of its spans, so every kept item is a complete tree.
    """

    def __init__(self):
        self.kept: list[dict] = []
        self.dropped = 0  # spans of dropped items
        self.items_kept = 0
        self.items_dropped = 0
        self.keep_spans = False
        self._keep_item = False
        self._item_first = 0  # index in `kept` of the current item's first span
        self._local = threading.local()
        self._lock = threading.Lock()
        self._item = None
        self._item_stack = None
        self._ids = itertools.count()  # next() on a count is atomic in CPython
        self._layers: dict[str, dict[str, float]] = {}
        self._originals: list[tuple[types.ModuleType, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Wrap every public function of the chargraph modules; returns the
        number of module attributes replaced."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("chargraph")
        modules = [pkg] + [
            importlib.import_module(f"chargraph.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("chargraph."):
                    continue
                qualname = f"{home[len('chargraph.'):]}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, qualname)
                self._originals.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        return len(self._originals)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._originals):
            setattr(module, attr, obj)
        self._originals.clear()

    def _wrap(self, fn, qualname: str):
        layer = layer_of(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._item is None:
                return fn(*args, **kwargs)
            span = tracer._open(qualname, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span, result)

        return wrapper

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> _Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._item_stack and self._item_stack:
            parent = self._item_stack[-1]  # worker thread: caused by the item thread
        else:
            parent = None
        sid = next(self._ids)
        under_chain = parent is not None and (parent.under_chain or parent.layer == "rates.chain")
        span = _Span(sid, name, layer, parent, threading.get_ident(), under_chain)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: _Span, result) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        duration = span.end - span.start
        self_s = duration - span.same_covered
        if span.cross:
            self_s -= _union_length(span.cross)
        parent = span.parent
        if parent is not None:
            if parent.thread == span.thread:
                parent.same_covered += duration
            else:
                parent.cross.append((span.start, span.end))
        counts = _result_counts(span.layer, result) if result is not None else {}
        with self._lock:
            agg = self._layers.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += max(self_s, 0.0)
            for key, value in counts.items():
                agg[key] = agg.get(key, 0) + value
            if span.layer in SOLVER_LAYERS and span.under_chain:
                chain = self._layers.setdefault("rates.chain", {"calls": 0, "self_s": 0.0})
                chain["stage_solves"] = chain.get("stage_solves", 0) + 1
            if self._keep_item:
                if len(self.kept) < MAX_KEPT_SPANS:
                    self.kept.append({
                        "id": span.sid,
                        "name": span.name,
                        "layer": span.layer,
                        "start": span.start,
                        "end": span.end,
                        "parent": parent.sid if parent is not None else None,
                        "item": self._item,
                        "thread": span.thread,
                    })
                else:
                    self._drop_item()
            elif self.keep_spans:
                self.dropped += 1

    def _drop_item(self) -> None:
        """Stop keeping the current item and discard the spans kept of it."""
        self.dropped += len(self.kept) - self._item_first + 1
        del self.kept[self._item_first:]
        self._keep_item = False
        self.items_dropped += 1

    # -- items --------------------------------------------------------------

    def begin_item(self, item_id: str) -> None:
        self._layers = {}
        self._item_stack = self._stack()
        self._item_first = len(self.kept)
        self._keep_item = self.keep_spans and len(self.kept) < MAX_KEPT_SPANS
        if self.keep_spans and not self._keep_item:
            self.items_dropped += 1
        self._item = item_id

    def end_item(self) -> dict[str, dict[str, float]]:
        if self._keep_item:
            self.items_kept += 1
        self._keep_item = False
        self._item = None
        self._item_stack = None
        layers, self._layers = self._layers, {}
        return layers
