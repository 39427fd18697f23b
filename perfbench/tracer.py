"""Span tracing of threshold_lab from outside the package.

``Tracer.install`` wraps the public entry points listed in ``TRACED`` on
the defining module and on every threshold_lab module that imported the
name, and ``uninstall`` puts the originals back. Each span records its
parent span and the request it belongs to. Self time is the span's
duration minus the time its child spans cover. The per-name totals are
updated as spans close; the raw spans are kept in memory, up to a cap, and
written out once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, metric name). An attribute "Graph.x" is a method.
TRACED = [
    ("formats", "parse_graph6", "formats.parse_graph6"),
    ("formats", "write_graph6", "formats.write_graph6"),
    ("graphs", "Graph.__post_init__", "graphs.Graph.validate"),
    ("graphs", "Graph.induced", "graphs.induced"),
    ("exact", "canonical_form", "exact.canonical_form"),
    ("exact", "chromatic_number", "exact.chromatic_number"),
    ("exact", "colouring_with", "exact.colouring_with"),
    ("exact", "two_density", "exact.two_density"),
    ("atlas", "atlas_level", "atlas.atlas_level"),
    ("classify", "is_cloud_forest", "classify.is_cloud_forest"),
    ("classify", "is_thundercloud_forest", "classify.is_thundercloud_forest"),
    ("classify", "is_near_acyclic", "classify.is_near_acyclic"),
    ("classify", "is_r_near_acyclic", "classify.is_r_near_acyclic"),
    ("classify", "has_forest_in_decomposition_family",
     "classify.has_forest_in_decomposition_family"),
    ("classify", "decomposition_family", "classify.decomposition_family"),
    ("thresholds", "chromatic_threshold", "thresholds.chromatic_threshold"),
    ("thresholds", "chromatic_threshold_star", "thresholds.chromatic_threshold_star"),
    ("thresholds", "regime_table", "thresholds.regime_table"),
    ("thresholds", "regime_table_star", "thresholds.regime_table_star"),
    ("thresholds", "quotients_with_partitions", "thresholds.quotients_with_partitions"),
    ("harness", "sample_gnp", "harness.sample_gnp"),
    ("harness", "embed_template", "harness.embed_template"),
    ("harness", "run_template_experiment", "harness.run_template_experiment"),
    ("cli", "main", "cli.main"),
]

# run_template_experiment hands its budget argument to every trial, and None
# gives each trial a fresh budget; substituting one Budget() would make the
# trials share it, so its budget is left alone and it reports no nodes.
_PASS_THROUGH = {"harness.run_template_experiment"}

PACKAGE = "threshold_lab"
SPAN_CAP = 20_000  # raw spans kept in memory; totals count every span


class Tracer:
    """Collects spans while ``active``; inactive wrappers only forward."""

    def __init__(self):
        self.names = [metric for _, _, metric in TRACED]
        self.index = {name: i for i, name in enumerate(self.names)}
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.nodes = [0] * k
        self.items = [0] * k  # yields of a generator, len() of atlas_level's result
        self.has_budget = [False] * k
        self.parent_child = Counter()  # (parent index or -1, child index) -> spans
        self.chromatic_inputs: set[int] = set()
        self.threshold_inputs: set[tuple] = set()
        self.stack: list[list] = []  # frames: [child seconds, name index, span id]
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.next_span = 0
        self.request = 0
        self.active = False
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        budget_cls = importlib.import_module(f"{PACKAGE}.errors").Budget
        for module_name, attr, metric in TRACED:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            idx = self.index[metric]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, idx, None))
                continue
            orig = getattr(module, attr)
            params = list(inspect.signature(orig).parameters)
            budget_pos = None
            if "budget" in params and metric not in _PASS_THROUGH:
                budget_pos = params.index("budget")
                self.has_budget[idx] = True
            if inspect.isgeneratorfunction(orig):
                wrapper = self._wrap_generator(orig, idx, budget_pos, budget_cls)
            else:
                wrapper = self._wrap(orig, idx, budget_pos, budget_cls)
            for name, mod in list(sys.modules.items()):
                if (name == PACKAGE or name.startswith(PACKAGE + ".")) \
                        and getattr(mod, attr, None) is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- wrappers ------------------------------------------------------------

    @staticmethod
    def _with_budget(args, kwargs, pos, budget_cls):
        """Make the budget argument an explicit Budget so Budget.used can be
        read. ``Budget(None)`` and ``Budget(limit)`` are what ``as_budget``
        builds from None and from an int, so limits and answers do not
        change."""
        budget = args[pos] if len(args) > pos else kwargs.get("budget")
        if budget is None or isinstance(budget, int):
            budget = budget_cls(budget)
            if len(args) > pos:
                args = args[:pos] + (budget,) + args[pos + 1:]
            else:
                kwargs = {**kwargs, "budget": budget}
        return budget, args, kwargs

    def _input_recorder(self, idx: int):
        """What to remember about a call's graph argument, for the
        distinct-input ratios; None for the functions without one."""
        name = self.names[idx]
        if name == "exact.chromatic_number":
            return lambda g: self.chromatic_inputs.add(hash((g.n, g.adj)))
        if name == "thresholds.chromatic_threshold":
            return lambda g: self.threshold_inputs.add((g.n, g.adj))
        return None

    def _wrap(self, fn, idx, budget_pos, budget_cls=None):
        tracer = self
        counts_items = self.names[idx] == "atlas.atlas_level"
        record_input = self._input_recorder(idx)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            budget = None
            if budget_pos is not None:
                budget, args, kwargs = tracer._with_budget(args, kwargs, budget_pos, budget_cls)
                used0 = budget.used
            if record_input is not None:
                record_input(args[0])
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = tracer.next_span
            tracer.next_span = span + 1
            frame = [0.0, idx, span]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                nodes = budget.used - used0 if budget is not None else 0
                if counts_items and result is not None:
                    tracer.items[idx] += len(result)
                tracer._close(idx, span, parent, t0, t1, t1 - t0 - frame[0], nodes)
                if parent is not None:
                    parent[0] += t1 - t0

        return wrapper

    def _wrap_generator(self, fn, idx, budget_pos, budget_cls):
        """The span covers the generator body only while it runs: from each
        resume to the next yield. Time the consumer spends between items
        belongs to the consumer."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            budget = None
            if budget_pos is not None:
                budget, args, kwargs = tracer._with_budget(args, kwargs, budget_pos, budget_cls)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = tracer.next_span
            tracer.next_span = span + 1
            inner = fn(*args, **kwargs)
            first = last = None
            busy = child = 0.0
            nodes = 0
            try:
                while True:
                    frame = [0.0, idx, span]
                    stack.append(frame)
                    used0 = budget.used if budget is not None else 0
                    t0 = perf_counter()
                    if first is None:
                        first = t0
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        stack.pop()
                        busy += last - t0
                        child += frame[0]
                        if budget is not None:
                            nodes += budget.used - used0
                        if stack:
                            stack[-1][0] += last - t0
                    tracer.items[idx] += 1
                    yield item
            finally:
                inner.close()
                if first is not None:
                    tracer._close(idx, span, parent, first, last, busy - child, nodes)

        return wrapper

    def _close(self, idx, span, parent, t0, t1, self_s, nodes) -> None:
        self.calls[idx] += 1
        self.self_s[idx] += self_s
        self.nodes[idx] += nodes
        parent_idx = parent[1] if parent is not None else -1
        self.parent_child[(parent_idx, idx)] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span, parent[2] if parent is not None else None,
                               self.request, idx, t0, t1, self_s, nodes))
        else:
            self.dropped_spans += 1

    # -- results -------------------------------------------------------------

    def child_calls(self, parent: str, child: str) -> int:
        return self.parent_child[(self.index[parent], self.index[child])]

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in the order the spans closed."""
        with open(path, "w") as fh:
            for span, parent, request, idx, t0, t1, self_s, nodes in self.spans:
                fh.write(json.dumps({
                    "span": span, "parent": parent, "request": request,
                    "name": self.names[idx], "start": t0, "end": t1,
                    "self_s": self_s, "nodes": nodes,
                }) + "\n")
