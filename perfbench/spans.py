"""Spans and counts for the traced run, recorded from outside the program.

The benchmark wraps calls to the package's public functions: each call
becomes a span (name, start, end, parent span, item id) kept in memory.
Counts (nodes, branches, steps, valuations) are read off the returned
objects by walking them here.  Inner calls such as nd.analyze inside
nd.normalize are reached by swapping the module attribute the caller
looks up for a wrapper, for the length of the traced pass only.
"""

import contextlib
import gc
import time
from collections import Counter

# Per-layer metrics and their units; README.md says what each is a mean over.
PER_LAYER = (
    ("syntax.parse_s", "s"),
    ("syntax.parse_nodes", "count"),
    ("syntax.translate_s", "s"),
    ("syntax.translate_nodes", "count"),
    ("tableau.complete_s", "s"),
    ("tableau.nodes", "count"),
    ("tableau.branches", "count"),
    ("tableau.closed_before_open", "count"),
    ("tableau.extract_s", "s"),
    ("semantics.countermodel_s", "s"),
    ("semantics.consequence_s", "s"),
    ("semantics.valuations", "count"),
    ("nd.from_json_s", "s"),
    ("nd.normalize_s", "s"),
    ("nd.steps", "count"),
    ("nd.analyze_s", "s"),
    ("nd.proof_nodes_in", "count"),
    ("nd.proof_nodes_out", "count"),
    ("nd.to_json_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, item id]
        self.stack = []
        self.item = None
        self.totals = Counter()  # summed counts
        self.calls = Counter()  # denominators
        self._gc_start = None
        self.gc_spans = []  # (start, end) of each collection

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None,
                  self.stack[-1] if self.stack else None, self.item]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def count(self, name, value, calls=1):
        self.totals[name] += value
        self.calls[name] += calls

    def seconds(self, name):
        """Drift-corrected total time of all spans with this name."""
        return sum(self.clock.correct(start, end)
                   for n, start, end, _, _ in self.spans if n == name)

    def span_calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def mean_seconds(self, name, per=None):
        calls = self.span_calls(per or name)
        return self.seconds(name) / calls if calls else 0.0

    def mean_count(self, name):
        calls = self.calls[name]
        return self.totals[name] / calls if calls else 0.0

    @contextlib.contextmanager
    def collecting(self):
        """Time every garbage collection while the block runs."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info):
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            self.gc_spans.append((self._gc_start, now))
            self._gc_start = None

    def gc_seconds(self):
        return sum(self.clock.correct(start, end) for start, end in self.gc_spans)


@contextlib.contextmanager
def patched(*triples):
    """Temporarily replace module attributes: (module, name, new value)."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in triples]
    for obj, name, value in triples:
        setattr(obj, name, value)
    try:
        yield
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)


def formula_nodes(f):
    """Node count of a program formula, walked as a tree."""
    n = 0
    stack = [f]
    while stack:
        g = stack.pop()
        n += 1
        for attr in ("body", "left", "right"):
            child = getattr(g, attr, None)
            if child is not None:
                stack.append(child)
    return n


def tableau_nodes(tableau):
    n = 0
    stack = [tableau.root]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def proof_nodes(proof):
    n = 0
    stack = [proof]
    while stack:
        t = stack.pop()
        n += 1
        stack.extend(getattr(t, "premises", ()))
    return n


def traced_parse(tracer, parse):
    """A stand-in for parse with a span and a node count."""
    def traced(text):
        with tracer.span("syntax.parse"):
            f = parse(text)
        tracer.count("syntax.parse_nodes", formula_nodes(f))
        return f
    return traced


def traced_decide(tracer, tml, f, system, derived=False, rng=None):
    """decide() spelled out through its public parts, with a span around
    each: translate, complete with stop_on_open, extract_model."""
    with tracer.span("syntax.translate"):
        g = tml.translate(f, system)
    tracer.count("syntax.translate_nodes", formula_nodes(g))
    with tracer.span("tableau.complete"):
        tableau = tml.complete([tml.F(g)], system, derived=derived, rng=rng,
                               stop_on_open=True)
    tracer.count("tableau.nodes", tableau_nodes(tableau))
    tracer.count("tableau.branches", len(tableau.branches))
    if tableau.closed:
        return tml.Proved(tableau)
    branch = tableau.open_branches()[0]
    tracer.count("tableau.closed_before_open", sum(b.closed for b in tableau.branches))
    with tracer.span("tableau.extract"):
        model = tml.extract_model(branch, names=tml.variables(g))
    return tml.Refuted(model, branch, tableau)


def counting_valuations(tracer, valuations):
    """A stand-in for semantics.valuations that counts what it yields."""
    def counted(names):
        n = 0
        try:
            for h in valuations(names):
                n += 1
                yield h
        finally:
            tracer.count("semantics.valuations", n, calls=0)
    return counted


def layer_metrics(tracer, ops, overhead_pct, cli=None):
    """Every per-layer metric, as {name: {"value", "unit"}}."""
    values = {
        "syntax.parse_s": tracer.mean_seconds("syntax.parse"),
        "syntax.parse_nodes": tracer.mean_count("syntax.parse_nodes"),
        "syntax.translate_s": tracer.mean_seconds("syntax.translate"),
        "syntax.translate_nodes": tracer.mean_count("syntax.translate_nodes"),
        "tableau.complete_s": tracer.mean_seconds("tableau.complete"),
        "tableau.nodes": tracer.mean_count("tableau.nodes"),
        "tableau.branches": tracer.mean_count("tableau.branches"),
        "tableau.closed_before_open": tracer.mean_count("tableau.closed_before_open"),
        "tableau.extract_s": tracer.mean_seconds("tableau.extract"),
        "semantics.countermodel_s": tracer.mean_seconds("semantics.countermodel"),
        "semantics.consequence_s": tracer.mean_seconds("semantics.consequence"),
        "semantics.valuations": _per(tracer.totals["semantics.valuations"],
                                     tracer.span_calls("semantics.countermodel")
                                     + tracer.span_calls("semantics.consequence")),
        "nd.from_json_s": tracer.mean_seconds("nd.from_json"),
        "nd.normalize_s": tracer.mean_seconds("nd.normalize"),
        "nd.steps": tracer.mean_count("nd.steps"),
        "nd.analyze_s": tracer.mean_seconds("nd.analyze", per="nd.normalize"),
        "nd.proof_nodes_in": tracer.mean_count("nd.proof_nodes_in"),
        "nd.proof_nodes_out": tracer.mean_count("nd.proof_nodes_out"),
        "nd.to_json_s": tracer.mean_seconds("nd.to_json"),
        "cli.interpreter_s": (cli or {}).get("interpreter_s", 0.0),
        "cli.import_s": (cli or {}).get("import_s", 0.0),
        "cli.main_s": tracer.mean_seconds("cli.main"),
        "runtime.gc_s": _per(tracer.gc_seconds(), ops),
        "runtime.gc_collections": _per(len(tracer.gc_spans), ops),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _per(total, n):
    return total / n if n else 0.0
