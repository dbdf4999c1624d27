"""Spans and counters recorded from outside the program.

Tracer.install() replaces module attributes of qcapelli with wrappers,
at the bindings the program calls through (``capelli.reduce`` is the
name RewriteContext.reduce_poly looks up, ``suites.dj`` the one the
suites use, and so on).  Nothing under src/ changes.  Spans are kept in
memory as [id, parent, name, start, end] and handed back by finish();
run.py writes them out and turns them into per-layer self times with
self_times().

The scalar backends are counted by wrapping ``__add__``/``__radd__`` and
``__mul__``/``__rmul__`` of ``fractions.Fraction`` and ``RatQ``.  Only
outermost operations count: the Fraction arithmetic inside one RatQ
product is part of that product.
"""

import time
from collections import Counter, defaultdict
from fractions import Fraction


class Tracer:
    """Spans and counters of one traced child process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.criteria = {}
        self._stack = []
        self._words = set()
        self._systems = []
        self._in_scalar_op = False

    def span(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a wrapper that records one span per call.
        before(args) and after(result) run outside the span."""
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.monotonic

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if after is not None:
                after(out)
            return out

        setattr(owner, attr, traced)

    def count_calls(self, cls, attrs, key):
        """Count outermost calls of the given binary operators of cls."""
        counts = self.counts

        for attr in attrs:
            def counted(a, b, fn=getattr(cls, attr)):
                if self._in_scalar_op:
                    return fn(a, b)
                self._in_scalar_op = True
                counts[key] += 1
                try:
                    return fn(a, b)
                finally:
                    self._in_scalar_op = False

            setattr(cls, attr, counted)

    def install(self):
        from qcapelli import capelli, rcatalog, rewrite, suites
        from qcapelli.scalar import RatQ

        for owner, attrs in ((rcatalog, ("dj", "flip", "load")),
                             (suites, ("dj", "flip"))):
            for attr in attrs:
                self.span(owner, attr, "rcatalog.build")
        self.span(capelli, "derive_exchange", "rewrite.exchange")
        for attr in ("derive_re_rules", "derive_dd_rules"):
            self.span(capelli, attr, "rewrite.derive_rules")
        self.span(capelli, "complete", "rewrite.complete",
                  after=self._systems.append)
        self.span(capelli, "theorem_sides", "ncalg.assemble")
        self.span(capelli, "reduce", "rewrite.reduce",
                  before=self._reduce_input,
                  after=self._counter("rewrite.output_terms"))
        self.span(rewrite, "normal_order", "rewrite.normal_order",
                  after=self._counter("rewrite.ordered_terms"))
        self.span(capelli, "rigor_bound", "capelli.rigor_bound")
        run_suite = suites.run_suite

        def suite_results(*args, **kwargs):
            ok, results = run_suite(*args, **kwargs)
            for res in results:
                self.criteria[res.number] = res.seconds
                self.counts["capelli.residual_entries"] += sum(
                    rep.residual_entries for rep in res.reports)
            return ok, results

        suites.run_suite = suite_results
        for cls in (Fraction, RatQ):
            self.count_calls(cls, ("__add__", "__radd__"), "scalar.add_calls")
            self.count_calls(cls, ("__mul__", "__rmul__"), "scalar.mul_calls")

    def _reduce_input(self, args):
        terms = args[0].terms
        self.counts["ncalg.nonzero_entries"] += 1
        self.counts["ncalg.input_terms"] += len(terms)
        self._words.update(terms)

    def _counter(self, key):
        def count_terms(poly):
            self.counts[key] += len(poly.terms)
        return count_terms

    def finish(self, verdicts):
        """Counters and spans of the run, as plain JSON data."""
        counts = self.counts
        counts["ncalg.distinct_words"] = len(self._words)
        for system in self._systems:
            counts["rewrite.rules_" + system.kind] += len(system.rules)
            counts["rewrite.spolys"] += system.stats["spolys"]
            counts["rewrite.nf_cache_words"] += len(system._nf)
        counts["capelli.residual_entries"] += sum(
            v["residual_entries"] for v in verdicts)
        return {"spans": self.spans, "counts": dict(counts),
                "criteria": self.criteria}


def self_times(spans):
    """Self time per span name: each span's duration minus the time its
    direct children cover.  The values add up to the traced time spent
    inside spans."""
    covered = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for sid, _, name, start, end in spans:
        out[name] += end - start - covered[sid]
    return out

