"""In-memory spans around the calls into each lde layer.

Wrappers are installed on modules and classes from here, for the length of
a traced phase, and removed afterwards; pack instances are never touched.
Each span records (detect id, span id, parent span id, name, start ns,
end ns, count), where the count is derived from the wrapped call's
arguments or result, never from counters inside lde.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import lde.engine
import lde.pack
from lde.engine import Engine, LruCache
from lde.ngram import TrigramModel
from lde.trie import Trie

_UNSET = object()
KEEP_SPANS = 20_000  # spans written out in full; later ones only enter the totals

# (owner, attribute, span name, count taken from (args, result))
TARGETS = (
    (lde.engine, "strip_symbols", "engine.strip", None),
    (lde.engine, "context_tokens", "engine.context", None),
    (lde.engine, "select_language", "selector.select_language", None),
    (LruCache, "get", "engine.cache_get", lambda args, result: result is not None),
    (LruCache, "put", "engine.cache_put", None),
    (Engine, "score_context", "engine.score_context", None),
    (TrigramModel, "sequence_log_prob", "ngram.sequence_log_prob", None),
    (TrigramModel, "word_log_prob", "ngram.word_log_prob", lambda args, result: len(args[1])),
    # the `in` operator goes through the __contains__ slot, not Trie.contains
    (Trie, "__contains__", "trie.contains", None),
    (Trie, "edit1_candidates", "trie.edit1", lambda args, result: bool(result)),
    (lde.pack, "read_pack", "pack.read", None),
)


@dataclass
class LayerTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    count: int = 0

    def mean_us(self) -> float:
        return self.total_ns / self.calls / 1000.0 if self.calls else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.kept: list[tuple] = []
        self.totals: dict[str, LayerTotals] = {}
        self.detect_id = -1
        self._next_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = _UNSET
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                n = count(args, result) if count and result is not _UNSET else 0
                spans.append((self.detect_id, span_id, parent, name, start, end, n))

        return traced

    def root(self, detect):
        """Wrap a bound `Engine.detect`; each call starts a new detect id."""
        inner = self.wrap("engine.detect", detect)

        def traced(raw, state):
            self.detect_id += 1
            return inner(raw, state)

        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, count in TARGETS:
                setattr(owner, attr, self.wrap(name, vars(owner)[attr], count))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def fold(self) -> None:
        """Add finished spans to the per-layer totals, with self time.

        Call only between detects, so that every parent span is complete.
        """
        child_ns: dict[int, int] = {}
        for _, _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        for _, span_id, _, name, start, end, n in self.spans:
            totals = self.totals.get(name)
            if totals is None:
                totals = self.totals[name] = LayerTotals()
            totals.calls += 1
            totals.total_ns += end - start
            totals.self_ns += end - start - child_ns.get(span_id, 0)
            totals.count += n
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(self.spans[:room])
        self.spans.clear()

    def layer(self, name: str) -> LayerTotals:
        return self.totals.get(name, LayerTotals())
