"""Span tracing of the freefold layers, installed from outside the library.

``Tracer.installed()`` replaces every public function of the seven layer
modules, and a few class methods, with a wrapper that records a span: a
name, a start and an end, the enclosing span and the benchmark operation it
belongs to.  A function bound under several names (``chain.multiply``,
``graphs.multiply`` and ``words.multiply`` are one function) is replaced in
every loaded module namespace that holds it, so calls made through any
binding are seen.  Leaving the context restores every original binding.

Self time is a span's duration minus the time covered by its child spans;
it is accumulated as spans close, so it covers every span even though only
the first ``KEEP_SPANS`` spans are stored for writing out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("words", "graphs", "whitehead", "abelian", "cosets", "chain", "cli")
KEEP_SPANS = 50_000

# Class methods traced besides the module-level public functions.
METHODS = {
    "words": (("Word", "__pow__"),),
    "graphs": (("SubgroupGraph", "contains"), ("SubgroupGraph", "express")),
    "whitehead": (("Automorphism", "apply"),),
    "cosets": (("CosetAutomaton", "accepts"),),
}


def _count_fold(counts, args, result, parent):
    counts["graphs.fold.letters_in"] += sum(len(w) for w in args[0])
    counts["graphs.fold.vertices_out"] += result.n_vertices


def _count_pow(counts, args, result, parent):
    counts["words.pow.letters_out"] += len(result)


def _count_minimize(counts, args, result, parent):
    counts["whitehead.moves_taken"] += len(result[1])


def _count_apply(counts, args, result, parent):
    # minimize_tuple applies each candidate move directly; for the one-word
    # tuples that is_primitive passes, one apply is one candidate examined
    if parent is not None and parent[1] == "whitehead.minimize_tuple":
        counts["whitehead.candidates"] += 1


def _count_automaton(counts, args, result, parent):
    counts["cosets.automaton_states"] += result.n_states
    counts["cosets.eps_edges"] += len(result.eps)


def _count_smith(counts, args, result, parent):
    rows = args[0]
    counts["abelian.matrix_cells"] += len(rows) * len(rows[0])


OBSERVERS = {
    "graphs.fold_subgroup": _count_fold,
    "words.Word.__pow__": _count_pow,
    "whitehead.minimize_tuple": _count_minimize,
    "whitehead.Automorphism.apply": _count_apply,
    "cosets.build_coset_automaton": _count_automaton,
    "abelian.smith_normal_form": _count_smith,
}


class Tracer:
    """Spans, per-name call counts and self times, and layer counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.n_spans = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.op = 0  # id of the benchmark operation now running
        self._stack: list[list] = []  # open spans: [id, name, child seconds]

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        observe = OBSERVERS.get(name)
        stack = self._stack
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer.n_spans += 1
            frame = [tracer.n_spans, name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(spans) < KEEP_SPANS:
                    spans.append((frame[0], parent[0] if parent else 0, tracer.op,
                                  name, start, end))
            if observe is not None:
                observe(tracer.counts, args, result, parent)
            return result

        return span

    @contextlib.contextmanager
    def installed(self):
        """Trace the layers for the duration of the ``with`` block."""
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        methods: list[tuple] = []  # (class, method name, original, wrapper)
        patched: list[tuple] = []  # (namespace owner, attribute, original)
        for layer in LAYERS:
            module = importlib.import_module(f"freefold.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                methods.append((cls, meth, original,
                                self._wrap(f"{layer}.{cls_name}.{meth}", original)))
        try:
            for cls, meth, original, wrapper in methods:
                setattr(cls, meth, wrapper)
                patched.append((cls, meth, original))
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for attr, obj in list(namespace.items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        namespace[attr] = hit[1]
                        patched.append((module, attr, obj))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON array per line after a header line naming the fields;
        times are ``perf_counter`` seconds, parent 0 marks a top-level span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                                 "spans": self.n_spans, "kept": len(self.spans)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
