"""Spans around exactgl's layers, recorded from outside the library.

``Tracer.installed()`` replaces each public function in ``SITES`` where
its caller looks it up (a module global, or a class attribute for the
spectrum cache) with a wrapper that records a span: name, start, end,
parent span and path id, plus one small note (Newton iterations, cache
miss, idle update, zero-check outcome).  Spans stay in memory until the
run writes them out.  Leaving the context restores every original and
checks that it did.
"""

import contextlib
from collections import namedtuple
from time import perf_counter

from exactgl import certificates, group_lasso, simulate, spectra, sparse_group_lasso

Span = namedtuple("Span", "name start end parent path note")
_RAISED = object()


class TraceIntegrityError(RuntimeError):
    """A wrapper was not removed, or a layer the workload needs was never called."""


def _newton_iters(tracer, args, kwargs, before, result):
    return result.newton_iters


def _spectrum_misses(tracer, args, kwargs):
    return args[0].stats().misses


def _spectrum_missed(tracer, args, kwargs, before, result):
    return args[0].stats().misses > before


def _group_before(tracer, args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return k, tracer.group_nonzero.get(k, False)


def _group_idle(tracer, args, kwargs, before, result):
    k, was_nonzero = before
    nonzero = bool(result.any())
    tracer.group_nonzero[k] = nonzero
    return not was_nonzero and not nonzero


def _zero_outcome(tracer, args, kwargs, before, result):
    return bool(result)


# (site, owner, attribute, span name, before hook, note hook)
SITES = (
    ("group_lasso.group_update", group_lasso, "group_update",
     "group_lasso.group_update", _group_before, _group_idle),
    ("group_lasso.solve_secular", group_lasso, "solve_secular",
     "secular.solve_secular", None, _newton_iters),
    ("sparse_group_lasso.zero_check", sparse_group_lasso, "zero_check",
     "sparse_group_lasso.zero_check", None, _zero_outcome),
    ("sparse_group_lasso.signed_subproblem", sparse_group_lasso,
     "signed_subproblem", "sparse_group_lasso.signed_subproblem", None, None),
    ("sparse_group_lasso.solve_secular", sparse_group_lasso, "solve_secular",
     "secular.solve_secular", None, _newton_iters),
    ("SpectrumCache.gram_spectrum", spectra.SpectrumCache, "gram_spectrum",
     "spectra.gram_spectrum", _spectrum_misses, _spectrum_missed),
    ("simulate.sample_problem", simulate, "sample_problem",
     "simulate.sample_problem", None, None),
    ("simulate.lambda_max", simulate, "lambda_max",
     "group_lasso.lambda_max", None, None),
    ("certificates.certificate", certificates, "certificate",
     "certificates.certificate", None, None),
    ("certificates.accuracy_bounds", certificates, "accuracy_bounds",
     "certificates.accuracy_bounds", None, None),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.site_calls = {site[0]: 0 for site in SITES}
        self.path = -1
        self.group_nonzero = {}
        self._stack = []

    def begin_path(self, path):
        """Attribute later spans to ``path``; every group starts at zero."""
        self.path = path
        self.group_nonzero = {}

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, perf_counter(), None)

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, end, note):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, self.path, note)

    def _wrap(self, site, fn, name, before_hook, note_hook):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.site_calls[site] += 1
            before = before_hook(tracer, args, kwargs) if before_hook else None
            index = tracer._open()
            start = perf_counter()
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                note = None
                if note_hook is not None and result is not _RAISED:
                    note = note_hook(tracer, args, kwargs, before, result)
                tracer._close(index, name, start, end, note)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore them."""
        originals = []
        try:
            for site, owner, attr, name, before_hook, note_hook in SITES:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(site, fn, name, before_hook, note_hook))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
        left = [f"{owner.__name__}.{attr}" for owner, attr, fn in originals
                if owner.__dict__[attr] is not fn]
        if left:
            raise TraceIntegrityError(f"wrappers left installed: {left}")

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def check_required(self, sites):
        """Fail loudly if a site the workload must reach was never called."""
        missing = [site for site in sites if self.site_calls[site] == 0]
        if missing:
            raise TraceIntegrityError(
                f"traced run never called {missing}; a layer was renamed or "
                "inlined, so its cost would read as zero")


def aggregate(spans, by_path=False):
    """Per-layer totals over one list of spans.

    Returns ``(layers, self_s)``.  ``layers`` maps a span name (or a
    ``(path, name)`` pair with ``by_path``) to its call count, total
    seconds, the sum of its notes and the seconds of the calls whose note
    is true.  ``self_s`` maps each path to its ``"path"`` span's duration
    minus the time its direct children cover: the sweep engine's own work.
    """
    layers = {}
    children_s = {}
    for span in spans:
        duration = span.end - span.start
        key = (span.path, span.name) if by_path else span.name
        entry = layers.get(key)
        if entry is None:
            entry = layers[key] = {"calls": 0, "s": 0.0, "note_sum": 0, "note_s": 0.0}
        entry["calls"] += 1
        entry["s"] += duration
        if span.note:
            entry["note_sum"] += span.note
            entry["note_s"] += duration
        if span.parent >= 0:
            children_s[span.parent] = children_s.get(span.parent, 0.0) + duration
    self_s = {}
    for i, span in enumerate(spans):
        if span.name == "path":
            self_s[span.path] = (span.end - span.start) - children_s.get(i, 0.0)
    return layers, self_s
