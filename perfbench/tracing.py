"""In-memory spans recorded by wrapping robustq's module entry points.

The wrappers live here, not in the package: ``Tracer.install`` replaces
module attributes, and calls inside a module reach the wrapper because they
look the name up in the module's globals at call time.  ``uninstall``
restores the original objects, so an untraced run executes the package's
own functions.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

_ORIGINAL = "__perfbench_original__"


def _arg(signature, name):
    def note(args, kwargs, result):
        return {name: signature.bind(*args, **kwargs).arguments[name]}
    return note


def _note_emit(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _note_attr(attr, key):
    return lambda args, kwargs, result: {key: getattr(result, attr)}


# (module, attribute, span name, note factory).  The note factory receives
# the original function's signature and returns a callable that turns
# (args, kwargs, result) into the counts recorded on the span.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("rng", "sample_outcome_counts", "rng.tally",
     lambda sig: _arg(sig, "n_trials")),
    ("rng", "uniforms", "rng.uniforms", lambda sig: _arg(sig, "count")),
    ("rng", "_block_words", "rng.philox", None),
    ("stationary", "minimize_functional", "stationary.minimize",
     lambda sig: _note_attr("iterations", "iterations")),
    ("stationary", "_discrete_objective_and_gradient", "stationary.objgrad",
     None),
    ("stationary", "solve_eigen", "stationary.eigen", None),
    ("dynamic", "propagate", "dynamic.propagate", None),
    ("dynamic", "_cn_step", "dynamic.cn_step", None),
    ("dynamic", "observables", "dynamic.observables", None),
    ("dynamic", "_hje_residual_triplet", "dynamic.hje_residual", None),
    ("dynamic", "gauge_transform", "dynamic.gauge_transform", None),
    ("inference", "frequency_maximizer_suite", "inference.maximizer",
     lambda sig: _note_attr("n_compositions", "compositions")),
    ("cli", "validate_config", "cli.validate", None),
    ("cli", "emit_csv", "cli.emit", lambda sig: _note_emit),
)


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    request: Optional[int]
    name: str
    thread: int
    start: float
    end: float = 0.0
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _module(name):
    return importlib.import_module(f"robustq.{name}")


def installed_wrappers() -> List[str]:
    """Names of the target attributes that currently hold a wrapper."""
    return [f"{mod}.{attr}" for mod, attr, _, _ in TARGETS
            if hasattr(getattr(_module(mod), attr), _ORIGINAL)]


class Tracer:
    """Records one span per call of each target while installed.

    Spans made on pool threads have no caller span on their own thread;
    they take the open request span (one ``cli.run``) as parent, because
    the closed loop runs one request at a time.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._request: Optional[Span] = None
        self._saved: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        request = self._request
        parent = stack[-1] if stack else request
        with self._lock:
            sid = next(self._ids)
        span = Span(sid=sid, parent=parent.sid if parent else None,
                    request=request.sid if request else sid, name=name,
                    thread=threading.get_ident(), start=time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def request(self, name: str = "cli.run"):
        """Span around one request; the spans it causes share its id."""
        span = self._open(name)
        self._request = span
        try:
            yield span
        finally:
            self._request = None
            self._close(span)

    def _wrap(self, name: str, fn, note):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span.notes.update(note(args, kwargs, result))
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, span_name, note_factory in TARGETS:
            module = _module(mod_name)
            original = getattr(module, attr)
            if hasattr(original, _ORIGINAL):
                raise RuntimeError(f"{mod_name}.{attr} is already wrapped")
            note = (note_factory(inspect.signature(original))
                    if note_factory else None)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> List[Span]:
        """Hand over the recorded spans and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def children_by_parent(spans: List[Span]) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def self_time(span: Span, children: List[Span]) -> float:
    """Duration minus the union of the child intervals (children on pool
    threads may overlap one another)."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def check_spans(spans: List[Span]) -> List[str]:
    """Problems with the span tree: children outside their parent's
    interval, unknown parents, or negative self time."""
    by_id = {s.sid: s for s in spans}
    kids = children_by_parent(spans)
    problems = []
    for span in spans:
        if span.parent is not None:
            parent = by_id.get(span.parent)
            if parent is None:
                problems.append(f"{span.name}#{span.sid}: parent missing")
            elif not parent.start <= span.start <= span.end <= parent.end:
                problems.append(f"{span.name}#{span.sid} outside "
                                f"{parent.name}#{parent.sid}")
        if self_time(span, kids.get(span.sid, [])) < 0:
            problems.append(f"{span.name}#{span.sid}: negative self time")
    return problems
