"""Span tracing by rebinding module attributes for the length of a run.

The traced run replaces public functions on their modules with wrappers
that record a span (name, start, end, parent) around each call, then puts
the originals back.  Rebinding the module attribute also catches calls
made inside maserkit, because those go through the module too:
`fitting` reaches `cqed.simulate_maser` by attribute and `nlls_minimize`
through its own globals, and `spectro` calls `fitting.nlls_minimize`.
Callers that bound a function by name before the run (such as
`maserkit.simulate_maser`, the package re-export) are not traced, so the
harness itself calls through the submodules.
"""

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    error: str | None = None
    note: object = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans for calls to the functions it is installed on.

    Use as a context manager over `install`: the originals are restored
    on exit, also when the traced code raises.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, note=None):
        """Wrapper around fn recording one span per call.

        note, if given, maps the return value to a value stored on the
        span (e.g. the iteration count of a fit).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, tracer.clock(), None,
                        tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        return wrapper

    def install(self, targets):
        """Rebind each (module, attribute, note) target to a wrapper.

        The span name is '<module short name>.<attribute>'.
        """
        for module, attr, note in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            name = module.__name__.rsplit(".", 1)[-1] + "." + attr
            setattr(module, attr, self.wrap(name, original, note))
        return self

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- queries ---------------------------------------------------------

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def children(self):
        """Index list of direct children for every span."""
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids[s.parent].append(i)
        return kids

    def self_seconds(self):
        """Each span's duration minus the time its direct children cover.

        Calls run on one thread, so children never overlap and their
        durations add up to the part of the parent they cover.
        """
        kids = self.children()
        return [s.seconds - sum(self.spans[k].seconds for k in kids[i])
                for i, s in enumerate(self.spans)]

    def has_ancestor(self, index, names):
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def descendants(self, index, kids=None):
        """Indices of all spans nested inside span `index`, in call order.

        kids is the result of children(), passed in to avoid recomputing it.
        """
        out = []
        kids = kids if kids is not None else self.children()
        stack = list(reversed(kids[index]))
        while stack:
            i = stack.pop()
            out.append(i)
            stack.extend(reversed(kids[i]))
        return out
