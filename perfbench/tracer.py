"""Span tracer that measures emdiff's layers from outside.

``Tracer.install`` replaces the public functions, class constructors and
public methods of the given modules with wrappers. Each call records one
span ``[name, parent, start, end]`` in memory, where ``parent`` is the index
of the span that was open when the call began (-1 for none). A function is
wrapped by identity: every module of the package that holds a reference to
it (``from .estep import search_step_batch``) gets the wrapper, so calls are
seen however the caller reached the function. ``uninstall`` puts every
original back.

The program runs in one thread while traced, so a single stack of open
spans gives each call its parent.

Names that a later version of the program renames or deletes are simply
not wrapped; metrics built on them come out absent rather than failing.
"""

import fnmatch
import inspect
import sys
import time

NAME, PARENT, START, END = range(4)


class Tracer:
    """Records spans for the wrapped callables.

    ``hooks`` maps a span name to ``fn(arguments, result, counters)``, run
    after the call returns; ``arguments`` is the call's bound-argument dict.
    A hook that raises is dropped and its name recorded in ``broken``, so a
    changed signature costs its counters, not the run. ``only``, if given,
    limits wrapping to those span names.
    """

    def __init__(self, hooks=None, only=None, clock=time.perf_counter):
        self.spans = []
        self.only = only
        self.counters = {}
        self.hooks = dict(hooks or {})
        self.broken = set()
        self.wrapped = set()
        self._clock = clock
        self._stack = []
        self._restore = []

    # -- installing -----------------------------------------------------

    def install(self, modules):
        """Wrap the public API of ``modules`` (span prefix = last dotted part
        of the module name). References to a wrapped function are replaced
        in every module of the first module's package."""
        package = modules[0].__name__.rpartition(".")[0]
        holders = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for mod in modules:
            prefix = mod.__name__.rpartition(".")[2]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrap_function(holders, obj, f"{prefix}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{prefix}.{attr}")
        return self

    def _wrap_function(self, holders, fn, name):
        if self.only is not None and name not in self.only:
            return
        wrapper = self._wrapper(fn, name)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    self._restore.append((holder, attr, fn))
                    setattr(holder, attr, wrapper)
        self.wrapped.add(name)

    def _wrap_class(self, cls, name):
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue        # properties, static and class methods
            if attr == "__init__":
                span = name
            elif attr.startswith("_"):
                continue
            else:
                span = f"{name}.{attr}"
            if self.only is not None and span not in self.only:
                continue
            self._restore.append((cls, attr, value))
            setattr(cls, attr, self._wrapper(value, span))
            self.wrapped.add(span)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ------------------------------------------------------

    def _wrapper(self, fn, name):
        spans, stack, clock = self.spans, self._stack, self._clock
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[START] = start
                span[END] = end
            if hook is not None and name not in self.broken:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    hook(bound, result, self.counters)
                except Exception:       # changed API: drop the counter
                    self.broken.add(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def reset(self):
        """Forget recorded spans and counters; keep the wrappers."""
        self.spans.clear()
        self.counters.clear()


# -- analysis (pure functions over a span list) --------------------------


def self_times(spans):
    """Each span's duration minus the durations of its direct children.
    Spans come from one thread, so children never overlap each other and
    lie inside their parent."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _matches(name, pattern):
    return fnmatch.fnmatchcase(name, pattern)


def _has_ancestor(spans, i, pred):
    p = spans[i][PARENT]
    while p >= 0:
        if pred(spans[p][NAME]):
            return True
        p = spans[p][PARENT]
    return False


def busy(spans, pattern, under=None):
    """Time inside spans whose name matches ``pattern``, counting nested
    matches once (a matching span inside another matching span adds
    nothing). With ``under``, only spans that have an ancestor matching
    that pattern count. Returns (seconds, calls)."""
    total, calls = 0.0, 0
    in_group = lambda n: _matches(n, pattern)   # noqa: E731
    in_under = lambda n: _matches(n, under)     # noqa: E731
    for i, s in enumerate(spans):
        if not in_group(s[NAME]):
            continue
        if under is not None and not _has_ancestor(spans, i, in_under):
            continue
        calls += 1
        if not _has_ancestor(spans, i, in_group):
            total += s[END] - s[START]
    return total, calls


def self_time(spans, pattern):
    """Summed self time of the spans matching ``pattern``."""
    st = self_times(spans)
    return sum(st[i] for i, s in enumerate(spans) if _matches(s[NAME], pattern))


def ends(spans, name):
    """End times of the spans named ``name``, in order."""
    return sorted(s[END] for s in spans if s[NAME] == name)


def wrapped_any(wrapped, pattern):
    return any(_matches(n, pattern) for n in wrapped)
