"""In-memory spans recorded by the benchmark around each call into a layer.

The program is not touched: spans come from ``with tracer.span(...)``
blocks in the driver and from wrappers installed on *instances* the
benchmark built (``tracer.wrap(engine, "step", "core.step")`` shadows the
bound method with an instance attribute; the ``on_evict`` hook is an
instance attribute already).  Each span has a name, start, end, parent
and the tick or request id it belongs to; they stay in memory until
:meth:`Tracer.write_jsonl` at the end of the run.

The parent of a new span is the innermost open span *of the same asyncio
task* (a ``ContextVar``), so a tick that runs while a request is parked
at the server's cooperative yield is not mistaken for that request's
child.

**Self time.**  The driver is one thread, so at any instant exactly one
span is really running: the most recently started one that has not
ended.  :meth:`Tracer.layer_table` charges every instant to that span, so
a span's self time is its duration minus whatever started inside it —
its children, and any other task's span that ran while it was parked.
Wait spans (``query``, ``queue_wait``: a request sitting in its client's
queue) describe waiting, not work, and stay out of that accounting.

**Batched spans.**  A hook called once per tuple (``on_evict`` → the
archive's ``ingest_tuple``, 1024 times a tick) would cost a span each;
:meth:`Tracer.wrap_batched` instead sums the calls' durations and emits
one child span per enclosing span with ``n`` = the number of calls and a
duration equal to their summed time.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from time import perf_counter

__all__ = ["Tracer", "NullTracer", "WAIT_SPANS"]

#: Spans that measure waiting rather than work.
WAIT_SPANS = frozenset({"query", "queue_wait"})


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every operation is a no-op (the end-to-end passes)."""

    enabled = False

    def span(self, name, ident=None, parent=None):
        return _NULL_SPAN

    def begin(self, name, ident=None, start=None, parent=None):
        return -1

    def end(self, index, at=None):
        pass


class _Span:
    __slots__ = ("_tracer", "_index", "_token")

    def __init__(self, tracer, index):
        self._tracer = tracer
        self._index = index

    def __enter__(self):
        self._token = self._tracer._current.set(self._index)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._current.reset(self._token)
        self._tracer.end(self._index)


class Tracer:
    """Records spans as parallel lists (cheap to append, cheap to scan)."""

    enabled = True

    def __init__(self):
        self.epoch = perf_counter()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.idents: list[int] = []
        #: Calls summed into a batched span, or rows a ``sized`` call returned.
        self.ns: list[int] = []
        self._current: ContextVar[int] = ContextVar("e2e_span", default=-1)
        self._batch: dict[str, list] = {}

    # -- recording ------------------------------------------------------
    def begin(self, name, ident=None, start=None, parent=None) -> int:
        """Open a span; returns its index.  ``ident`` defaults to the parent's."""
        if parent is None:
            parent = self._current.get()
        if ident is None:
            ident = self.idents[parent] if parent >= 0 else -1
        self.names.append(name)
        self.parents.append(parent)
        self.idents.append(ident)
        self.ns.append(1)
        self.ends.append(0.0)
        self.starts.append(perf_counter() if start is None else start)
        return len(self.names) - 1

    def end(self, index: int, at: float | None = None) -> None:
        """Close a span, attaching any batched calls made inside it."""
        self.ends[index] = perf_counter() if at is None else at
        if self._batch:
            for name, (first, busy, calls) in self._batch.items():
                child = self.begin(name, start=first, parent=index)
                self.ends[child] = first + busy
                self.ns[child] = calls
            self._batch.clear()

    def span(self, name, ident=None, parent=None) -> _Span:
        """``with tracer.span(name, ident):`` — a child of the task's open span
        unless ``parent`` names another."""
        return _Span(self, self.begin(name, ident, parent=parent))

    def wrap(self, obj, attr, name, own_ids=False, sized=False) -> None:
        """Shadow ``obj.attr`` with a traced wrapper (instance attribute only).

        ``own_ids`` numbers the calls and uses the number as the span's id
        (a tick id for ``FleetEngine.step`` under ``FleetEngine.run``);
        ``sized`` records ``len(result)`` in the span's ``n``.
        """
        fn = getattr(obj, attr)
        calls = iter(range(1 << 62))

        def traced(*args, **kwargs):
            index = self.begin(name, next(calls) if own_ids else None)
            token = self._current.set(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._current.reset(token)
                self.end(index)
            if sized:
                self.ns[index] = len(result)
            return result

        setattr(obj, attr, traced)

    def wrap_batched(self, obj, attr, name) -> None:
        """Shadow a per-tuple hook; its calls are summed into one span."""
        fn = getattr(obj, attr)
        batch = self._batch

        def traced(*args):
            t0 = perf_counter()
            fn(*args)
            t1 = perf_counter()
            acc = batch.get(name)
            if acc is None:
                batch[name] = [t0, t1 - t0, 1]
            else:
                acc[1] += t1 - t0
                acc[2] += 1

        setattr(obj, attr, traced)

    # -- reading --------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Every ``name`` span's duration in seconds."""
        return [
            e - s
            for n, s, e in zip(self.names, self.starts, self.ends)
            if n == name
        ]

    def layer_table(self) -> dict[str, dict]:
        """Per span name: ``count``, ``n`` (summed), ``total_s``, ``self_s``.

        Busy spans' self times partition the busy wall: they sum to the
        union of the busy root spans.
        """
        starts, ends, names = self.starts, self.ends, self.names
        self_s = [e - s for s, e in zip(starts, ends)]
        busy = [i for i, n in enumerate(names) if n not in WAIT_SPANS]
        busy.sort(key=lambda i: (starts[i], -ends[i]))
        stack: list[int] = []
        for i in busy:
            start = starts[i]
            while stack and ends[stack[-1]] <= start:
                stack.pop()
            if stack:
                top = stack[-1]
                self_s[top] -= min(ends[i], ends[top]) - start
            stack.append(i)
        table: dict[str, dict] = {}
        for i, name in enumerate(names):
            row = table.setdefault(
                name, {"count": 0, "n": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["n"] += self.ns[i]
            row["total_s"] += ends[i] - starts[i]
            row["self_s"] += self_s[i]
        return table

    def write_jsonl(self, path) -> int:
        """One JSON object per span; times are seconds since the tracer's epoch."""
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "span": i,
                    "name": name,
                    "start": self.starts[i] - self.epoch,
                    "end": self.ends[i] - self.epoch,
                    "parent": self.parents[i],
                    "id": self.idents[i],
                    "n": self.ns[i],
                }) + "\n")
        return len(self.names)
