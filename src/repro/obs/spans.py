"""Nested spans on the simulated clock.

The paper's analysis is log-driven: per-second resource series on every
machine, sliced offline into per-phase and per-iteration behaviour
(§4.2, Figures 10–13). A :class:`Tracer` is the simulated equivalent of
those logs' *time structure*: every run produces a tree of spans —
run → phase → superstep → shuffle/compute/barrier — whose timestamps
are **simulated seconds** read from the cluster clock, never the host
clock. Recording a span therefore cannot perturb a run: the tracer only
*reads* time that the cost models already advanced, so a traced run and
an untraced run produce byte-identical results.

Spans close strictly LIFO (a child must end before its parent); the
tracer enforces this so exported traces are always well-nested.

A run opens tens of spans per superstep, so the span path is kept
lean: :class:`Span` is a ``__slots__`` record, the tracer reads the
clock through one bound method, and ``with tracer.span(...)`` is a
small class scope (:class:`SpanScope`) rather than a generator. Every
span, scoped or not, still opens through :meth:`Tracer.start` and
closes through :meth:`Tracer.end`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

__all__ = ["Attr", "Span", "SpanError", "SpanScope", "Tracer", "record_failure"]

#: span attribute values must be JSON scalars so journals stay portable
Attr = Union[str, int, float, bool]


class SpanError(RuntimeError):
    """A span was closed out of order, twice, or never opened."""


class Span:
    """One timed region of a run, on the simulated clock."""

    __slots__ = ("id", "parent", "name", "cat", "start", "end", "attrs")

    def __init__(
        self,
        id: int,
        parent: Optional[int],     # id of the enclosing span, None for the root
        name: str,                 # "run", "load", "superstep", "shuffle", ...
        cat: str,                  # grouping: "phase", "cluster", an engine model
        start: float,              # simulated seconds
        end: Optional[float] = None,
        attrs: Optional[Dict[str, Attr]] = None,
    ) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.cat = cat
        self.start = start
        self.end = end
        self.attrs: Dict[str, Attr] = {} if attrs is None else attrs

    @property
    def closed(self) -> bool:
        """True once the span has ended."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Simulated seconds covered; 0.0 while still open."""
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:
        when = f"{self.start:.3f}+{self.duration:.3f}s" if self.closed else "open"
        return f"Span({self.name!r}, cat={self.cat!r}, {when})"


def record_failure(span: Span, exc: BaseException) -> None:
    """Note on ``span`` the failure unwinding through it.

    The exception type lands in the ``error`` attr, so journals show
    exactly where a run died. Failures that carry provenance — a
    ``kind`` (the paper's OOM/TO/MPI/SHFL code) and a ``machine`` — land
    as attrs too; ``machine`` is ``-1`` for cluster-wide failures.
    (Duck-typed: obs cannot import
    :class:`~repro.cluster.failures.SimulatedFailure` without a
    layering cycle.) Attrs already set are kept.
    """
    attrs = span.attrs
    attrs.setdefault("error", type(exc).__name__)
    kind = getattr(exc, "kind", None)
    if kind is not None:
        attrs.setdefault("kind", str(kind))
        machine = getattr(exc, "machine", None)
        attrs.setdefault("machine", int(machine) if machine is not None else -1)


class SpanScope:
    """``with tracer.span(...) as span:`` — open on entry, close on exit.

    The span opens through :meth:`Tracer.start` when the block is
    entered and closes through :meth:`Tracer.end` when it is left,
    whether it returns or raises; a failure is noted on the span first
    (:func:`record_failure`). The exception is never swallowed.
    """

    __slots__ = ("tracer", "name", "cat", "attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 attrs: Dict[str, Attr]) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span: Span = None  # type: ignore[assignment]  # set on entry

    def __enter__(self) -> Span:
        self.span = self.tracer.start(self.name, self.cat, **self.attrs)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            record_failure(self.span, exc)
        self.tracer.end(self.span)
        return False


def _unbound_clock() -> float:
    return 0.0


class Tracer:
    """Builds the span tree for one run.

    The tracer starts unbound (every timestamp 0.0);
    :class:`~repro.cluster.Cluster` binds it to its
    :class:`~repro.cluster.tracker.SimClock`'s ``read`` method on
    construction so every timestamp is a simulated second. Span ids are
    sequential, which keeps journals deterministic: the same seed
    produces the same ids in the same order.
    """

    def __init__(self, now_fn: Optional[Callable[[], float]] = None) -> None:
        self._now_fn = now_fn if now_fn is not None else _unbound_clock
        self._stack: List[Span] = []
        self._next_id = 1
        #: closed spans, in close order (children before parents)
        self.spans: List[Span] = []

    def bind(self, now_fn: Callable[[], float]) -> None:
        """Attach the simulated-clock reader the spans timestamp with."""
        self._now_fn = now_fn

    def now(self) -> float:
        """Current simulated time; 0.0 before a clock is bound."""
        return self._now_fn()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span."""
        return self._stack[-1] if self._stack else None

    @property
    def open_depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    def start(self, name: str, cat: str = "", **attrs: Attr) -> Span:
        """Open a span nested under the current one.

        ``attrs`` becomes the span's own attribute dict (keyword
        arguments always arrive as a fresh dict).
        """
        stack = self._stack
        span = Span(self._next_id, stack[-1].id if stack else None,
                    name, cat, self._now_fn(), None, attrs)
        self._next_id += 1
        stack.append(span)
        return span

    def end(self, span: Span, **attrs: Attr) -> Span:
        """Close a span; it must be the innermost open one (LIFO)."""
        if span.end is not None:
            raise SpanError(f"span {span.name!r} already closed")
        stack = self._stack
        if not stack or stack[-1] is not span:
            open_name = stack[-1].name if stack else "<none>"
            raise SpanError(
                f"span {span.name!r} closed out of order; innermost open "
                f"span is {open_name!r}"
            )
        stack.pop()
        if attrs:
            span.attrs.update(attrs)
        span.end = self._now_fn()
        self.spans.append(span)
        return span

    def span(self, name: str, cat: str = "", **attrs: Attr) -> SpanScope:
        """Context manager form; closes the span even on failure.

        A simulated failure (OOM, timeout, ...) unwinding through the
        span is recorded on it by :func:`record_failure` before it
        closes.
        """
        return SpanScope(self, name, cat, attrs)

    def finished(self) -> List[Span]:
        """Closed spans sorted by (start time, id): tree order."""
        return sorted(self.spans, key=lambda s: (s.start, s.id))

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self.spans)} closed, {len(self._stack)} open, "
            f"t={self.now():.3f}s)"
        )
