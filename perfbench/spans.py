"""In-memory spans around calls into slotgnn, recorded from outside the package.

A :class:`Tracer` replaces a function at the attribute its callers look up
(``slotgnn.model.layer_forward``, ``slotgnn.tensor.Tape.backward``, ...) with
a wrapper that records a span: name, start, end, parent and a few counts.
``restore`` puts the originals back, so untraced and traced work can share a
process. Spans are kept in a list in the order they were opened; a parent is
always opened before its children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block; yields the span's index."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        before: Callable[..., dict] | None = None,
        after: Callable[[Any], dict] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name or a function of the call's arguments.
        ``before(*args, **kwargs)`` and ``after(result)`` return counts to
        attach to the span; ``before`` runs outside the span's own interval.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before is not None else {}
            index = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                out = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                attrs.update(after(out))
            self.spans[index].attrs.update(attrs)
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def roots(spans: list[Span]) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    top: list[int] = []
    for i, s in enumerate(spans):
        top.append(i if s.parent < 0 else top[s.parent])
    return top


def check_nesting(spans: list[Span], tolerance: float = 1e-9) -> list[str]:
    """Problems with the span tree: unclosed spans, children outside their
    parent's interval, parents opened after their children, negative self time."""
    problems = []
    for i, s in enumerate(spans):
        if not s.end >= s.start:
            problems.append(f"span {i} {s.name!r} is not closed")
        if s.parent >= i:
            problems.append(f"span {i} {s.name!r} has parent {s.parent} opened after it")
        elif s.parent >= 0:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {i} {s.name!r} lies outside parent {p.name!r}")
    for i, t in enumerate(self_times(spans)):
        if t < -tolerance:
            problems.append(f"span {i} {spans[i].name!r} has negative self time {t}")
    return problems
