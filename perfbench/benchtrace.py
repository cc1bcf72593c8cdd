"""Spans and counters recorded around the program's public calls.

The benchmark never edits the program: a :class:`Tracer` patches a
public function or method *where its caller looks the name up* (e.g.
``repro.netsim.swarm.classify_batch``, ``repro.serve.supervisor.
encode_frame``), records one span per call, and restores the original
when the :class:`Patches` context exits.  Spans nest per thread: the
span open on the calling thread is the parent.  Calls made thousands of
times per round go through :meth:`Tracer.accumulate` instead, which
keeps a count and a total time but no span each.

Tracing is only ever switched on for the traced run; the untraced run
imports this module but patches nothing.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    key: Any = None  # round or request id, when the caller knows it


class Tracer:
    """In-memory span store, shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.accumulated: Dict[str, List[float]] = {}  # name -> [count, s]
        self.events: List[Tuple[float, str, float]] = []  # (t, name, amount)
        self.key: Any = None  # set by the workload: current beat / request
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything (a forked worker starts from a clean store).

        Accumulator slots are zeroed in place: the wrappers hold them.
        """
        with self._lock:
            self.spans = []
            self.events = []
            for slot in self.accumulated.values():
                slot[0] = slot[1] = 0.0
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, key: Any = None) -> int:
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            0.0,
            stack[-1] if stack else -1,
            self.key if key is None else key,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Record a count event; analysis sums events inside a time window."""
        event = (time.perf_counter(), name, float(amount))
        with self._lock:
            self.events.append(event)

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_call: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        key_of: Optional[Callable[[tuple], Any]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``on_call(tracer, args, result)`` runs after each call, for the
        counts measured at the same boundary (CIRs per call, bytes).
        ``key_of(args)`` names the request a call serves, when one does.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, None if key_of is None else key_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def accumulate(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call count and total time, but no span per call."""
        slot = self.accumulated.setdefault(name, [0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += clock() - started

        return counted

    def export(self) -> Dict[str, Any]:
        """A JSON-ready copy of everything recorded."""
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.key] for s in self.spans
            ],
            "accumulated": {k: list(v) for k, v in self.accumulated.items()},
            "events": [list(event) for event in self.events],
        }

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        data = self.export()
        if extra:
            data.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, default=repr)


class Patches:
    """Install attribute replacements; undo them all on exit."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: Any, attr: str, name: str, on_call=None, key_of=None) -> None:
        self.set(owner, attr, tracer.wrap(name, owner.__dict__[attr], on_call, key_of))

    def accumulate(self, tracer: Tracer, owner: Any, attr: str, name: str) -> None:
        self.set(owner, attr, tracer.accumulate(name, owner.__dict__[attr]))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
