"""Span tracing from outside the program.

The tracer wraps the public calls of each layer at run time — module
functions as ``repro.core.mediator`` sees them, and class methods — so
the program under test needs no instrumentation of its own.  A span is
``[name, start, end, parent, request id]``.  Spans stay in memory while
the workload runs and are written out once, at the end.

Parenting: a span's parent is the innermost open span on its own
thread.  A span opened on a thread with nothing open (a parallel
runtime worker) is adopted by the innermost open span of the single
request in flight, which is exact for the closed-loop workloads; with
several requests in flight it stays a background span.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from typing import Any, Callable, Optional

_NAME, _START, _END, _PARENT, _REQUEST = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.enabled = False
        self._local = threading.local()
        self._open_roots: dict[int, list[list[Any]]] = {}
        self._roots_lock = threading.Lock()
        self._request_ids = itertools.count(1)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner: Any, attribute: str, name: str, root: bool = False) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        setattr(owner, attribute, self._wrapper(original, name, root))

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, original: Callable[..., Any], name: str, root: bool) -> Callable[..., Any]:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
                request = parent[_REQUEST]
            elif root:
                parent, request = None, next(tracer._request_ids)
            else:
                parent = tracer._adopting_parent()
                request = parent[_REQUEST] if parent is not None else 0
            span = [name, 0.0, 0.0, parent, request]
            is_root = not stack and root
            stack.append(span)
            if is_root:
                with tracer._roots_lock:
                    tracer._open_roots[threading.get_ident()] = stack
            span[_START] = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
                if is_root:
                    with tracer._roots_lock:
                        tracer._open_roots.pop(threading.get_ident(), None)
                tracer.spans.append(span)

        return traced

    def _adopting_parent(self) -> Optional[list[Any]]:
        with self._roots_lock:
            if len(self._open_roots) != 1:
                return None
            (stack,) = self._open_roots.values()
            return stack[-1] if stack else None

    # -- analysis -------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive and self seconds.  Self time is
        a span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            parent = span[_PARENT]
            if parent is not None:
                children.setdefault(id(parent), []).append((span[_START], span[_END]))
        totals: dict[str, dict[str, float]] = {}
        for span in self.spans:
            start, end = span[_START], span[_END]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(id(span), ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            entry = totals.setdefault(span[_NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip), parents by index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for i, span in enumerate(self.spans):
                parent = span[_PARENT]
                handle.write(
                    json.dumps(
                        [i, span[_NAME], span[_START], span[_END],
                         index.get(id(parent)) if parent is not None else None,
                         span[_REQUEST]],
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")

    def cost_per_span_s(self, rounds: int = 20_000) -> float:
        """Wall cost the wrapper adds to one call, measured on a no-op."""

        def noop() -> None:
            return None

        wrapped = self._wrapper(noop, "calibration", root=True)
        enabled, spans = self.enabled, self.spans
        self.enabled, self.spans = True, []
        try:
            started = time.perf_counter()
            for _ in range(rounds):
                noop()
            bare = time.perf_counter() - started
            started = time.perf_counter()
            for _ in range(rounds):
                wrapped()
            traced = time.perf_counter() - started
        finally:
            self.enabled, self.spans = enabled, spans
        return max(0.0, (traced - bare) / rounds)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer of the program."""
    import repro.core.mediator as mediator_module
    from repro.cim.manager import CacheInvariantManager
    from repro.core.executor import Executor
    from repro.core.mediator import Mediator
    from repro.core.plancache import PlanCache
    from repro.core.rewriter import Rewriter
    from repro.core.subplan import SubplanResultCache
    from repro.dcsm.module import DCSM
    from repro.net.remote import RemoteDomain
    from repro.runtime.scheduler import ParallelExecutor
    from repro.storage.memory import MemoryBackend

    tracer.wrap(Mediator, "query", "mediator.query", root=True)
    tracer.wrap(mediator_module, "parse_query", "parser.parse_query")
    tracer.wrap(mediator_module, "canonicalize", "plancache.canonicalize")
    tracer.wrap(PlanCache, "get", "plancache.get")
    tracer.wrap(PlanCache, "put", "plancache.put")
    tracer.wrap(Rewriter, "search", "rewriter.search")
    tracer.wrap(DCSM, "estimate", "dcsm.estimate")
    tracer.wrap(DCSM, "record", "dcsm.record")
    tracer.wrap(CacheInvariantManager, "execute", "cim.execute")
    # the subplan tier's probe is ``match`` (it has no ``get``)
    tracer.wrap(SubplanResultCache, "match", "subplan.match")
    tracer.wrap(SubplanResultCache, "put", "subplan.put")
    tracer.wrap(Executor, "run", "executor.run")
    tracer.wrap(ParallelExecutor, "run", "executor.parallel_run")
    tracer.wrap(RemoteDomain, "execute", "net.dial")
    tracer.wrap(MemoryBackend, "put", "storage.put")
    tracer.wrap(MemoryBackend, "delete", "storage.delete")
