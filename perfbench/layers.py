"""Per-layer host cost: spans around calls into each ``repro`` layer.

The tracer wraps public functions of the program from outside (no span
lives inside ``src/``), keeps every span in memory as
``(id, name, start, end, parent, op)`` and writes them out once the
workload has finished.  A layer's self time is the sum over its spans of
the span's duration minus the time its direct child spans cover.

Async functions are timed per resumption step: a coroutine's wall span
would include whatever other tasks ran while it was suspended, so each
step is recorded as its own span and only on-CPU time is attributed.
Spans never overlap except by nesting, because the program runs on one
thread and every span opens and closes within one loop step.

The operation id ties the spans of one request together: a serve
request gets one at ``CloudletServer.submit``, a replayed user's spans
carry the user id, and a span without either inherits its parent's.

The memory pass (``live_by_layer``) runs after an untraced call and
attributes the live heap to the ``repro`` layer that owns each object.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import inspect
import itertools
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (metric prefix, module, attribute path, kind); kind is "span" (timed,
#: with self time) or "count" (call count only: the function is too hot
#: for a span to leave its cost unchanged).
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("logs.generate", "repro.logs.generator", "generate_logs", "span"),
    ("logs.columnar", "repro.logs.columnar", "ColumnarEventBatch.from_log", "span"),
    ("pocketsearch.content", "repro.pocketsearch.content", "build_cache_content", "span"),
    ("pocketsearch.cache_build", "repro.pocketsearch.cache", "PocketSearchCache.load_community", "span"),
    ("pocketsearch.serve_query", "repro.pocketsearch.engine", "PocketSearchEngine.serve_query", "span"),
    ("pocketsearch.refresh", "repro.pocketsearch.manager", "CacheUpdateServer.refresh_with_content", "span"),
    ("pocketsearch.compact", "repro.pocketsearch.database", "ResultDatabase.compact", "span"),
    ("pocketsearch.hash64", "repro.pocketsearch.hashtable", "hash64", "count"),
    ("storage.append", "repro.storage.filesystem", "FlashFilesystem.append", "span"),
    ("storage.program_pages", "repro.storage.flash", "NandFlash.program_pages", "count"),
    # A miss prices the radio through this function and
    # ``isolated_request_latency``, one call each; only this one is
    # wrapped, so ``calls`` counts requests (the other stays in its
    # caller's self time).  ``RadioLink.request`` (the stateful
    # timeline) runs on no workload.
    ("radio.request", "repro.radio.energy", "isolated_request_components", "span"),
    ("edge.fetch", "repro.edge.tier", "EdgeTier.fetch", "span"),
    ("serve.loadgen", "repro.serve.loadgen", "build_workload", "span"),
    ("serve.loop", "repro.serve.vclock", "run_simulated", "span"),
    ("serve.submit", "repro.serve.server", "CloudletServer.submit", "span"),
    ("serve.backend", "repro.serve.backends", "SearchBackend.serve", "span"),
    ("obs.telemetry", "repro.serve.telemetry", "ServeTelemetry.on_submit", "span"),
    ("obs.telemetry", "repro.serve.telemetry", "ServeTelemetry.on_shed", "span"),
    ("obs.telemetry", "repro.serve.telemetry", "ServeTelemetry.on_response", "span"),
    ("sim.universe", "repro.sim.vectorized", "ReplayUniverse.__init__", "span"),
    ("sim.replay_user", "repro.sim.vectorized", "replay_one_user_vectorized", "span"),
)

#: Root span around the timed call; its duration is the traced wall.
ROOT = "bench.call"

#: Spans whose per-call durations are reported as a distribution.
DISTRIBUTIONS = (
    "pocketsearch.cache_build",
    "pocketsearch.refresh",
    "sim.replay_user",
)

#: ``repro.<layer>`` packages whose live allocations the memory pass
#: reports; anything else lands in ``other``.
MEMORY_LAYERS = (
    "logs", "pocketsearch", "storage", "radio", "edge", "serve", "obs", "sim",
)

#: Every per-layer metric as ``(name, unit, better)``, in report order.
#: A ``ms_tail`` is the slowest call with at least ten calls beyond it:
#: its percentile rank follows from the ``calls`` count beside it.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("pocketsearch.cache_build.calls", "count", "lower"),
    ("pocketsearch.cache_build.self_s", "s", "lower"),
    ("pocketsearch.cache_build.ms_p50", "ms", "lower"),
    ("pocketsearch.cache_build.ms_tail", "ms", "lower"),
    ("pocketsearch.serve_query.calls", "count", "lower"),
    ("pocketsearch.serve_query.self_s", "s", "lower"),
    ("pocketsearch.hash64.calls", "count", "lower"),
    ("pocketsearch.refresh.calls", "count", "lower"),
    ("pocketsearch.refresh.self_s", "s", "lower"),
    ("pocketsearch.refresh.ms_p50", "ms", "lower"),
    ("pocketsearch.refresh.ms_tail", "ms", "lower"),
    ("pocketsearch.compact.calls", "count", "lower"),
    ("pocketsearch.compact.self_s", "s", "lower"),
    ("pocketsearch.content.calls", "count", "lower"),
    ("pocketsearch.content.self_s", "s", "lower"),
    ("storage.append.calls", "count", "lower"),
    ("storage.append.self_s", "s", "lower"),
    ("storage.program_pages.calls", "count", "lower"),
    ("radio.request.calls", "count", "lower"),
    ("radio.request.self_s", "s", "lower"),
    ("edge.fetch.calls", "count", "lower"),
    ("edge.fetch.self_s", "s", "lower"),
    ("edge.hit_ratio", "ratio", "higher"),
    ("serve.submit.calls", "count", "lower"),
    ("serve.submit.self_s", "s", "lower"),
    ("serve.backend.self_s", "s", "lower"),
    ("serve.batcher.fetches", "count", "lower"),
    ("serve.batcher.share_ratio", "ratio", "higher"),
    ("serve.loadgen.self_s", "s", "lower"),
    ("serve.loop.self_s", "s", "lower"),
    ("obs.telemetry.calls", "count", "lower"),
    ("obs.telemetry.self_s", "s", "lower"),
    ("obs.share", "ratio", "lower"),
    ("sim.replay_user.calls", "count", "lower"),
    ("sim.replay_user.self_s", "s", "lower"),
    ("sim.replay_user.ms_p50", "ms", "lower"),
    ("sim.replay_user.ms_tail", "ms", "lower"),
    ("sim.universe.self_s", "s", "lower"),
    ("logs.columnar.self_s", "s", "lower"),
    ("logs.generate.self_s", "s", "lower"),
    ("python.gc.pause_s", "s", "lower"),
    ("python.gc.gen2", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.ops_ratio", "ratio", "higher"),
) + tuple(
    (f"{layer}.alloc_mb", "MB", "lower") for layer in MEMORY_LAYERS + ("other",)
)


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for ``module`` + dotted ``path``."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _install(module: str, path: str, make: Callable[[Callable], Callable]) -> None:
    """Replace the target everywhere ``repro`` code looks it up."""
    owner, attr, raw = _resolve(module, path)
    if isinstance(owner, type):
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    wrapped = make(raw)
    # Module-level functions are imported by name into other modules, so
    # every binding of the original object is replaced.
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            mod, attr, None
        ) is raw:
            setattr(mod, attr, wrapped)


def _keeping(kept: List[Any]) -> Callable[[Callable], Callable]:
    """Wrapper factory for ``_install``: appends each object an
    ``__init__`` builds, or each value a function returns, to ``kept``."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = fn(*args, **kwargs)
            kept.append(args[0] if fn.__name__ == "__init__" else value)
            return value

        return wrapper

    return make


class Tracer:
    """In-memory spans and counts at the boundaries named in TARGETS."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.calls: Counter = Counter()
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_t0: Optional[float] = None
        self._ids = itertools.count(1)
        self._stack: List[Tuple[int, int]] = [(0, -1)]
        self._op_ids = itertools.count(1)
        self._op_of_request: Dict[int, int] = {}
        self._task_op: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_op", default=-1
        )
        self.batchers: List[Any] = []
        #: ``spans[root_from:]`` are the spans inside the root span (spans
        #: are appended as they close, and only descendants close inside it)
        self.root_from = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, module, path, kind in TARGETS:
            if kind == "count":
                _install(module, path, functools.partial(self._counted, name))
            else:
                _install(module, path, functools.partial(self._spanned, name))
        # Batchers count their own leaders and riders; the server's and
        # each edge node's are summed after the call.
        _install("repro.serve.batcher", "MissBatcher.__init__", _keeping(self.batchers))

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _op(self, name: str, args: tuple, kwargs: dict, parent_op: int) -> int:
        """The operation a span belongs to (see the module docstring)."""
        op = -1
        if name == "serve.submit":
            op = next(self._op_ids)
            self._op_of_request[id(args[1])] = op
        elif name == "serve.backend":
            op = self._op_of_request.get(id(args[1]), -1)
        elif name == "obs.telemetry" and len(args) > 2:
            request = getattr(args[2], "request", None)
            op = self._op_of_request.get(id(request), -1)
        elif name == "sim.replay_user":
            op = int(kwargs.get("user_id", args[6] if len(args) > 6 else -1))
        if op != -1:
            # Later spans of this asyncio task (the edge fetch after the
            # backend call) belong to the same request.
            self._task_op.set(op)
            return op
        return parent_op if parent_op != -1 else self._task_op.get()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, calls, stack, ids = self.spans, self.calls, self._stack, self._ids
        clock = time.perf_counter

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                calls[name] += 1
                op = self._op(name, args, kwargs, stack[-1][1])
                return await _Steps(self, name, op, fn(*args, **kwargs))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            parent_sid, parent_op = stack[-1]
            op = self._op(name, args, kwargs, parent_op)
            sid = next(ids)
            stack.append((sid, op))
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent_sid, op))

        return wrapper

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the root span, with GC accounting on."""
        gc.callbacks.append(self._on_gc)
        self.root_from = len(self.spans)
        try:
            return self._spanned(ROOT, fn)()
        finally:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_t0
            self._gc_t0 = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- derivation -----------------------------------------------------------

    def self_times(
        self, spans: Optional[List[Tuple]] = None
    ) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
        """Per-name self seconds, and per-name inclusive span seconds."""
        spans = self.spans if spans is None else spans
        covered: Dict[int, float] = defaultdict(float)
        for _sid, _name, t0, t1, parent, _op in spans:
            covered[parent] += t1 - t0
        self_s: Dict[str, float] = defaultdict(float)
        durations: Dict[str, List[float]] = defaultdict(list)
        for sid, name, t0, t1, _parent, _op in spans:
            self_s[name] += (t1 - t0) - covered.get(sid, 0.0)
            durations[name].append(t1 - t0)
        return self_s, durations

    def write(self, path) -> None:
        """Write the spans as JSON lines (a header, then one array each)."""
        with open(path, "w") as out:
            out.write(
                json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"]})
                + "\n"
            )
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _Steps:
    """Await a coroutine, recording one span per resumption step."""

    def __init__(self, tracer: Tracer, name: str, op: int, coro) -> None:
        self.tracer, self.name, self.op, self.coro = tracer, name, op, coro

    def __await__(self):
        tracer, name, op = self.tracer, self.name, self.op
        steps = self.coro.__await__()
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            parent_sid = tracer._stack[-1][0]
            sid = next(tracer._ids)
            tracer._stack.append((sid, op))
            t0 = time.perf_counter()
            try:
                if error is None:
                    yielded = steps.send(value)
                else:
                    yielded = steps.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent_sid, op))
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc


def distribution(durations: List[float]) -> Tuple[float, float, float]:
    """``(p50 ms, tail ms, tail percentile)`` of per-call seconds.

    The tail is the highest percentile that leaves at least ten samples
    beyond it; with ten or fewer samples it is the maximum (100%).
    """
    if not durations:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    return (
        1e3 * ordered[max(0, math.ceil(0.5 * n) - 1)],
        1e3 * ordered[rank],
        100.0 * (rank + 1) / n,
    )


def layer_metrics(
    tracer: Tracer, counts: Dict[str, float], ops: int
) -> Dict[str, float]:
    """The traced run's per-layer metrics (memory and overhead excluded)."""
    self_s, durations = tracer.self_times()
    calls = tracer.calls
    wall = sum(durations[ROOT])
    out: Dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls[prefix]
        elif field == "self_s":
            out[name] = self_s.get(prefix, 0.0)
    for prefix in DISTRIBUTIONS:
        p50, tail, pct = distribution(durations.get(prefix, []))
        out[prefix + ".ms_p50"] = p50
        out[prefix + ".ms_tail"] = tail
        out[prefix + ".tail_pct"] = pct  # printed beside ms_tail, not a metric
    fetches = calls["edge.fetch"]
    out["edge.hit_ratio"] = (
        counts.get("edge.community_hits", 0) / fetches if fetches else 0.0
    )
    leaders = sum(b.fetches for b in tracer.batchers)
    riders = sum(b.piggybacked for b in tracer.batchers)
    out["serve.batcher.fetches"] = leaders
    out["serve.batcher.share_ratio"] = (
        riders / (leaders + riders) if leaders + riders else 0.0
    )
    out["obs.share"] = self_s.get("obs.telemetry", 0.0) / wall if wall else 0.0
    out["python.gc.pause_s"] = tracer.gc_pause_s
    out["python.gc.gen2"] = tracer.gc_gen2
    out["trace.wall_s"] = wall
    out["trace.ops_per_s"] = ops / wall if wall else 0.0
    return out


def shares(tracer: Tracer) -> List[Tuple[str, float, float]]:
    """``(span name, self s, share of traced wall)`` inside the root
    span, largest first."""
    self_s, durations = tracer.self_times(tracer.spans[tracer.root_from:])
    wall = sum(durations[ROOT]) or 1.0
    return sorted(
        ((name, s, s / wall) for name, s in self_s.items()),
        key=lambda row: -row[1],
    )


# -- memory pass -------------------------------------------------------------

#: Referents the heap walk does not follow: code and module state, which
#: no layer owns.
_NOT_OWNED = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.CodeType,
    types.FrameType,
)


#: What a call builds and drops before it returns, kept alive for the
#: memory pass: the serve layer's servers (with their device caches),
#: and the replay's cache contents (the month's and the 31 daily ones,
#: all alive while users replay), event batch and universe.
RETAINED = (
    ("repro.serve.server", "CloudletServer.__init__"),
    ("repro.pocketsearch.content", "build_cache_content"),
    ("repro.logs.columnar", "ColumnarEventBatch.from_log"),
    ("repro.sim.vectorized", "ReplayUniverse.__init__"),
)


def retain_built() -> List[Any]:
    """Keep what the call builds (``RETAINED``) alive past the call, so
    that the end-of-call heap holds what was live at the call's peak;
    the call's return value is kept by the caller.  Per-user replay
    state (one user at a time) and per-request objects are not kept."""
    kept: List[Any] = []
    for module, path in RETAINED:
        _install(module, path, _keeping(kept))
    return kept


def _layer_of(obj: Any) -> Optional[str]:
    module = getattr(type(obj), "__module__", None)
    if not isinstance(module, str) or not module.startswith("repro."):
        return None
    head = module.split(".")[1]
    return head if head in MEMORY_LAYERS else "other"


def live_by_layer() -> Dict[str, float]:
    """Live bytes by owning ``repro.<layer>``, in MB.

    Every object whose class is defined in ``repro.<layer>`` counts for
    that layer, together with the objects it reaches that no other
    ``repro`` object reached first (a heap walk from each such object in
    ``gc.get_objects()`` order).  Everything else is ``other``.  Sizes
    are ``sys.getsizeof``, which includes a NumPy array's own buffer.
    """
    import numpy as np

    gc.collect()
    objects = gc.get_objects()
    roots = [(obj, layer) for obj in objects if (layer := _layer_of(obj))]
    seen = {id(obj) for obj, _ in roots}
    seen.update((id(objects), id(roots), id(seen)))
    sizes: Dict[str, int] = defaultdict(int)

    def walk(start: Any, layer: str) -> None:
        stack = [start]
        total = 0
        while stack:
            obj = stack.pop()
            total += sys.getsizeof(obj, 0)
            refs = gc.get_referents(obj)
            if isinstance(obj, np.ndarray) and obj.base is not None:
                refs.append(obj.base)
            for ref in refs:
                if id(ref) not in seen and not isinstance(ref, _NOT_OWNED):
                    seen.add(id(ref))
                    stack.append(ref)
        sizes[layer] += total

    for obj, layer in roots:
        walk(obj, layer)
    for obj in objects:
        if id(obj) not in seen and not isinstance(obj, _NOT_OWNED):
            seen.add(id(obj))
            walk(obj, "other")
    return {
        f"{layer}.alloc_mb": sizes.get(layer, 0) / 2**20
        for layer in MEMORY_LAYERS + ("other",)
    }
