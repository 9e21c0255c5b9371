"""Layer tracing for the benchmark's traced run.

The library is measured from the outside: :class:`LayerTracer` swaps
the public entry points of each layer module for thin wrappers that
record one :class:`Span` per call (name, start, end, parent span,
query id), and puts every original back on :meth:`LayerTracer.uninstall`.
Nothing under ``src/`` knows it is being traced.

Span times are CPU seconds of the calling thread, so they are only
compared with spans of the same thread: a span's parent is the
innermost open span on its own thread.

A function imported by name into other modules (``from x import f``)
is patched in every ``repro`` module that holds it, so call sites that
bound the name at import time are traced too.  A target that does not
exist makes :meth:`LayerTracer.install` fail before anything is
measured: a renamed entry point would otherwise read as a layer whose
time dropped to zero.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from importlib import import_module

#: Span names that start a query: a span with one of these names and
#: no enclosing query gets a fresh query id, and its descendants
#: inherit it.
QUERY_ROOTS = ("engine.query", "shard.query")

#: (span name, module, attribute path) for every traced entry point.
#: Spans with the same name nest transparently: a call made while a
#: span of the same name is open on the thread records nothing, so
#: dispatchers that call each other count once.
TARGETS = (
    ("terrain.mesh_from_dem", "repro.terrain.mesh", "TriangleMesh.from_dem"),
    ("simplification.collapse_history", "repro.simplification.collapse",
     "build_collapse_history"),
    ("multires.dmtm_build", "repro.multires.dmtm", "DMTM.__init__"),
    ("multires.dmtm_build", "repro.multires.dmtm", "DMTM.attach_storage"),
    ("msdn.build", "repro.msdn.msdn", "MSDN.__init__"),
    ("msdn.build", "repro.msdn.msdn", "MSDN.attach_storage"),
    ("storage.allocate", "repro.storage.pages", "PageManager.allocate"),
    ("storage.read", "repro.storage.pages", "PageManager.read"),
    ("multires.touch_region", "repro.multires.dmtm", "DMTM.touch_region"),
    ("multires.extract_network", "repro.multires.dmtm", "DMTM.extract_network"),
    ("multires.upper_bound", "repro.multires.dmtm", "DMTM.upper_bound"),
    ("multires.upper_bound", "repro.multires.dmtm", "DMTM.upper_bounds_from"),
    ("multires.upper_bound", "repro.multires.dmtm", "DMTM.upper_bounds_multi"),
    ("msdn.touch_region", "repro.msdn.msdn", "MSDN.touch_region"),
    ("msdn.lower_bound", "repro.msdn.msdn", "MSDN.lower_bound"),
    ("msdn.lower_bound", "repro.msdn.msdn", "MSDN.lower_bound_batch"),
    ("geodesic.build_pathnet", "repro.geodesic.pathnet", "build_pathnet"),
    ("geodesic.build_pathnet", "repro.geodesic.frontier", "build_pathnet_arrays"),
    ("geodesic.kanai_suzuki", "repro.geodesic.kanai_suzuki",
     "kanai_suzuki_distance"),
    ("geodesic.kernels", "repro.geodesic.csr", "graph_dijkstra"),
    ("geodesic.kernels", "repro.geodesic.csr", "graph_dijkstra_with_parents"),
    ("geodesic.kernels", "repro.geodesic.csr", "multi_source_dijkstra_csr"),
    ("geodesic.kernels", "repro.geodesic.csr", "astar_csr"),
    ("geodesic.kernels", "repro.geodesic.frontier", "multi_source_frontier"),
    ("geodesic.kernels", "repro.geodesic.frontier", "astar_frontier"),
    ("spatial.filter", "repro.core.objects", "ObjectSet.knn_2d"),
    ("spatial.filter", "repro.core.objects", "ObjectSet.range_2d"),
    ("core.rank", "repro.core.mr3", "MR3QueryProcessor.query"),
    ("core.rank", "repro.core.ranking", "DistanceRanker.rank"),
    ("core.rank", "repro.core.ranking", "DistanceRanker.rank_within"),
    ("engine.query", "repro.core.engine", "SurfaceKNNEngine.query"),
    ("shard.query", "repro.shard.engine", "ShardedEngine.query"),
    ("shard.build_window", "repro.shard.engine", "ShardedEngine._build_window"),
)

_WRAPPED = "__perfbench_span__"


class Span:
    """One traced call."""

    __slots__ = ("name", "start", "end", "parent", "query")

    def __init__(self, name, start, end, parent=None, query=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.query = query

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span -> its duration minus the part of it its children cover.

    Children are clipped to the parent's interval first, so a child
    that outlives its parent (it cannot on one thread) never drives a
    self time negative."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = {}
    for span in spans:
        kids = children.get(id(span), ())
        clipped = [
            (max(k.start, span.start), min(k.end, span.end))
            for k in kids
            if k.end > span.start and k.start < span.end
        ]
        out[span] = span.duration - _covered(clipped)
    return out


class LayerTracer:
    """Installs span-recording wrappers on the layer entry points.

    ``install`` and ``uninstall`` are idempotent; use the tracer as a
    context manager to make sure the library is left unpatched.
    ``targets`` defaults to :data:`TARGETS`; tests pass their own.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._query_ids = itertools.count()

    # -- recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        is_root = name in QUERY_ROOTS

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)
            if parent is not None and parent.query is not None:
                query = parent.query
            else:
                query = next(tracer._query_ids) if is_root else None
            span = Span(name, time.thread_time(), 0.0, parent, query)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.thread_time()
                stack.pop()
                tracer.spans.append(span)

        setattr(traced, _WRAPPED, name)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching -----------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> "LayerTracer":
        if self._patches:
            return self
        try:
            for name, module_name, path in self.targets:
                self._install_one(name, module_name, path)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_one(self, name: str, module_name: str, path: str) -> None:
        try:
            module = import_module(module_name)
        except ImportError:
            module = None
        found = _lookup(module, path)
        if found is None or not callable(getattr(found[2], "__func__", found[2])):
            raise LookupError(f"trace target {module_name}.{path} not found")
        owner, attr, raw = found
        if _is_wrapped(raw):
            raise RuntimeError(f"{module_name}.{path} is already traced")
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(owner, attr, type(raw)(self._wrap(name, raw.__func__)), raw)
        elif isinstance(owner, type):
            self._set(owner, attr, self._wrap(name, raw), raw)
        else:
            # Every repro module that bound the function by name.
            wrapper = self._wrap(name, raw)
            for mod in _repro_modules():
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapper, raw)

    def _set(self, owner, attr: str, new, original) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ------------------------------------------------------

    def mark(self) -> int:
        """Position in the span log, for :meth:`since`."""
        return len(self.spans)

    def since(self, mark: int) -> list[Span]:
        """Spans that ended after :meth:`mark` returned ``mark``."""
        return self.spans[mark:]


def _repro_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _lookup(module, path: str):
    """``(owner, attribute, raw value)`` of a target, or None."""
    if module is None:
        return None
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None or (owner_name and not isinstance(owner, type)):
        return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


def _is_wrapped(value) -> bool:
    return getattr(getattr(value, "__func__", value), _WRAPPED, None) is not None


def leftover_wrappers(targets=TARGETS) -> list[str]:
    """Entry points that still carry a benchmark wrapper (should be
    empty whenever no tracer is installed)."""
    left = {
        f"{mod.__name__}.{key}"
        for mod in _repro_modules()
        for key, value in list(vars(mod).items())
        if _is_wrapped(value)
    }
    for _name, module_name, path in targets:
        found = _lookup(sys.modules.get(module_name), path)
        if found is not None and _is_wrapped(found[2]):
            left.add(f"{module_name}.{path}")
    return sorted(left)


def layer_totals(spans, selfs=None) -> dict:
    """Span name -> ``{"calls", "self_s"}`` summed over ``spans``."""
    selfs = selfs if selfs is not None else self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[span]
    return out
