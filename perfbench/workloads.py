"""The benchmark's workloads.

Each workload fixes a dataset (terrain and objects, like the paper's
fixed DEMs) and a query design: one query at the centre of each cell
of a grid laid over the terrain, with ``k`` fixed per cell.  Warm-up
passes ask the queries in one fixed order, and the run's seed draws a
new order for every timed pass: a query's cost moves by up to 15 %
with the queries asked before it, so its latency is a median over
several orders.  Every run asks the same queries: per-query cost on
these terrains spans two orders of magnitude between neighbouring
vertices, so a few dozen randomly placed queries per run gave
run-to-run spreads of 7-360 % on the latency and throughput figures,
wider than any regression bound the benchmark could set.

Engines are built the way a user builds them: library defaults, no
kernel-mode switch, no landmarks.  The reasons each workload exists
are in ``BENCHMARK.json``.

A query's latency is the CPU time of the thread that ran it.  The
program does no real I/O (its disk is simulated), so wall time adds
only what the host takes from the virtual CPU.  In the batch workload
a query's latency therefore leaves out waiting for the interpreter
lock; that workload's pass is also timed by the wall clock, so
contention between its workers shows in its throughput.  The speed
probe of ``metrics.probe`` runs right before and after every query, in
the thread that runs it, so the runner can scale each latency to the
reference host speed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from metrics import PROBE_REF_S, probe, scaled
from repro import bearhead_like
from repro.core import BatchQueryExecutor, SurfaceKNNEngine
from repro.core.batch import BatchQuery, BoundCache
from repro.core.objects import ObjectSet
from repro.errors import SurfKnnError
from repro.shard import ShardedEngine
from repro.terrain.mesh import TriangleMesh
from repro.terrain.synthetic import fractal_dem

#: Worker threads for the batch executor and parallel tile builds:
#: never more than the CPUs this process may run on.
WORKERS = len(os.sched_getaffinity(0))


@dataclass
class Query:
    """One generated query input."""

    vertex: int | None
    k: int
    #: Also checked against exact geodesic ground truth.
    checked: bool = False


@dataclass
class Outcome:
    """One executed query: its result (None on error), its latency
    (CPU seconds of the thread that ran it) and the mean time of the
    speed probe run right before and after it in that thread."""

    query: Query
    result: object
    latency: float
    probe: float
    error: str | None = None

    @property
    def scaled(self) -> float:
        """The latency at the reference host speed."""
        return scaled(self.latency, self.probe)


@dataclass
class PassReport:
    """One pass over the workload's queries: the process CPU seconds
    and wall seconds it took."""

    outcomes: list
    cpu: float
    wall: float
    cache_stats: dict = field(default_factory=dict)


def _lattice(rows: int, cols: int, nr: int, nc: int):
    """The centre ``(row, col)`` (floats) of each cell of an ``nr x nc``
    grid over a ``rows x cols`` vertex grid, row-major."""
    return [
        ((i + 0.5) / nr * (rows - 1), (j + 0.5) / nc * (cols - 1))
        for i in range(nr)
        for j in range(nc)
    ]


def _vertices(dem, nr: int, nc: int) -> list[int]:
    """Nearest mesh vertex of each lattice point, row-major."""
    return [
        int(round(r)) * dem.cols + int(round(c))
        for r, c in _lattice(dem.rows, dem.cols, nr, nc)
    ]


def _ordered(design: list, checked: int) -> list:
    """The design in a fixed shuffled order, with ``checked`` evenly
    spaced entries of the design marked for the ground-truth check."""
    for j in range(checked):
        design[int((j + 0.5) * len(design) / checked)].checked = True
    return [design[i] for i in np.random.default_rng(0).permutation(len(design))]


def _timed(fn, query: Query) -> Outcome:
    """Run one query with the speed probe right before and after it."""
    before = probe()
    start = time.thread_time()
    result, error = None, None
    try:
        result = fn(query)
    except SurfKnnError as exc:
        error = f"{type(exc).__name__}: {exc}"
    latency = time.thread_time() - start
    return Outcome(query, result, latency, (before + probe()) / 2, error)


def _serial_pass(fn, queries) -> PassReport:
    cpu, wall = time.process_time(), time.perf_counter()
    outcomes = [_timed(fn, q) for q in queries]
    return PassReport(
        outcomes, time.process_time() - cpu, time.perf_counter() - wall
    )


class _CpuTimedEngine:
    """Forwards everything to an engine and records the thread CPU time
    and probe time of each ``query`` call, keyed by the id of the
    result."""

    def __init__(self, engine):
        object.__setattr__(self, "_engine", engine)
        object.__setattr__(self, "cpu", {})

    def query(self, *args, **kwargs):
        before = probe()
        start = time.thread_time()
        result = self._engine.query(*args, **kwargs)
        latency = time.thread_time() - start
        self.cpu[id(result)] = (latency, (before + probe()) / 2)
        return result

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def __setattr__(self, name, value):
        setattr(self._engine, name, value)


class Workload:
    """Base: a dataset, a query generator and a pass runner."""

    name = ""
    #: Rounds per run, each an engine build, a warm-up pass and at
    #: least one timed pass; ``setup_s`` is the median over the
    #: rounds and ``warmup_s`` the mean.
    rounds = 3
    #: Queries of the design that are also checked against exact
    #: geodesic ground truth.
    truth_sample = 2
    #: Whether a pass is timed by the wall clock (concurrent workers)
    #: rather than by process CPU time (one client).
    wall_clock = False
    #: Whether physical page counts repeat exactly between passes
    #: (false when worker threads share buffer state).
    pages_repeat = True
    #: Whether each timed pass asks the queries in an order drawn from
    #: the run's seed.  Warm-up passes keep the fixed order, so they do
    #: the same work in every run.
    reorder = True

    def dem(self):
        raise NotImplementedError

    def build(self, dem):
        raise NotImplementedError

    def queries(self, dem) -> list[Query]:
        raise NotImplementedError

    def run_pass(self, engine, queries) -> PassReport:
        raise NotImplementedError

    def truth_mesh(self, engine, dem):
        """``(mesh, objects)`` the exact ground truth runs on."""
        return engine.mesh, engine.objects


class RuggedKSweep(Workload):
    name = "rugged_ksweep"
    GRID = (2, 2)
    #: k per lattice point (row-major), weighted toward small k.  The
    #: sweep stops at 10: one k=20 query here costs 3-5 CPU seconds,
    #: more than the rest of the pass together.
    KS = (3, 5,
          10, 3)
    #: Two rounds, so that a run's time goes to timed passes: a pass
    #: takes ~4 s, and a query's latency is a median over them.
    rounds = 2

    def dem(self):
        return bearhead_like(size=33)

    def build(self, dem):
        return SurfaceKNNEngine(TriangleMesh.from_dem(dem), density=8.0, seed=0)

    def queries(self, dem):
        cells = _vertices(dem, *self.GRID)
        queries = [Query(vertex=v, k=self.KS[i]) for i, v in enumerate(cells)]
        return _ordered(queries, self.truth_sample)

    def run_pass(self, engine, queries):
        return _serial_pass(
            lambda q: engine.query(q.vertex, q.k, step_length=2), queries
        )


class HotspotBatch(RuggedKSweep):
    name = "hotspot_batch"
    pages_repeat = False
    wall_clock = True
    #: The query order stays fixed: it decides which queries the
    #: workers run side by side and which pays for filling the bound
    #: cache.  Seeded orders moved the tail latency by 20 % between
    #: runs, and a new order per pass by 64 %.
    reorder = False
    #: Four warm-ups: which worker fills the bound cache first varies,
    #: so a warm-up pass takes one of two times ~25 % apart.
    rounds = 4
    HOTSPOTS = (1, 3)
    QUERIES = 6
    ZIPF_S = 1.2

    def queries(self, dem):
        spots = _vertices(dem, *self.HOTSPOTS)
        # Zipf shares rounded to whole query counts (largest remainder).
        weights = 1.0 / np.arange(1, len(spots) + 1) ** self.ZIPF_S
        share = self.QUERIES * weights / weights.sum()
        counts = np.floor(share).astype(int)
        for i in np.argsort(counts - share)[: self.QUERIES - counts.sum()]:
            counts[i] += 1
        out = [
            Query(vertex=spot, k=(3, 5)[j % 2])
            for spot, count in zip(spots, counts)
            for j in range(count)
        ]
        return _ordered(out, self.truth_sample)

    def run_pass(self, engine, queries):
        timed = _CpuTimedEngine(engine)
        executor = BatchQueryExecutor(
            timed, workers=WORKERS, cold_cache=False, bound_cache=BoundCache()
        )
        cpu = time.process_time()
        report = executor.run(
            [BatchQuery(vertex=q.vertex, k=q.k, step_length=2) for q in queries]
        )
        cpu = time.process_time() - cpu
        errors = {e.index: f"{e.kind}: {e.message}" for e in report.errors}
        outcomes = [
            Outcome(q, r, *timed.cpu.get(id(r), (0.0, PROBE_REF_S)), errors.get(i))
            for i, (q, r) in enumerate(zip(queries, report.results))
        ]
        return PassReport(outcomes, cpu, report.wall_seconds, report.cache_stats)


class TiledTerrain(Workload):
    name = "tiled_terrain"
    #: The middle row and column of queries sit on the tile cuts.
    GRID = (3, 3)

    def dem(self):
        # 25x25 rather than 65x65: at 65 one run took 55 s and 1.3 GB,
        # and at 33 the warm-up pass, which builds the escalation
        # windows, took 9-16 CPU seconds; a run here makes three.
        return fractal_dem(25, 90, 700, 0.7)

    def build(self, dem):
        engine = ShardedEngine(dem, density=30.0, seed=0, max_workers=WORKERS)
        engine.warm()
        return engine

    def queries(self, dem):
        queries = [Query(vertex=v, k=5) for v in _vertices(dem, *self.GRID)]
        return _ordered(queries, self.truth_sample)

    def run_pass(self, engine, queries):
        return _serial_pass(lambda q: engine.query(q.vertex, q.k), queries)

    def truth_mesh(self, engine, dem):
        mesh = TriangleMesh.from_dem(dem)
        return mesh, ObjectSet(mesh, [int(v) for v in engine.object_vertices])


WORKLOADS = {
    w.name: w for w in (RuggedKSweep(), HotspotBatch(), TiledTerrain())
}
