"""Cold-cache concurrency stress on the default (array) data path.

The array path fills several memos lazily on the query path, and the
batch executor's workers share them on one engine:

* ``MSDN._hop_cache`` (bounded LRU under a lock), ``_chunk_boxes3d``
  and ``_chunk_pages``;
* ``DMTM._node_pages`` and ``_face_pages``, and the DDM's flattened
  record arrays behind array cut extraction;
* ``mesh._round0_pathnet`` (Kanai–Suzuki round 0) and the list
  mirror its CSR form materialises on first heap-kernel search.

Each run starts from a fresh mesh object and a fresh engine, so every
memo is empty when four workers hit it at once; the answers must be
bit-identical to a sequential loop on another cold engine.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.batch import BatchQueryExecutor
from repro.core.engine import SurfaceKNNEngine
from repro.geodesic.csr import CSRGraph
from repro.msdn import msdn as msdn_module
from repro.terrain.mesh import TriangleMesh
from repro.testkit.generators import standard_mesh


def cold_engine() -> SurfaceKNNEngine:
    """An engine on a fresh copy of the BH test mesh: no memo of any
    earlier query (round-0 pathnet included) is attached to it."""
    base = standard_mesh("BH", 17)
    mesh = TriangleMesh(base.vertices.copy(), base.faces.copy())
    return SurfaceKNNEngine(mesh, density=10.0, seed=3)


def workload(num_vertices: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(5)
    vertices = rng.integers(0, num_vertices, size=12)
    return [(int(v), k) for v, k in zip(vertices, [2, 3, 4, 5] * 3)]


def fingerprint(result):
    return (
        tuple(result.object_ids),
        tuple(result.intervals),
        result.metrics.logical_reads,
    )


@pytest.fixture
def fast_switching():
    """Switch threads every 10 µs instead of every 5 ms, so workers
    interleave inside the memo fills rather than between queries."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


@pytest.fixture(scope="module")
def sequential_answers():
    engine = cold_engine()
    queries = workload(engine.mesh.num_vertices)
    return [
        fingerprint(engine.query(qv, k, step_length=2)) for qv, k in queries
    ]


@pytest.mark.parametrize("hop_budget", [None, 2 * 32768 + 1])
@pytest.mark.parametrize("run", range(4))
def test_four_workers_on_cold_memos_match_sequential(
    run, hop_budget, sequential_answers, fast_switching, monkeypatch
):
    if hop_budget is not None:
        # A budget of two hop matrices keeps the LRU evicting while
        # the workers insert.
        monkeypatch.setattr(msdn_module, "HOP_CACHE_BYTES", hop_budget)
    engine = cold_engine()
    mesh, msdn, dmtm = engine.mesh, engine.msdn, engine.dmtm
    assert getattr(mesh, "_round0_pathnet", None) is None
    assert dmtm._node_pages is None and dmtm._face_pages is None
    assert not msdn._chunk_boxes3d and not msdn._chunk_pages
    assert msdn._hop_cache.nbytes == 0

    queries = workload(mesh.num_vertices)
    report = BatchQueryExecutor(engine, workers=4).run(
        [{"vertex": qv, "k": k, "step_length": 2} for qv, k in queries]
    )
    assert not report.errors
    assert [fingerprint(r) for r in report.results] == sequential_answers

    # Every memo the stress is about was filled under the workers.
    assert mesh._round0_pathnet.csr_if_compiled()._indptr_list is not None
    assert dmtm._node_pages is not None and dmtm._face_pages is not None
    assert msdn._chunk_boxes3d and msdn._chunk_pages
    assert msdn._hop_cache.nbytes > 0
    if hop_budget is not None:
        assert msdn._hop_cache.nbytes <= hop_budget


class _Observed(np.ndarray):
    """An array whose ``tolist()`` first runs ``self.observe`` — what
    a second thread could see at that point of the materialisation."""

    def tolist(self):
        self.observe()
        return np.ndarray.tolist(self)


def test_csr_list_mirror_is_published_whole():
    """``CSRGraph.lists()`` publishes ``_indptr_list`` last: readers
    take a set ``_indptr_list`` to mean all three lists are there."""
    csr = CSRGraph(
        np.array([0, 1, 2]), np.array([1, 0]), np.array([1.5, 1.5])
    )
    states = []

    def observe():
        states.append(
            csr._indptr_list is None
            or (csr._indices_list is not None and csr._weights_list is not None)
        )

    observed = []
    for array in csr._arrays:
        array = array.view(_Observed)
        array.observe = observe
        observed.append(array)
    csr._arrays = tuple(observed)
    assert csr.lists() == ([0, 1, 2], [1, 0], [1.5, 1.5])
    assert states == [True, True, True]
