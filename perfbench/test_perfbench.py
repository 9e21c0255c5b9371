"""Self-tests for the benchmark's helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for _path in (str(HERE), str(HERE.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import metrics  # noqa: E402
import tracing  # noqa: E402
from tracing import LayerTracer, Span, leftover_wrappers, self_times  # noqa: E402


# -- tail percentile ------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    value, pct, n = metrics.tail_percentile(samples)
    assert n == 100
    assert pct == 90.0
    assert sum(1 for s in samples if s > value) == 10


def test_tail_with_25_samples_is_p60():
    value, pct, n = metrics.tail_percentile(range(25))
    assert (value, pct, n) == (14, 60.0, 25)
    assert sum(1 for s in range(25) if s > value) == 10


def test_tail_never_falls_below_the_median():
    value, pct, n = metrics.tail_percentile([5.0, 1.0, 3.0] * 5)
    assert (value, pct, n) == (3.0, 50.0, 15)
    value, pct, n = metrics.tail_percentile(range(20))
    assert (value, pct, n) == (9.5, 50.0, 20)
    value, pct, n = metrics.tail_percentile(range(21))
    assert value == 10 and n == 21


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        metrics.tail_percentile([])


# -- host speed ------------------------------------------------------------


def test_scaling_to_the_reference_speed():
    ref = metrics.PROBE_REF_S
    assert metrics.scaled(0.3, ref) == pytest.approx(0.3)
    # A probe twice as slow as the reference: the host ran at half speed.
    assert metrics.scaled(0.3, 2 * ref) == pytest.approx(0.15)
    assert metrics.probe() > 0.0


# -- self time ------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    root = Span("root", 0.0, 10.0)
    a = Span("a", 1.0, 4.0, parent=root)
    b = Span("b", 3.0, 6.0, parent=root)
    leaf = Span("leaf", 2.0, 3.0, parent=a)
    selfs = self_times([root, a, b, leaf])
    # Overlapping children count once: root loses [1, 6].
    assert selfs[root] == pytest.approx(5.0)
    assert selfs[a] == pytest.approx(2.0)
    assert selfs[b] == pytest.approx(3.0)
    assert selfs[leaf] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent():
    root = Span("root", 0.0, 2.0)
    child = Span("child", 1.0, 5.0, parent=root)
    assert self_times([root, child])[root] == pytest.approx(1.0)


def test_layer_totals_counts_calls_and_self():
    root = Span("r", 0.0, 4.0)
    kids = [Span("k", 0.0, 1.0, root), Span("k", 2.0, 3.0, root)]
    totals = tracing.layer_totals([root, *kids])
    assert totals["k"] == {"calls": 2, "self_s": 2.0}
    assert totals["r"]["self_s"] == pytest.approx(2.0)


# -- metric names ---------------------------------------------------------


def test_metric_names_are_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in spec[section]]
    assert len(names) == len(set(names))
    metrics.check_names(dict.fromkeys(names))
    for bad in ("latency p50", "1/s", "", "_x", "a" * 65, "é"):
        with pytest.raises(ValueError):
            metrics.check_names({bad: 1.0})


# -- wrappers -------------------------------------------------------------


def _originals():
    from repro.core.engine import SurfaceKNNEngine
    from repro.geodesic import pathnet
    from repro.multires import dmtm
    from repro.terrain.mesh import TriangleMesh

    return {
        "from_dem": vars(TriangleMesh)["from_dem"],
        "query": vars(SurfaceKNNEngine)["query"],
        "build_pathnet": pathnet.build_pathnet,
        "dmtm.build_pathnet": dmtm.build_pathnet,
    }


def test_install_and_uninstall_are_idempotent():
    before = _originals()
    tracer = LayerTracer()
    tracer.install()
    patched = len(tracer._patches)
    assert patched > 0
    assert tracer.install() is tracer
    assert len(tracer._patches) == patched
    during = _originals()
    assert during["build_pathnet"] is not before["build_pathnet"]
    # A name imported into another module is patched there too.
    assert during["dmtm.build_pathnet"] is during["build_pathnet"]
    assert leftover_wrappers()
    tracer.uninstall()
    tracer.uninstall()
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    assert leftover_wrappers() == []
    assert not tracer.installed


def test_second_tracer_refuses_to_stack():
    first = LayerTracer()
    with first:
        with pytest.raises(RuntimeError):
            LayerTracer().install()
        assert first.installed
    assert leftover_wrappers() == []


@pytest.mark.parametrize("target", [
    ("x", "repro.core.engine", "SurfaceKNNEngine.no_such_method"),
    ("y", "repro.no_such_module", "f"),
])
def test_missing_target_fails_the_install(target):
    before = _originals()
    tracer = LayerTracer(targets=[
        ("engine.query", "repro.core.engine", "SurfaceKNNEngine.query"),
        target,
    ])
    with pytest.raises(LookupError):
        tracer.install()
    assert not tracer.installed
    assert leftover_wrappers() == []
    assert _originals() == before


def test_traced_query_records_one_query_tree():
    from repro import bearhead_like
    from repro.core import SurfaceKNNEngine

    tracer = LayerTracer()
    with tracer:
        engine = SurfaceKNNEngine.from_dem(bearhead_like(size=9), density=40.0)
        mark = tracer.mark()
        traced = engine.query(40, 2)
    plain = engine.query(40, 2)
    assert traced.object_ids == plain.object_ids
    assert traced.intervals == plain.intervals
    spans = tracer.since(mark)
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["engine.query"]
    assert {s.query for s in spans} == {roots[0].query}
    names = {s.name for s in spans}
    assert {"core.rank", "storage.read", "spatial.filter"} <= names
    assert {"msdn.build", "multires.dmtm_build"} <= {s.name for s in tracer.spans}
    assert leftover_wrappers() == []


# -- ground truth ---------------------------------------------------------


def test_truth_check_counts_exact_top_k_hits():
    import dataclasses

    import checks
    from repro import bearhead_like
    from repro.core import SurfaceKNNEngine
    from repro.core.baseline import exact_knn
    from workloads import Outcome, Query

    engine = SurfaceKNNEngine.from_dem(bearhead_like(size=9), density=40.0)
    result = engine.query(40, 2)
    msgs, hits = checks.truth_check(
        engine.mesh, engine.objects, Outcome(Query(vertex=40, k=2), result, 0.0, 0.004)
    )
    assert msgs == [] and hits == 2
    # An unconverged answer is not pinned by the top-k oracle, but a
    # far object in it still costs a hit.
    farthest = exact_knn(engine.mesh, engine.objects, 40, len(engine.objects))[-1][0]
    wrong = dataclasses.replace(
        result, object_ids=[result.object_ids[0], farthest], converged=False
    )
    _msgs, hits = checks.truth_check(
        engine.mesh, engine.objects, Outcome(Query(vertex=40, k=2), wrong, 0.0, 0.004)
    )
    assert hits == 1
