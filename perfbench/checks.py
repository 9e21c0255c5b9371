"""Correctness checks, run outside the timed window.

Every answer goes through the structural oracles of
:mod:`repro.testkit.oracles`; a fixed sample of each run's queries
also goes through the interval-sandwich and top-k oracles against
exact geodesic ground truth.  Repeated passes over the same queries
must give the same answers.
"""

from __future__ import annotations

from repro.core.baseline import exact_knn
from repro.testkit.oracles import EPS, TIE_TOLERANCE, OracleContext, run_oracles

STRUCTURAL = ("result_shape", "kth_interval_valid", "levels_ascend",
              "trace_io_reconciles")
AGAINST_TRUTH = ("interval_sandwich", "topk_agreement")


def answer_key(result, pages: bool = True) -> tuple:
    """What two runs of one query must agree on: the neighbour set in
    order, the intervals, the logical reads and, when the workload's
    page counts repeat, the pages accessed."""
    key = (
        tuple(result.object_ids),
        tuple((float(lb), float(ub)) for lb, ub in result.intervals),
        bool(result.degraded),
        result.metrics.logical_reads,
    )
    return key + (result.metrics.pages_accessed,) if pages else key


def structural_violations(outcome) -> list[str]:
    """Oracle messages for one executed query (an error is one)."""
    if outcome.result is None:
        return [outcome.error or "no result"]
    ctx = OracleContext(result=outcome.result, truth=[], k=outcome.query.k)
    return [str(v) for v in run_oracles(ctx, STRUCTURAL)]


def truth_check(mesh, objects, outcome) -> tuple[list[str], int]:
    """Oracle messages against exact ground truth (the full exact
    ranking of every object from the query vertex), and how many of
    the returned objects belong to the exact top k.

    The oracles pin the returned set only for converged answers; the
    count covers every answer, so an answer that stops refining early
    shows as fewer hits.  A returned object within the oracles' tie
    allowance of the true k-th distance counts as a hit.
    """
    if outcome.result is None:
        return [outcome.error or "no result"], 0
    result = outcome.result
    k = outcome.query.k
    truth = exact_knn(mesh, objects, result.query_vertex, len(objects))
    ctx = OracleContext(result=result, truth=truth, k=k)
    allowance = truth[k - 1][1] * TIE_TOLERANCE + EPS
    dist = dict(truth)
    hits = sum(dist[obj] <= allowance for obj in set(result.object_ids))
    return [str(v) for v in run_oracles(ctx, AGAINST_TRUTH)], hits


def mismatches(reference, other, pages: bool = True) -> list[int]:
    """Indices where two passes over the same queries disagree."""
    return [
        i
        for i, (a, b) in enumerate(zip(reference, other))
        if (a.result is None) != (b.result is None)
        or (a.result is not None
            and answer_key(a.result, pages) != answer_key(b.result, pages))
    ]
