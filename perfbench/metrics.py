"""Small measurement helpers shared by the benchmark runner."""

from __future__ import annotations

import heapq
import os
import platform
import re
import resource
import statistics
import time

import numpy as np

#: Metric names the result format allows.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail_percentile(samples) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest order statistic that
    still has at least :data:`TAIL_BEYOND` samples above it.

    With ``n`` samples that is the ``(n - 10)``-th smallest, i.e. the
    ``100 * (n - 10) / n`` percentile.  Up to ``2 * 10`` samples that
    order statistic would sit under the median, so the median is
    returned as percentile 50 instead; the caller reports ``n`` beside
    the value either way.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


#: The probe's thread CPU time at the reference host speed every time
#: is scaled to: its median over a four-minute series on a 2-vCPU
#: Xeon cloud VM (Python 3.11, numpy 2.4).
PROBE_REF_S = 0.004

_PROBE_SIDE = 40
_PROBE_GRAPH = {
    r * _PROBE_SIDE + c: [
        ((r + dr) * _PROBE_SIDE + c + dc, 1.0 + (7 * r + 3 * c + dr + 2 * dc) % 5 / 10)
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
        if 0 <= r + dr < _PROBE_SIDE and 0 <= c + dc < _PROBE_SIDE
    ]
    for r in range(_PROBE_SIDE)
    for c in range(_PROBE_SIDE)
}
_PROBE_ARRAY = np.linspace(0.0, 1.0, 64)


def probe() -> float:
    """Thread CPU seconds of a fixed reference computation (a heap
    Dijkstra over a fixed grid graph and small numpy calls, the mix the
    library spends its time in; it calls no library code).

    A shared host's speed swings by up to 3x over seconds, and whole
    runs land in a fast or a slow spell.  Timing this probe right
    before and after a measured call, in the same thread, gives the
    host's speed during the call: a time ``t`` is reported as
    ``t * PROBE_REF_S / probe``, the time the call would take at the
    reference speed.  A change to the library moves that figure; the
    host's spells mostly do not.
    """
    start = time.thread_time()
    dist, heap, done = {0: 0.0}, [(0.0, 0)], set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for w, weight in _PROBE_GRAPH[v]:
            if d + weight < dist.get(w, float("inf")):
                dist[w] = d + weight
                heapq.heappush(heap, (d + weight, w))
    for i in range(200):
        float(np.sqrt(_PROBE_ARRAY * i).sum())
    return time.thread_time() - start


def scaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` measured while the probe took ``probe_seconds``,
    scaled to the reference host speed."""
    return seconds * PROBE_REF_S / probe_seconds


def check_names(metrics: dict) -> None:
    """Raise ``ValueError`` on a metric name the result format refuses."""
    bad = [name for name in metrics if not NAME_RE.match(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int, workers: int) -> dict:
    """The environment block printed with every run."""
    try:
        from repro.geodesic.csr import kernel_mode

        mode = kernel_mode()
    except ImportError:
        mode = "n/a"
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "kernel_mode": mode,
        "seed": seed,
    }
