"""The MSDN facade: SDNs at several resolutions + lower-bound queries.

Responsibilities:

* build crossing lines for both x- and y-plane families at terrain
  construction time (the paper pre-creates MSDN and stores it in the
  database);
* keep chunked SDNs per resolution, with plane *density* reduced at
  low resolutions as the paper prescribes ("for a request of low
  resolution SDN data, we reduce the density of crossing lines
  selected too");
* choose the plane family per query by the dominant direction of the
  (a, b) xy projection (the paper's 45° heuristic: use the family
  that actually separates the two points);
* answer lower-bound queries restricted to a region of interest, with
  optional *dummy lower bound* corridors (§4.2.2) for the CPU
  optimisation benches;
* when storage is attached, charge page I/O for the chunks fetched.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError
from repro.geometry.primitives import BoundingBox
from repro.msdn.crossing import (
    adaptive_plane_positions,
    crossing_line,
    plane_positions,
    supersample_polyline,
)
from repro.geodesic.csr import kernel_mode
from repro.obs.metrics import get_registry
from repro.msdn.sdn import (
    SdnChunk,
    _boxes_to_boxes,
    build_sdn_chunks,
    greedy_chain_length,
    lower_bound_via_planes,
    lower_bound_via_planes_arrays,
)
from repro.storage.locator import LocatorStore
from repro.storage.pages import PageManager
from repro.storage.stats import PAGE_CLASS_MSDN

DEFAULT_RESOLUTIONS = (0.25, 0.375, 0.5, 0.75, 1.0)

#: Byte budget of each MSDN's hop cache.  Only unmasked plane pairs
#: are cached, and few distinct ones recur (13 pairs, 1.6 MiB over two
#: passes of a 33x33 rugged k-sweep), so the budget bounds a worst
#: case rather than sizing the common one.
HOP_CACHE_BYTES = 16 * 2**20


@dataclass
class LowerBoundResult:
    """Outcome of one MSDN lower-bound estimation."""

    value: float
    path_keys: list
    resolution: float
    chunks_used: int


def _roi_list(roi):
    if roi is None:
        return None
    if isinstance(roi, BoundingBox):
        roi = [roi]
    return [box.xy() if box.dim == 3 else box for box in roi]


def _box_mask(xy: np.ndarray, boxes) -> np.ndarray:
    """Vectorized intersects-any-box mask over an (m, 4) xy-MBR array
    laid out as [lo_x, lo_y, hi_x, hi_y]."""
    mask = np.zeros(xy.shape[0], dtype=bool)
    for box in boxes:
        mask |= (
            (xy[:, 0] <= box.hi[0])
            & (xy[:, 2] >= box.lo[0])
            & (xy[:, 1] <= box.hi[1])
            & (xy[:, 3] >= box.lo[1])
        )
    return mask


#: Every live hop cache, for the process-wide byte gauge.
_live_hop_caches: "weakref.WeakSet[_HopCache]" = weakref.WeakSet()
_live_hop_caches_lock = threading.Lock()


def hop_cache_bytes() -> int:
    """Bytes held by all live MSDN hop caches in this process — the
    value the ``msdn.hop_cache.bytes`` gauge publishes."""
    with _live_hop_caches_lock:
        return sum(cache.nbytes for cache in list(_live_hop_caches))


def _publish_hop_cache_bytes(registry) -> None:
    # Summing and setting under one lock makes the last write the
    # freshest total when several caches insert at once.
    with _live_hop_caches_lock:
        total = sum(cache.nbytes for cache in list(_live_hop_caches))
        registry.gauge("msdn.hop_cache.bytes").set(total)


class _HopCache:
    """LRU map of full plane-pair hop matrices under
    :data:`HOP_CACHE_BYTES`, shared by batch workers.

    Lookups and insertions hold the lock; a miss builds its matrix
    outside it, so two threads missing on one key at worst both
    build it (the matrices are equal, the second insert is dropped).
    Counts ``msdn.hop_cache.{hits,misses,evictions}``; after every
    insertion the ``msdn.hop_cache.bytes`` gauge is set to
    :func:`hop_cache_bytes`, the total over all MSDNs (sharded
    engines and escalation windows each hold one).
    """

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0
        with _live_hop_caches_lock:
            _live_hop_caches.add(self)

    def get_or_build(self, key, build) -> np.ndarray:
        registry = get_registry()
        with self._lock:
            hop = self._entries.get(key)
            if hop is not None:
                self._entries.move_to_end(key)
        if hop is not None:
            registry.counter("msdn.hop_cache.hits").add(1)
            return hop
        registry.counter("msdn.hop_cache.misses").add(1)
        hop = build()
        evictions = 0
        with self._lock:
            budget = HOP_CACHE_BYTES
            if key not in self._entries and hop.nbytes <= budget:
                self._entries[key] = hop
                self.nbytes += hop.nbytes
                while self.nbytes > budget:
                    _key, old = self._entries.popitem(last=False)
                    self.nbytes -= old.nbytes
                    evictions += 1
        if evictions:
            registry.counter("msdn.hop_cache.evictions").add(evictions)
        _publish_hop_cache_bytes(registry)
        return hop


class MSDN:
    """Multiresolution support distance network over a terrain mesh.

    Parameters
    ----------
    mesh:
        The original terrain mesh.
    spacing:
        Plane interval at full density; defaults to the mesh's mean
        edge length (the paper's highest-density recommendation).
    resolutions:
        SDN resolutions to materialize (fractions of crossing-line
        points kept).
    """

    def __init__(
        self,
        mesh,
        spacing: float | None = None,
        resolutions=DEFAULT_RESOLUTIONS,
        supersample: int = 8,
        adaptive_planes: float = 0.0,
    ):
        self.mesh = mesh
        if spacing is None:
            spacing = float(np.mean(mesh.edge_lengths))
        if spacing <= 0:
            raise QueryError("plane spacing must be positive")
        if supersample < 1:
            raise QueryError("supersample must be >= 1")
        self.spacing = spacing
        self.supersample = supersample
        self.adaptive_planes = float(adaptive_planes)
        self.resolutions = tuple(sorted(resolutions))
        bounds = mesh.xy_bounds()
        # Crossing lines per axis; the base (100 %) sampling is the
        # supersampled crossing line (see crossing.supersample_polyline).
        self._planes: dict[int, np.ndarray] = {}
        self._lines: dict[int, list] = {}
        for axis in (0, 1):
            if self.adaptive_planes > 0.0:
                values = adaptive_plane_positions(
                    mesh, spacing, axis, strength=self.adaptive_planes
                )
            else:
                values = plane_positions(bounds, spacing, axis)
            lines = []
            kept_values = []
            for value in values:
                line = crossing_line(mesh, axis, float(value))
                if line is not None:
                    lines.append(supersample_polyline(line, supersample))
                    kept_values.append(float(value))
            self._planes[axis] = np.asarray(kept_values)
            self._lines[axis] = lines
        # Chunked SDNs: (axis, resolution) -> list per plane, plus the
        # per-plane xy-MBR arrays [lo_x, lo_y, hi_x, hi_y] used for
        # vectorized ROI filtering.
        self._chunks: dict[tuple[int, float], list[list[SdnChunk]]] = {}
        self._chunk_xy: dict[tuple[int, float], list[np.ndarray]] = {}
        for axis in (0, 1):
            for res in self.resolutions:
                per_plane = [
                    build_sdn_chunks(line, axis, idx, float(self._planes[axis][idx]), res)
                    for idx, line in enumerate(self._lines[axis])
                ]
                self._chunks[(axis, res)] = per_plane
                self._chunk_xy[(axis, res)] = [
                    np.array(
                        [
                            (c.mbr.lo[0], c.mbr.lo[1], c.mbr.hi[0], c.mbr.hi[1])
                            for c in chunks
                        ]
                    ).reshape(-1, 4)
                    for chunks in per_plane
                ]
        self._store: LocatorStore | None = None
        # Lazy caches: per-(axis, resolution) 3D chunk-MBR arrays for
        # the array DP, the per-resolution key → chunk index for
        # corridor_from_path, per-plane page-id arrays for vectorized
        # I/O charging, and the bounded cache of unmasked plane-pair
        # hop matrices.  The dicts are filled by whole-value
        # assignment, so concurrent query threads at worst fill an
        # entry twice; the hop cache takes its own lock.
        self._chunk_boxes3d: dict[tuple[int, float], list] = {}
        self._corridor_index: dict[float, dict[tuple, SdnChunk]] = {}
        self._chunk_pages: dict[tuple[int, float], list[np.ndarray]] = {}
        self._hop_cache = _HopCache()

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def attach_storage(self, pages: PageManager) -> None:
        """Page out every chunk record (clustered by plane, then
        position along the plane) for I/O accounting."""
        items = []
        for (axis, res), per_plane in self._chunks.items():
            for chunks in per_plane:
                for chunk in chunks:
                    cluster = (axis, round(res * 1000), chunk.plane_index, chunk.first)
                    items.append((cluster, ("chunk",) + cluster, chunk.encode()))
        self._store = LocatorStore(items, pages, page_class=PAGE_CLASS_MSDN)
        self._chunk_pages.clear()

    def _touch(self, chunks: list[SdnChunk], resolution: float) -> None:
        if self._store is None:
            return
        ids = [
            ("chunk", c.axis, round(resolution * 1000), c.plane_index, c.first)
            for c in chunks
        ]
        self._store.touch(ids)

    def _plane_pages(self, axis: int, resolution: float) -> list[np.ndarray]:
        """Per-plane arrays of the page id backing each chunk, aligned
        with ``self._chunks[(axis, resolution)]`` rows — resolves the
        record-id → page mapping once so the array path charges I/O
        by page array instead of rebuilding record-id tuples per
        call."""
        key = (axis, resolution)
        cached = self._chunk_pages.get(key)
        if cached is None:
            store = self._store
            rk = round(resolution * 1000)
            cached = [
                np.array(
                    [
                        store.page_of(("chunk", c.axis, rk, c.plane_index, c.first))
                        for c in layer
                    ],
                    dtype=np.int64,
                )
                for layer in self._chunks[key]
            ]
            self._chunk_pages[key] = cached
        return cached

    # ------------------------------------------------------------------
    # resolution policy
    # ------------------------------------------------------------------

    def plane_stride(self, resolution: float) -> int:
        """Plane-density reduction at low resolution (paper §3.3)."""
        return max(1, int(round(0.5 / resolution)))

    def nearest_resolution(self, resolution: float) -> float:
        return min(self.resolutions, key=lambda r: abs(r - resolution))

    # ------------------------------------------------------------------
    # lower bounds
    # ------------------------------------------------------------------

    @staticmethod
    def choose_axis(point_a, point_b) -> int:
        """Plane family that separates the pair: x-planes (axis 0)
        when the pair is spread mostly along x, else y-planes.

        (The paper's §3.3 heuristic compares the projection angle with
        45°; a plane family parallel to the motion would contribute no
        separating planes.)
        """
        dx = abs(float(point_b[0]) - float(point_a[0]))
        dy = abs(float(point_b[1]) - float(point_a[1]))
        return 0 if dx >= dy else 1

    def _layers_between(
        self, axis: int, resolution: float, lo: float, hi: float, stride: int
    ) -> list[tuple[list[SdnChunk], np.ndarray]]:
        planes = self._planes[axis]
        # Vectorized strict-interval selection (same planes, same
        # order, same post-filter stride as the scalar loop it
        # replaces).
        idxs = np.nonzero((planes > lo) & (planes < hi))[0][:: max(1, stride)]
        per_plane = self._chunks[(axis, resolution)]
        bounds = self._chunk_xy[(axis, resolution)]
        return [(per_plane[int(i)], bounds[int(i)]) for i in idxs]

    def touch_region(self, resolution: float, roi=None, axes=(0, 1)) -> None:
        """Charge page I/O for the chunks a lower-bound estimation
        over ``roi`` would fetch (integrated I/O regions call this
        once per merged region, then estimate with
        ``charge_io=False``)."""
        resolution = self.nearest_resolution(resolution)
        roi = _roi_list(roi)
        if kernel_mode() != "reference" and self._store is not None:
            # Page-array fast path: same distinct pages read per
            # plane, in the same ascending order, without building
            # per-chunk record-id tuples.
            store = self._store
            for axis in axes:
                bounds = self._chunk_xy[(axis, resolution)]
                pages = self._plane_pages(axis, resolution)
                for xy, page_arr in zip(bounds, pages):
                    if roi is None:
                        plane_pages = page_arr
                    else:
                        plane_pages = page_arr[_box_mask(xy, roi)]
                    if plane_pages.size:
                        store.touch_pages(plane_pages)
            return
        for axis in axes:
            layers = self._chunks[(axis, resolution)]
            bounds = self._chunk_xy[(axis, resolution)]
            for layer, xy in zip(layers, bounds):
                if roi is None:
                    chunks = layer
                else:
                    mask = _box_mask(xy, roi)
                    chunks = [layer[j] for j in np.nonzero(mask)[0]]
                if chunks:
                    self._touch(chunks, resolution)

    def lower_bound(
        self,
        point_a,
        point_b,
        resolution: float,
        roi=None,
        corridor=None,
        charge_io: bool = True,
    ) -> LowerBoundResult:
        """Estimate ``lb(a, b)`` at an SDN resolution.

        Parameters
        ----------
        point_a, point_b:
            3D surface points.
        resolution:
            One of the materialized SDN resolutions.
        roi:
            Optional region(s) restricting which chunks are used —
            safe because any path shorter than the current upper
            bound projects inside the ellipse region the caller
            supplies.
        corridor:
            Optional list of boxes forming a *dummy lower bound*
            envelope (§4.2.2): restrict chunks to the corridor; the
            result then *over*-estimates the true SDN lower bound and
            may only be used for the early-accept test.

        The result is always >= the Euclidean distance and always a
        valid lower bound of ``dS`` when ``corridor`` is None.
        """
        return self._lower_bound_at(
            np.asarray(point_a, dtype=float),
            np.asarray(point_b, dtype=float),
            self.nearest_resolution(resolution),
            _roi_list(roi),
            _roi_list(corridor),
            charge_io,
        )

    def lower_bound_batch(
        self,
        point_a,
        targets,
        resolution: float,
        rois=None,
        charge_io: bool = False,
    ) -> list[LowerBoundResult]:
        """Lower bounds from one source toward many targets in one
        call — the ranking loop's per-level batch.

        ``targets`` is a sequence of 3D points; ``rois`` (optional) a
        parallel sequence of per-target region arguments.  Each bound
        runs the exact computation of :meth:`lower_bound` (values are
        bit-identical); the batch only hoists the per-call setup —
        resolution snapping, source-point conversion, ROI
        normalization — out of the inner loop.
        """
        resolution = self.nearest_resolution(resolution)
        pa = np.asarray(point_a, dtype=float)
        if rois is None:
            rois = [None] * len(targets)
        return [
            self._lower_bound_at(
                pa,
                np.asarray(point_b, dtype=float),
                resolution,
                _roi_list(roi),
                None,
                charge_io,
            )
            for point_b, roi in zip(targets, rois)
        ]

    def lower_bound_below(
        self,
        point_a,
        point_b,
        resolution: float,
        threshold: float,
        roi=None,
        corridor=None,
    ) -> bool:
        """Whether ``lower_bound(point_a, point_b, resolution, roi=roi,
        corridor=corridor).value < threshold`` — the ranking loop's
        dummy-lower-bound test, which needs only the comparison.

        On the array path a greedy chain
        (:func:`repro.msdn.sdn.greedy_chain_length`, never below the
        DP value) decides the common case, a bound well under the
        threshold, with one hop row per plane; only when the chain
        does not reach below the threshold does the full DP run.
        """
        pa = np.asarray(point_a, dtype=float)
        pb = np.asarray(point_b, dtype=float)
        resolution = self.nearest_resolution(resolution)
        roi = _roi_list(roi)
        corridor = _roi_list(corridor)
        if kernel_mode() == "reference":
            result = self._lower_bound_at(pa, pb, resolution, roi, corridor, False)
            return result.value < threshold
        axis, pa, pb, layers = self._oriented_layers(pa, pb, resolution)
        kept_layers, plane_indices, layer_boxes, _used = self._kept_layers(
            axis, resolution, layers, roi, corridor
        )
        if greedy_chain_length(pa, pb, layer_boxes) < threshold:
            return True
        hops = self._hops_for(
            axis, resolution, plane_indices,
            [idx for _layer, idx in kept_layers], layer_boxes,
        )
        value, _picks = lower_bound_via_planes_arrays(
            pa, pb, layer_boxes, hops=hops
        )
        return value < threshold

    def _boxes3d(self, axis: int, resolution: float) -> list:
        """Cached per-plane 3D chunk-MBR ``(lo, hi)`` row arrays —
        the array DP input, built once per (axis, resolution)
        instead of rebuilt from chunk objects on every estimation."""
        key = (axis, resolution)
        cached = self._chunk_boxes3d.get(key)
        if cached is None:
            cached = [
                (
                    np.array([c.mbr.lo for c in layer], dtype=float).reshape(-1, 3),
                    np.array([c.mbr.hi for c in layer], dtype=float).reshape(-1, 3),
                )
                for layer in self._chunks[key]
            ]
            self._chunk_boxes3d[key] = cached
        return cached

    def _oriented_layers(self, pa, pb, resolution: float):
        """``(axis, pa, pb, layers)``: the separating plane family, the
        endpoints ordered along it, and the planes between them."""
        axis = self.choose_axis(pa, pb)
        lo = min(pa[axis], pb[axis])
        hi = max(pa[axis], pb[axis])
        if pa[axis] > pb[axis]:
            pa, pb = pb, pa
        stride = self.plane_stride(resolution)
        return axis, pa, pb, self._layers_between(axis, resolution, lo, hi, stride)

    def _lower_bound_at(
        self, pa, pb, resolution: float, roi, corridor_boxes, charge_io: bool
    ) -> LowerBoundResult:
        """Shared implementation: arguments already normalized."""
        axis, pa, pb, layers = self._oriented_layers(pa, pb, resolution)
        if kernel_mode() != "reference":
            return self._lower_bound_arrays(
                pa, pb, axis, resolution, layers, roi, corridor_boxes, charge_io
            )

        filtered: list[list[SdnChunk]] = []
        used = 0
        for layer, xy in layers:
            if roi is None and corridor_boxes is None:
                keep = layer
            else:
                mask = np.ones(xy.shape[0], dtype=bool)
                if roi is not None:
                    mask &= _box_mask(xy, roi)
                if corridor_boxes is not None:
                    mask &= _box_mask(xy, corridor_boxes)
                keep = [layer[j] for j in np.nonzero(mask)[0]]
            if keep:  # dropping an empty plane only loosens the bound
                filtered.append(keep)
                used += len(keep)
        if charge_io:
            for layer in filtered:
                self._touch(layer, resolution)
        value, path_keys = lower_bound_via_planes(pa, pb, filtered)
        return LowerBoundResult(
            value=value,
            path_keys=path_keys,
            resolution=resolution,
            chunks_used=used,
        )

    def _hops_for(
        self, axis, resolution, plane_indices, keep_idxs, layer_boxes
    ) -> list[np.ndarray]:
        """Consecutive-layer hop matrices.  A pair of unmasked planes
        comes from the bounded hop cache (the same full pairs recur
        across estimations); a pair with a masked side is computed on
        its kept rows and columns only.  Each hop entry depends only
        on its own two boxes, so both are bit-identical to slicing a
        full-plane matrix."""
        hops: list[np.ndarray] = []
        for i in range(len(plane_indices) - 1):
            upper, lower = layer_boxes[i], layer_boxes[i + 1]
            if keep_idxs[i] is None and keep_idxs[i + 1] is None:
                hop = self._hop_cache.get_or_build(
                    (axis, resolution, plane_indices[i], plane_indices[i + 1]),
                    lambda: _boxes_to_boxes(*upper, *lower),
                )
            else:
                hop = _boxes_to_boxes(*upper, *lower)
            hops.append(hop)
        return hops

    def _kept_layers(self, axis, resolution, layers, roi, corridor_boxes):
        """The array DP's input: per non-empty plane its ``(chunks,
        kept row indices or None)``, plane index and kept 3D box
        arrays, plus the total kept chunk count."""
        boxes3d = self._boxes3d(axis, resolution)
        kept_layers: list = []  # (chunk_list, kept_row_indices)
        plane_indices: list[int] = []
        layer_boxes: list[tuple[np.ndarray, np.ndarray]] = []
        used = 0
        for layer, xy in layers:
            if not layer:
                continue
            # chunk.plane_index is the row in self._chunks[(axis, res)]
            # (planes are built in self._planes[axis] order).
            plane_index = layer[0].plane_index
            lo3, hi3 = boxes3d[plane_index]
            if roi is None and corridor_boxes is None:
                keep_idx = None
                kept_lo, kept_hi = lo3, hi3
                count = len(layer)
            else:
                mask = np.ones(xy.shape[0], dtype=bool)
                if roi is not None:
                    mask &= _box_mask(xy, roi)
                if corridor_boxes is not None:
                    mask &= _box_mask(xy, corridor_boxes)
                keep_idx = np.nonzero(mask)[0]
                count = int(keep_idx.size)
                if count == 0:
                    continue
                kept_lo = lo3[keep_idx]
                kept_hi = hi3[keep_idx]
            kept_layers.append((layer, keep_idx))
            plane_indices.append(plane_index)
            layer_boxes.append((kept_lo, kept_hi))
            used += count
        return kept_layers, plane_indices, layer_boxes, used

    def _lower_bound_arrays(
        self, pa, pb, axis, resolution, layers, roi, corridor_boxes, charge_io
    ) -> LowerBoundResult:
        """Estimation over the cached 3D box arrays (the default path)
        — index-filtered slices instead of per-call object walks; the
        DP is bit-identical to :func:`lower_bound_via_planes`."""
        kept_layers, plane_indices, layer_boxes, used = self._kept_layers(
            axis, resolution, layers, roi, corridor_boxes
        )
        if charge_io and self._store is not None:
            pages = self._plane_pages(axis, resolution)
            for (_layer, keep_idx), plane_index in zip(kept_layers, plane_indices):
                page_arr = pages[plane_index]
                self._store.touch_pages(
                    page_arr if keep_idx is None else page_arr[keep_idx]
                )
        hops = self._hops_for(
            axis, resolution, plane_indices,
            [idx for _layer, idx in kept_layers], layer_boxes,
        )
        value, picks = lower_bound_via_planes_arrays(
            pa, pb, layer_boxes, hops=hops
        )
        path_keys = []
        for (layer, keep_idx), row in zip(kept_layers, picks):
            chunk = layer[row] if keep_idx is None else layer[int(keep_idx[row])]
            path_keys.append(chunk.key)
        return LowerBoundResult(
            value=value,
            path_keys=path_keys,
            resolution=resolution,
            chunks_used=used,
        )

    def corridor_from_path(
        self, path_keys, resolution: float, thickness: float | None = None
    ) -> list[BoundingBox]:
        """Build the dummy-lower-bound envelope around a previous lb
        path: each path chunk's xy MBR thickened by ``thickness``
        (default: twice the plane spacing)."""
        if thickness is None:
            thickness = 2.0 * self.spacing
        resolution = self.nearest_resolution(resolution)
        # The key → chunk index is memoized per resolution: chunks are
        # immutable after construction and the ranking loop rebuilds a
        # corridor for every surviving candidate at every level.
        index = self._corridor_index.get(resolution)
        if index is None:
            index = {}
            for axis in (0, 1):
                for layer in self._chunks[(axis, resolution)]:
                    for chunk in layer:
                        index[chunk.key] = chunk
            self._corridor_index[resolution] = index
        boxes = []
        for key in path_keys:
            chunk = index.get(key)
            if chunk is not None:
                boxes.append(chunk.mbr.xy().expanded(thickness))
        return boxes

    def stats(self) -> dict:
        """Structure sizes (for DESIGN/EXPERIMENTS reporting)."""
        return {
            "spacing": self.spacing,
            "planes_x": int(len(self._planes[0])),
            "planes_y": int(len(self._planes[1])),
            "chunks": {
                f"axis{axis}@r{res}": sum(len(l) for l in per_plane)
                for (axis, res), per_plane in self._chunks.items()
            },
        }
