"""Unit tests for the MSDN facade."""

import gc

import numpy as np
import pytest

from repro.geodesic.exact import ExactGeodesic
from repro.geometry.ellipse import EllipseRegion
from repro.geometry.primitives import BoundingBox
from repro.msdn.msdn import MSDN
from repro.storage.pages import PageManager
from repro.storage.stats import IOStatistics


@pytest.fixture(scope="module")
def msdn(request):
    mesh = request.getfixturevalue("rough_mesh")
    return MSDN(mesh)


@pytest.fixture(scope="module")
def exact_pairs(request):
    mesh = request.getfixturevalue("rough_mesh")
    rng = np.random.default_rng(12)
    pairs = {}
    for _ in range(4):
        a, b = rng.integers(0, mesh.num_vertices, size=2)
        if a == b:
            continue
        pairs[(int(a), int(b))] = ExactGeodesic(mesh, int(a)).distance_to(int(b))
    return pairs


class TestLowerBounds:
    def test_valid_bounds(self, msdn, exact_pairs):
        mesh = msdn.mesh
        for (a, b), ds in exact_pairs.items():
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            de = float(np.linalg.norm(pa - pb))
            for res in msdn.resolutions:
                lb = msdn.lower_bound(pa, pb, res).value
                assert lb <= ds + 1e-6
                assert lb >= de - 1e-6

    def test_roi_restriction_stays_valid(self, msdn, exact_pairs):
        mesh = msdn.mesh
        for (a, b), ds in exact_pairs.items():
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            ellipse = EllipseRegion(pa[:2], pb[:2], ds * 1.02)
            lb = msdn.lower_bound(pa, pb, 1.0, roi=[ellipse.mbr()]).value
            assert lb <= ds + 1e-6

    def test_axis_choice(self, msdn):
        assert MSDN.choose_axis((0, 0, 0), (10, 1, 0)) == 0
        assert MSDN.choose_axis((0, 0, 0), (1, 10, 0)) == 1

    def test_resolution_snapping(self, msdn):
        assert msdn.nearest_resolution(0.3) in msdn.resolutions

    def test_plane_stride_reduces_at_low_res(self, msdn):
        assert msdn.plane_stride(0.25) > msdn.plane_stride(1.0)

    def test_corridor_is_overestimate(self, msdn, exact_pairs):
        """Dummy lower bound (corridor-restricted) >= true lower bound
        at the same resolution — the inequality MR3's skip test uses."""
        mesh = msdn.mesh
        for (a, b), _ds in exact_pairs.items():
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            full = msdn.lower_bound(pa, pb, 0.5)
            if not full.path_keys:
                continue
            corridor = msdn.corridor_from_path(full.path_keys, 0.5)
            dummy = msdn.lower_bound(pa, pb, 0.5, corridor=corridor)
            assert dummy.value >= full.value - 1e-9

    def test_stats_structure(self, msdn):
        stats = msdn.stats()
        assert stats["planes_x"] > 0
        assert stats["planes_y"] > 0
        assert all(count > 0 for count in stats["chunks"].values())


class TestStorage:
    def test_lower_bound_charges_io(self, request):
        mesh = request.getfixturevalue("rough_mesh")
        stats = IOStatistics()
        pm = PageManager(page_size=1024, buffer_pages=4, stats=stats)
        msdn = MSDN(mesh)
        msdn.attach_storage(pm)
        pa = mesh.vertices[3]
        pb = mesh.vertices[mesh.num_vertices - 5]
        before = stats.snapshot()
        msdn.lower_bound(pa, pb, 0.5)
        assert stats.delta_since(before).physical_reads > 0
        # charge_io=False leaves the counters untouched.
        pm.drop_buffer()
        before = stats.snapshot()
        msdn.lower_bound(pa, pb, 0.5, charge_io=False)
        assert stats.delta_since(before).physical_reads == 0

    def test_touch_region(self, request):
        mesh = request.getfixturevalue("rough_mesh")
        stats = IOStatistics()
        pm = PageManager(page_size=1024, buffer_pages=4, stats=stats)
        msdn = MSDN(mesh)
        msdn.attach_storage(pm)
        before = stats.snapshot()
        msdn.touch_region(0.25, None, axes=(0,))
        assert stats.delta_since(before).physical_reads > 0


class TestLowerBoundBelow:
    """``lower_bound_below`` answers exactly ``lower_bound(...).value <
    threshold`` — the ranking loop's dummy-lower-bound test."""

    @staticmethod
    def cases(msdn):
        mesh = msdn.mesh
        rng = np.random.default_rng(9)
        bounds_xy = mesh.xy_bounds()
        lo, hi = np.asarray(bounds_xy.lo), np.asarray(bounds_xy.hi)
        roi = BoundingBox(tuple(lo + 0.15 * (hi - lo)), tuple(hi - 0.15 * (hi - lo)))
        for _ in range(8):
            a, b = (int(v) for v in rng.integers(0, mesh.num_vertices, size=2))
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            # The ranking loop's corridor: the previous, coarser lb path.
            coarse = msdn.lower_bound(pa, pb, msdn.resolutions[0])
            corridor = msdn.corridor_from_path(coarse.path_keys, coarse.resolution)
            for res in msdn.resolutions:
                for region in (None, roi):
                    for corr in (None, corridor):
                        yield pa, pb, res, region, corr

    def test_matches_the_value_comparison(self, msdn):
        from repro.geodesic.csr import use_reference_kernels

        for pa, pb, res, region, corr in self.cases(msdn):
            value = msdn.lower_bound(pa, pb, res, roi=region, corridor=corr).value
            for threshold in (
                value, np.nextafter(value, np.inf), 0.5 * value, 3.0 * value,
            ):
                want = value < threshold
                got = msdn.lower_bound_below(
                    pa, pb, res, threshold, roi=region, corridor=corr
                )
                assert got == want
                with use_reference_kernels():
                    assert msdn.lower_bound_below(
                        pa, pb, res, threshold, roi=region, corridor=corr
                    ) == want

    def test_loose_threshold_is_decided_without_the_dp(self, monkeypatch, msdn):
        from repro.msdn import msdn as msdn_module

        dp_runs = []
        inner = msdn_module.lower_bound_via_planes_arrays

        def counted(*args, **kwargs):
            dp_runs.append(1)
            return inner(*args, **kwargs)

        cases = list(self.cases(msdn))
        values = [
            msdn.lower_bound(pa, pb, res, roi=region, corridor=corr).value
            for pa, pb, res, region, corr in cases
        ]
        monkeypatch.setattr(msdn_module, "lower_bound_via_planes_arrays", counted)
        for (pa, pb, res, region, corr), value in zip(cases, values):
            assert msdn.lower_bound_below(
                pa, pb, res, 3.0 * value + 1.0, roi=region, corridor=corr
            )
        assert not dp_runs


class TestHopCache:
    """The hop cache keeps unmasked plane pairs only, under the
    module's byte budget, and never changes a bound."""

    def test_over_budget_matrix_is_not_cached(self, monkeypatch, msdn):
        from repro.msdn import msdn as msdn_module

        monkeypatch.setattr(msdn_module, "HOP_CACHE_BYTES", 1)
        fresh = MSDN(msdn.mesh)
        pa = msdn.mesh.vertices[3]
        pb = msdn.mesh.vertices[msdn.mesh.num_vertices - 5]
        first = fresh.lower_bound(pa, pb, 1.0)
        assert fresh._hop_cache.nbytes == 0
        second = fresh.lower_bound(pa, pb, 1.0)
        assert (first.value, first.path_keys) == (second.value, second.path_keys)

    def test_bytes_gauge_totals_every_cache(self, obs_context, msdn):
        from repro.msdn.msdn import hop_cache_bytes

        mesh = msdn.mesh
        first, second = MSDN(mesh), MSDN(mesh)
        gc.collect()
        before = hop_cache_bytes()
        pa = mesh.vertices[3]
        pb = mesh.vertices[mesh.num_vertices - 5]
        first.lower_bound(pa, pb, 1.0)
        second.lower_bound(pa, pb, 0.5)
        gauge = obs_context.registry.collect()["msdn.hop_cache.bytes"]["value"]
        assert first._hop_cache.nbytes > 0 and second._hop_cache.nbytes > 0
        assert gauge == (
            before + first._hop_cache.nbytes + second._hop_cache.nbytes
        )

    def test_bounds_match_reference_dp_under_tiny_budget(
        self, monkeypatch, msdn, obs_context
    ):
        from repro.geodesic.csr import use_reference_kernels
        from repro.msdn import msdn as msdn_module
        from repro.msdn.msdn import hop_cache_bytes

        mesh = msdn.mesh
        rng = np.random.default_rng(7)
        pairs = [
            tuple(int(v) for v in rng.integers(0, mesh.num_vertices, size=2))
            for _ in range(12)
        ]
        # A central box masks most planes' chunks (the common case);
        # roi=None keeps whole planes (the cached case).
        bounds_xy = mesh.xy_bounds()
        lo, hi = np.asarray(bounds_xy.lo), np.asarray(bounds_xy.hi)
        roi = BoundingBox(tuple(lo + 0.25 * (hi - lo)), tuple(hi - 0.25 * (hi - lo)))

        def bounds(m):
            out = []
            for res in m.resolutions:
                for a, b in pairs:
                    for region in (None, roi):
                        r = m.lower_bound(
                            mesh.vertices[a], mesh.vertices[b], res, roi=region
                        )
                        out.append((r.value, tuple(r.path_keys), r.chunks_used))
            return out

        with use_reference_kernels():
            want = bounds(MSDN(mesh))
        roomy = MSDN(mesh)
        assert bounds(roomy) == want
        sizes = [hop.nbytes for hop in roomy._hop_cache._entries.values()]
        assert len(sizes) > 2
        # Room for the two largest matrices only: the rest must evict.
        budget = sum(sorted(sizes)[-2:])
        monkeypatch.setattr(msdn_module, "HOP_CACHE_BYTES", budget)
        obs_context.registry.reset()
        tiny = MSDN(mesh)
        assert bounds(tiny) == want
        assert 0 < tiny._hop_cache.nbytes <= budget
        assert len(tiny._hop_cache._entries) < len(sizes)
        counters = obs_context.registry.collect()
        assert counters["msdn.hop_cache.evictions"]["value"] > 0
        assert counters["msdn.hop_cache.misses"]["value"] > 0
        assert counters["msdn.hop_cache.bytes"]["value"] == hop_cache_bytes()
