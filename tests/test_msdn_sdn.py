"""Unit tests for SDN chunks and the layered lower-bound DP."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.polyline import Polyline
from repro.geometry.primitives import BoundingBox
from repro.msdn.sdn import (
    SdnChunk,
    _boxes_to_boxes,
    build_sdn_chunks,
    greedy_chain_length,
    lower_bound_via_planes,
    lower_bound_via_planes_arrays,
)


def make_line(y: float, n: int = 9, z: float = 0.0) -> Polyline:
    xs = np.linspace(0.0, 8.0, n)
    pts = np.column_stack([xs, np.full(n, y), np.full(n, z)])
    return Polyline(pts)


class TestChunks:
    def test_full_resolution(self):
        chunks = build_sdn_chunks(make_line(0.0), 1, 0, 0.0, 1.0)
        assert len(chunks) == 8
        assert all(c.resolution == 1.0 for c in chunks)

    def test_keys_unique(self):
        chunks = build_sdn_chunks(make_line(0.0), 1, 3, 0.0, 0.5)
        keys = [c.key for c in chunks]
        assert len(set(keys)) == len(keys)

    def test_encode_decode_roundtrip(self):
        chunk = build_sdn_chunks(make_line(2.5, z=7.0), 0, 11, 2.5, 0.25)[0]
        back = SdnChunk.decode(chunk.encode())
        assert back.axis == chunk.axis
        assert back.plane_index == chunk.plane_index
        assert back.plane_value == pytest.approx(chunk.plane_value)
        assert back.resolution == pytest.approx(chunk.resolution)
        assert back.first == chunk.first and back.last == chunk.last
        assert np.allclose(back.mbr.lo, chunk.mbr.lo)
        assert np.allclose(back.mbr.hi, chunk.mbr.hi)


class TestLowerBoundDP:
    def test_no_planes_gives_euclid(self):
        lb, path = lower_bound_via_planes((0, 0, 0), (3, 4, 0), [])
        assert lb == pytest.approx(5.0)
        assert path == []

    def test_empty_layer_rejected(self):
        with pytest.raises(GeometryError):
            lower_bound_via_planes((0, 0, 0), (0, 5, 0), [[]])

    def test_single_flat_plane(self):
        layer = build_sdn_chunks(make_line(1.0), 1, 0, 1.0, 1.0)
        a, b = (4.0, 0.0, 0.0), (4.0, 2.0, 0.0)
        lb, path = lower_bound_via_planes(a, b, [layer])
        assert lb == pytest.approx(2.0)
        assert len(path) == 1

    def test_elevated_plane_forces_detour(self):
        """A crossing line high above the endpoints makes the bound
        exceed the straight xy distance."""
        layer = build_sdn_chunks(make_line(1.0, z=10.0), 1, 0, 1.0, 1.0)
        a, b = (4.0, 0.0, 0.0), (4.0, 2.0, 0.0)
        lb, _ = lower_bound_via_planes(a, b, [layer])
        climb = np.hypot(1.0, 10.0)
        assert lb == pytest.approx(2 * climb, rel=1e-6)

    def test_multi_layer_monotone_with_count(self):
        """More planes can only raise (or keep) the bound."""
        a, b = (4.0, 0.0, 0.0), (4.0, 4.0, 0.0)
        layers = [
            build_sdn_chunks(make_line(y, z=3.0), 1, i, y, 1.0)
            for i, y in enumerate((1.0, 2.0, 3.0))
        ]
        values = []
        for count in (1, 2, 3):
            lb, _ = lower_bound_via_planes(a, b, layers[:count])
            values.append(lb)
        assert values == sorted(values)

    def test_coarser_chunks_weaker(self):
        """The enclosure property makes lower resolutions weaker."""
        rng = np.random.default_rng(2)
        pts = np.column_stack(
            [
                np.linspace(0, 8, 17),
                np.full(17, 1.0),
                rng.uniform(0.0, 6.0, 17),
            ]
        )
        line = Polyline(pts)
        a, b = (4.0, 0.0, 0.0), (4.0, 2.0, 0.0)
        prev = -1.0
        for res in (0.25, 0.5, 1.0):
            layer = build_sdn_chunks(line, 1, 0, 1.0, res)
            lb, _ = lower_bound_via_planes(a, b, [layer])
            assert lb >= prev - 1e-9
            prev = lb

    def test_path_keys_one_per_layer(self):
        a, b = (4.0, 0.0, 0.0), (4.0, 4.0, 0.0)
        layers = [
            build_sdn_chunks(make_line(y), 1, i, y, 0.5)
            for i, y in enumerate((1.0, 2.0, 3.0))
        ]
        _lb, path = lower_bound_via_planes(a, b, layers)
        assert len(path) == 3


def _broadcast_boxes_to_boxes(lo1, hi1, lo2, hi2):
    """The (m1, m2, 3)-temporary formula the per-axis kernel replaced."""
    gap = np.maximum(lo2[np.newaxis, :, :] - hi1[:, np.newaxis, :], 0.0)
    gap = np.maximum(gap, lo1[:, np.newaxis, :] - hi2[np.newaxis, :, :])
    return np.sqrt(np.sum(gap * gap, axis=2))


def _random_family(rng, m, scale, extent):
    centre = rng.normal(size=(m, 3)) * scale
    half = np.abs(rng.normal(size=(m, 3))) * extent
    return centre - half, centre + half


class TestHopKernel:
    """``_boxes_to_boxes`` accumulates per-axis gaps; its bytes must
    equal the broadcast formula on every box family the DP sees."""

    @staticmethod
    def assert_same_bytes(lo1, hi1, lo2, hi2):
        got = _boxes_to_boxes(lo1, hi1, lo2, hi2)
        want = _broadcast_boxes_to_boxes(lo1, hi1, lo2, hi2)
        assert got.shape == want.shape == (lo1.shape[0], lo2.shape[0])
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(60, 80), (360, 360), (7, 3)])
    def test_random_families(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for scale in (0.01, 1.0, 350.0):
            lo1, hi1 = _random_family(rng, shape[0], scale, 0.3 * scale)
            lo2, hi2 = _random_family(rng, shape[1], scale, 0.3 * scale)
            self.assert_same_bytes(lo1, hi1, lo2 + 0.5 * scale, hi2 + 0.5 * scale)

    def test_touching_boxes(self):
        # Each lower box starts exactly where an upper box ends on one
        # axis, so that axis contributes an exact zero gap.
        rng = np.random.default_rng(1)
        lo1, hi1 = _random_family(rng, 40, 5.0, 1.0)
        lo2 = hi1.copy()
        hi2 = lo2 + np.abs(rng.normal(size=lo2.shape))
        self.assert_same_bytes(lo1, hi1, lo2, hi2)
        assert np.all(np.diag(_boxes_to_boxes(lo1, hi1, lo2, hi2)) == 0.0)

    def test_overlapping_boxes(self):
        rng = np.random.default_rng(2)
        lo1, hi1 = _random_family(rng, 30, 1.0, 4.0)
        lo2, hi2 = _random_family(rng, 50, 1.0, 4.0)
        self.assert_same_bytes(lo1, hi1, lo2, hi2)

    def test_zero_extent_boxes(self):
        # Degenerate boxes (points, and boxes flat on one axis — the
        # shape of chunks on an axis-aligned crossing plane).
        rng = np.random.default_rng(3)
        points1 = rng.normal(size=(25, 3)) * 10.0
        points2 = rng.normal(size=(35, 3)) * 10.0
        self.assert_same_bytes(points1, points1, points2, points2)
        lo1, hi1 = _random_family(rng, 25, 10.0, 2.0)
        lo1[:, 0] = hi1[:, 0] = 3.0
        lo2, hi2 = _random_family(rng, 35, 10.0, 2.0)
        lo2[:, 0] = hi2[:, 0] = 4.0
        self.assert_same_bytes(lo1, hi1, lo2, hi2)

    def test_single_row_families(self):
        rng = np.random.default_rng(4)
        lo1, hi1 = _random_family(rng, 1, 10.0, 1.0)
        lo2, hi2 = _random_family(rng, 64, 10.0, 1.0)
        self.assert_same_bytes(lo1, hi1, lo2, hi2)
        self.assert_same_bytes(lo2, hi2, lo1, hi1)
        self.assert_same_bytes(lo1, hi1, lo1 + 2.0, hi1 + 2.0)


def _plane_layers(rng, sizes):
    """Box families on successive planes x = 1, 2, ... (flat on x,
    like crossing-line chunks), scattered in y and z."""
    layers = []
    for plane, m in enumerate(sizes, start=1):
        lo, hi = _random_family(rng, m, 5.0, 1.0)
        lo[:, 0] = hi[:, 0] = float(plane)
        layers.append((lo, hi))
    return layers


class TestGreedyChain:
    """``greedy_chain_length`` sums one chain in the DP's float order,
    so it can never undercut the DP minimum."""

    def test_never_below_the_dp(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            sizes = rng.integers(1, 25, size=int(rng.integers(1, 7)))
            layers = _plane_layers(rng, sizes)
            pa = np.array([0.0, *rng.normal(size=2) * 5.0])
            pb = np.array([len(sizes) + 1.0, *rng.normal(size=2) * 5.0])
            value, _ = lower_bound_via_planes_arrays(pa, pb, layers)
            assert greedy_chain_length(pa, pb, layers) >= value

    def test_single_chain_equals_the_dp_bitwise(self):
        # One box per layer leaves one chain: same sums, same bits.
        rng = np.random.default_rng(22)
        for _ in range(20):
            layers = _plane_layers(rng, [1] * int(rng.integers(1, 8)))
            pa = np.array([0.0, 0.3, -0.2])
            pb = np.array([len(layers) + 1.0, 4.0, 1.5])
            value, _ = lower_bound_via_planes_arrays(pa, pb, layers)
            assert greedy_chain_length(pa, pb, layers) == value

    def test_no_layers_gives_euclid(self):
        pa, pb = np.zeros(3), np.array([3.0, 4.0, 0.0])
        assert greedy_chain_length(pa, pb, []) == 5.0
