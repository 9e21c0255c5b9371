"""Pathnets: Steiner-point subdivisions of a surface mesh.

Approximate surface-shortest-path algorithms (Kanai & Suzuki;
Varadarajan & Agarwal) insert *Steiner points* into mesh edges and
connect all points sharing a face, opening passageways across face
interiors that the bare edge network lacks.  Because every added
segment lies inside a planar face, pathnet network distances are
always lengths of genuine surface paths — i.e. valid upper bounds of
``dS`` — and they converge to ``dS`` as more Steiner points are used.

The paper's DMTM uses a pathnet with one Steiner point per edge as
its "200 % resolution" level, where it treats ``dN`` as ``dS``.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.errors import GeodesicError
from repro.geodesic.csr import (
    graph_dijkstra,
    graph_dijkstra_with_parents,
    kernel_mode,
)
from repro.geodesic.graph import KeyedGraph

# Node keys: ("v", vertex_id) for original vertices,
#            ("s", edge_id, j) for the j-th Steiner point of an edge.


def vertex_key(vid: int) -> tuple:
    return ("v", int(vid))


def steiner_key(edge_id: int, j: int) -> tuple:
    return ("s", int(edge_id), int(j))


def _edge_point_keys(mesh, edge_id: int, steiner_per_edge: int):
    """Keys and 3D positions of all points on an edge, endpoints first."""
    u, w = mesh.edge_vertices[edge_id]
    pu = mesh.vertices[u]
    pw = mesh.vertices[w]
    items = [(vertex_key(u), pu), (vertex_key(w), pw)]
    for j in range(1, steiner_per_edge + 1):
        t = j / (steiner_per_edge + 1)
        items.append((steiner_key(edge_id, j), pu + t * (pw - pu)))
    return items


def build_pathnet(
    mesh,
    steiner_per_edge: int = 1,
    faces: np.ndarray | None = None,
    forbidden_faces=None,
) -> KeyedGraph:
    """Build the pathnet graph for a mesh (or a subset of its faces).

    Every pair of points sharing a face is linked by a straight
    segment inside that face.  ``faces`` restricts construction to a
    corridor — the selective-refinement trick of Kanai & Suzuki and
    the ROI restriction of MR3.  ``forbidden_faces`` (a set of face
    ids) removes untraversable faces — the obstacle-constrained
    extension the paper lists as future work (steep slopes, water,
    no-go zones): no passageway is created through them, so every
    returned distance is realised by a path avoiding them.
    """
    if steiner_per_edge < 0:
        raise GeodesicError("steiner_per_edge must be >= 0")
    if kernel_mode() != "reference":
        graph = _build_pathnet_frontier(
            mesh, steiner_per_edge, faces, forbidden_faces
        )
        if graph is not None:
            return graph
    forbidden = frozenset(int(f) for f in forbidden_faces) if forbidden_faces else frozenset()
    graph = KeyedGraph()
    face_ids = range(mesh.num_faces) if faces is None else faces
    for fi in face_ids:
        fi = int(fi)
        if fi in forbidden:
            continue
        points: list[tuple[tuple, np.ndarray]] = []
        seen: set[tuple] = set()
        for slot in range(3):
            edge_id = int(mesh.face_edges[fi, slot])
            for key, pos in _edge_point_keys(mesh, edge_id, steiner_per_edge):
                if key not in seen:
                    seen.add(key)
                    points.append((key, pos))
                    # Position enables the A* heuristic on the
                    # compiled CSR graph.
                    graph.add_node(key, position=pos)
        for (ka, pa), (kb, pb) in combinations(points, 2):
            graph.add_edge(ka, kb, _segment_length(pa, pb))
    return graph


def _segment_length(pa, pb) -> float:
    """Straight-segment weight, composed as ``(dx² + dy²) + dz²``
    under the radical — the exact float expression the vectorised
    builder evaluates columnwise, so both builders produce
    bit-identical weights."""
    dx = float(pa[0]) - float(pb[0])
    dy = float(pa[1]) - float(pb[1])
    dz = float(pa[2]) - float(pb[2])
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _build_pathnet_frontier(mesh, steiner_per_edge, faces, forbidden_faces):
    """Array-built pathnet, the default path (None on degenerate
    meshes, where the Python builder takes over)."""
    from repro.geodesic.frontier import build_pathnet_arrays

    built = build_pathnet_arrays(mesh, steiner_per_edge, faces, forbidden_faces)
    if built is None:
        return None
    codes, positions, csr = built
    num_vertices = int(mesh.vertices.shape[0])
    spe = int(steiner_per_edge)
    keys = []
    for code in codes.tolist():
        if code < num_vertices:
            keys.append(("v", code))
        else:
            sc = code - num_vertices
            keys.append(("s", sc // spe, sc % spe + 1))
    return KeyedGraph.from_arrays(keys, positions, csr)


def pathnet_distance(
    mesh,
    source: int,
    target: int,
    steiner_per_edge: int = 1,
    faces: np.ndarray | None = None,
    landmarks=None,
) -> float:
    """Approximate ``dS`` between two vertices via pathnet search —
    A* with the straight-line heuristic on the frontier kernels (the
    distance is all that is returned, so the goal-directed search is
    safe), plain Dijkstra in reference mode.

    ``landmarks`` optionally supplies a
    :class:`repro.geodesic.landmarks.LandmarkIndex` whose ALT
    heuristic (maxed with the straight line, admissible and
    consistent on pathnet graphs) tightens the A* search further;
    the returned distance is unchanged.
    """
    graph = build_pathnet(mesh, steiner_per_edge, faces)
    src_key = vertex_key(source)
    dst_key = vertex_key(target)
    if src_key not in graph or dst_key not in graph:
        raise GeodesicError("source or target vertex missing from pathnet region")
    s = graph.node_id(src_key)
    t = graph.node_id(dst_key)
    if kernel_mode() == "reference":
        d = graph_dijkstra(graph, s, targets={t}).get(t)
    else:
        from repro.geodesic.frontier import astar_frontier

        heuristic = (
            landmarks.pathnet_heuristic(graph, target)
            if landmarks is not None
            else None
        )
        d = astar_frontier(graph.csr(), s, t, heuristic=heuristic)
    if d is None:
        raise GeodesicError(f"no pathnet route from {source} to {target}")
    return d


def pathnet_shortest_path(
    mesh,
    source: int,
    target: int,
    steiner_per_edge: int = 1,
    faces: np.ndarray | None = None,
) -> tuple[float, list[tuple]]:
    """Distance plus the node-key sequence of the pathnet route."""
    graph = build_pathnet(mesh, steiner_per_edge, faces)
    src_key = vertex_key(source)
    dst_key = vertex_key(target)
    if src_key not in graph or dst_key not in graph:
        raise GeodesicError("source or target vertex missing from pathnet region")
    s = graph.node_id(src_key)
    t = graph.node_id(dst_key)
    dist, parent = graph_dijkstra_with_parents(graph, s, targets={t})
    if t not in dist:
        raise GeodesicError(f"no path from {s} to {t}")
    node_path = [t]
    while node_path[-1] != s:
        node_path.append(parent[node_path[-1]])
    node_path.reverse()
    return dist[t], [graph.key_of(n) for n in node_path]
