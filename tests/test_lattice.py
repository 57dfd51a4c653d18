import numpy as np
import pytest

from gasketlab import lattice
from gasketlab.errors import CapacityError, ValidationError
from gasketlab.lattice import (LatticeRegion, TriangleSpec, build_ball,
                               build_triangle, mirror, subdivide,
                               translation_map, triangle_count)


def _point_set(points):
    return {tuple(v) for v in np.asarray(points).tolist()}


def test_vertex_count_identity():
    for level in range(9):
        region = build_triangle(level)
        assert len(region) == (3 ** (level + 1) + 3) // 2
        assert len(region.edges) == 3 ** (level + 1)


def test_level_zero_triangle():
    region = build_triangle(0)
    assert len(region) == 3
    assert len(region.edges) == 3
    assert region.stats()["degree_histogram"] == {2: 3}


def test_level_three_count():
    assert len(build_triangle(3)) == 42


def test_truncated_level_one_is_the_midpoint_triangle():
    # enumerate by hand: drop (0,0), (2,0), (0,2) and incident edges
    region = build_triangle(TriangleSpec(1, truncated=True))
    assert region.coords.tolist() == [[1, 0], [0, 1], [1, 1]]
    assert len(region.edges) == 3


def test_truncated_count_and_boundary():
    region = build_triangle(TriangleSpec(2, truncated=True))
    assert len(region) == 15 - 3
    assert len(region.interior_boundary) == 6


def test_truncated_level_zero_rejected():
    with pytest.raises(ValidationError):
        TriangleSpec(0, truncated=True)


def test_ball_counts():
    assert len(build_ball(0)) == 5
    assert len(build_ball(2)) == 2 * triangle_count(2) - 1
    ball = build_ball(1)
    origin = ball.locate((0, 0))
    assert ball.region_degree[origin] == 4
    assert ball.full_degree[origin] == 4


def test_ball_halves_share_only_the_origin():
    plain = _point_set(build_triangle(3).coords)
    flipped = _point_set(build_triangle(TriangleSpec(3, mirrored=True)).coords)
    assert plain & flipped == {(0, 0)}
    assert len(build_ball(3)) == len(plain) + len(flipped) - 1


def test_degree_invariants():
    region = build_triangle(4)
    extremes = np.sort(region.locate(region.spec.extreme_vertices()))
    assert np.all(region.full_degree == 4)
    expected = np.full(len(region), 4)
    expected[extremes] = 2
    assert np.array_equal(region.region_degree, expected)
    assert np.array_equal(region.interior_boundary, extremes)


def test_half_lattice_origin_degree():
    region = build_triangle(TriangleSpec(2), half_lattice=True)
    origin = region.locate((0, 0))
    assert region.full_degree[origin] == 2
    assert np.all(np.delete(region.full_degree, origin) == 4)
    # the origin corner then agrees with its subgraph degree
    assert origin not in region.interior_boundary


def test_mirror_is_an_involution_and_preserves_adjacency():
    rng = np.random.default_rng(0)
    points = rng.integers(-20, 20, (50, 2))
    assert np.array_equal(mirror(mirror(points)), points)
    offsets = np.array(lattice.NEIGHBOR_OFFSETS)
    moved = mirror(np.array([3, 4]) + offsets) - mirror(np.array([3, 4]))
    assert _point_set(moved) == _point_set(offsets)


def test_capacity_guardrail():
    with pytest.raises(CapacityError):
        build_triangle(13)
    # overridable
    spec = TriangleSpec(5)
    assert len(build_triangle(spec, max_level=5)) == triangle_count(5)


def test_subdivide_cover():
    region = build_triangle(3)
    part = subdivide(region, 2, "cover")
    assert len(part.pieces) == 3
    assert part.residual.shape == (0, 2)
    piece_sets = [_point_set(build_triangle(p).coords) for p in part.pieces]
    union = set().union(*piece_sets)
    assert union == _point_set(region.coords)
    for i in range(3):
        for j in range(i + 1, 3):
            assert len(piece_sets[i] & piece_sets[j]) == 1


def test_subdivide_cover_counts_with_multiplicity():
    region = build_triangle(4)
    part = subdivide(region, 2, "cover")
    sizes = sum(triangle_count(2) for _ in part.pieces)
    overlap = sizes - len(region)
    # every shared corner is counted once extra per extra piece
    counts = {}
    for p in part.pieces:
        for v in _point_set(p.extreme_vertices()):
            counts[v] = counts.get(v, 0) + 1
    assert overlap == sum(c - 1 for c in counts.values())


def test_subdivide_disjoint():
    region = build_triangle(4)
    part = subdivide(region, 2, "disjoint")
    assert len(part.pieces) == 9
    assert len(part.residual) == 15
    seen = _point_set(part.residual)
    total = len(part.residual)
    for p in part.pieces:
        vs = _point_set(build_triangle(p).coords)
        assert not vs & seen
        seen |= vs
        total += len(vs)
    assert seen == _point_set(region.coords)
    assert total == len(region)


def test_residual_count_identity():
    for level, piece in [(3, 1), (4, 2), (5, 3), (5, 1)]:
        region = build_triangle(level)
        part = subdivide(region, piece, "disjoint")
        expected = len(region) - 3 ** (level - piece) * (triangle_count(piece) - 3)
        assert len(part.residual) == expected


def test_subdivide_identity_partition():
    region = build_triangle(3)
    part = subdivide(region, 3, "cover")
    assert len(part.pieces) == 1
    assert part.pieces[0] == region.spec


def test_subdivide_validation():
    region = build_triangle(3)
    with pytest.raises(ValidationError):
        subdivide(region, 4, "cover")
    with pytest.raises(ValidationError):
        subdivide(region, -1, "cover")
    with pytest.raises(ValidationError):
        subdivide(build_ball(2), 1, "cover")


def test_translation_map_identity():
    spec = TriangleSpec(2)
    mapping = translation_map(spec, spec)
    assert np.array_equal(mapping, build_triangle(spec).coords)


def test_translation_map_preserves_edges():
    # exhaustive graph-isomorphism check for pieces up to side 2^4
    for piece_level in (1, 2, 3, 4):
        parent = build_triangle(piece_level + 1)
        pieces = subdivide(parent, piece_level, "cover").pieces
        for target_spec in pieces[1:]:
            mapping = translation_map(pieces[0], target_spec)
            source = build_triangle(pieces[0])
            target = build_triangle(target_spec)
            mapped_edges = np.sort(target.locate(mapping)[source.edges], axis=1)
            assert _point_set(mapped_edges) == _point_set(target.edges)


def test_translation_map_to_mirrored_triangle():
    a = TriangleSpec(2)
    b = TriangleSpec(2, mirrored=True)
    mapping = translation_map(a, b)
    target = build_triangle(b)
    assert _point_set(mapping) == _point_set(target.coords)
    assert len(mapping) == len(target)
    back = translation_map(b, a)
    source = build_triangle(a).coords
    assert np.array_equal(back[target.locate(mapping)], source)


def test_translation_map_level_mismatch():
    with pytest.raises(ValidationError):
        translation_map(TriangleSpec(1), TriangleSpec(2))
    with pytest.raises(ValidationError):
        translation_map(TriangleSpec(2), TriangleSpec(2, truncated=True))


def test_canonical_order_and_export(tmp_path):
    region = build_triangle(2)
    keys = [(q, p) for p, q in region.coords.tolist()]
    assert keys == sorted(keys)
    assert np.all(region.edges[:, 0] < region.edges[:, 1])
    assert region.edges.tolist() == sorted(region.edges.tolist())
    path = tmp_path / "region.edges"
    region.export_edge_list(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# gasket level=2 truncated=False mirrored=False"
    assert lines[1].split() == ["0", "0"]
    assert len(lines) == 1 + len(region) + len(region.edges)
    # byte-identical re-export
    path2 = tmp_path / "region2.edges"
    build_triangle(2).export_edge_list(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_region_edges_are_its_cells_sides():
    # two unit cells that share the corner (1, 0): 3 sides each, each once
    coords = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
    region = LatticeRegion(coords, [[[0, 1, 3], [1, 2, 4]]])
    assert region.edges.tolist() == [[0, 1], [0, 3], [1, 2], [1, 3], [1, 4], [2, 4]]
    assert region.region_degree.tolist() == [2, 4, 2, 2, 2]
    assert region.stats()["edge_count"] == 6
    with pytest.raises(ValueError):
        region.cells[0, 0, 0] = 2
    # a truncated (-1) corner takes its two sides with it
    cut = LatticeRegion([(0, 0), (1, 0), (0, 1), (1, 1)], [[[0, 1, 2], [1, -1, 3]]])
    assert cut.edges.tolist() == [[0, 1], [0, 2], [1, 2], [1, 3]]
    for cells in ([[0, 1, 3], [1, 2, 4]], [[[0, 1, 3], [1, 2, 5]]], [[[0, 1, -2]]]):
        with pytest.raises(ValidationError):
            LatticeRegion(coords, cells)


def test_locate_rows_and_outside_points():
    region = build_ball(2)
    assert np.array_equal(region.locate(region.coords), np.arange(len(region)))
    assert region.locate((0, 0)) == region.locate([[0, 0]])[0]
    with pytest.raises(ValidationError):
        region.locate([[0, 0], [50, 0]])
    with pytest.raises(ValidationError):
        LatticeRegion([(1, 0), (0, 0)], np.zeros((1, 0, 3), dtype=int))


def test_ball_export_carries_kind(tmp_path):
    path = tmp_path / "ball.edges"
    build_ball(1).export_edge_list(path)
    assert path.read_text().splitlines()[0].endswith("kind=ball")


def test_region_stats():
    assert build_triangle(2).stats()["vertex_count"] == 15
    stats = build_triangle(TriangleSpec(2, truncated=True)).stats()
    assert stats["interior_boundary_size"] == 6
