import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import gasketlab
from gasketlab import ids, operators, spectra
from gasketlab.errors import CapacityError, ValidationError
from gasketlab.lattice import (COVER, DISJOINT, LatticeRegion, TriangleSpec,
                               build_ball, build_triangle, cell_sides, mirror,
                               subdivide, translation_map, triangle_count)


#: Difference vectors between adjacent vertices of the triangular lattice.
NEIGHBOR_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


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
    extremes = np.sort(region.locate(region.triangles[0].extreme_vertices()))
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
    offsets = np.array(NEIGHBOR_OFFSETS)
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
    assert part.pieces == list(region.triangles)


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
    source = build_triangle(spec)
    assert np.array_equal(translation_map(source, spec), source.coords)


def test_translation_map_preserves_edges():
    # exhaustive graph-isomorphism check for pieces up to side 2^4
    for piece_level in (1, 2, 3, 4):
        parent = build_triangle(piece_level + 1)
        pieces = subdivide(parent, piece_level, "cover").pieces
        source = build_triangle(pieces[0])
        for target_spec in pieces[1:]:
            mapping = translation_map(source, target_spec)
            target = build_triangle(target_spec)
            mapped_edges = np.sort(target.locate(mapping)[source.edges], axis=1)
            assert _point_set(mapped_edges) == _point_set(target.edges)


def test_translation_map_to_mirrored_triangle():
    a = TriangleSpec(2)
    b = TriangleSpec(2, mirrored=True)
    source = build_triangle(a)
    mapping = translation_map(source, b)
    target = build_triangle(b)
    assert _point_set(mapping) == _point_set(target.coords)
    assert len(mapping) == len(target)
    back = translation_map(target, a)
    assert np.array_equal(back[target.locate(mapping)], source.coords)


def test_translation_map_level_mismatch():
    with pytest.raises(ValidationError):
        translation_map(build_triangle(1), TriangleSpec(2))
    with pytest.raises(ValidationError):
        translation_map(build_triangle(2), TriangleSpec(2, truncated=True))
    # a ball is two triangles, and maps onto none
    with pytest.raises(ValidationError):
        translation_map(build_ball(2), TriangleSpec(2))


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
    # the level-1 triangle's three unit cells: 3 sides each, each once
    region = build_triangle(1)
    assert region.coords.tolist() == [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [0, 2]]
    assert region.cells.tolist() == [[[0, 1, 3], [1, 2, 4], [3, 4, 5]]]
    assert region.edges.tolist() == [[0, 1], [0, 3], [1, 2], [1, 3], [1, 4], [2, 4],
                                     [3, 4], [3, 5], [4, 5]]
    assert region.region_degree.tolist() == [2, 4, 2, 4, 4, 2]
    assert region.stats()["edge_count"] == 9
    with pytest.raises(ValueError):
        region.cells[0, 0, 0] = 2
    # a truncated (-1) corner takes its two sides with it
    cut = build_triangle(TriangleSpec(1, truncated=True))
    assert cut.coords.tolist() == [[1, 0], [0, 1], [1, 1]]
    assert cut.cells.tolist() == [[[-1, 0, 1], [0, -1, 2], [1, 2, -1]]]
    assert cut.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_region_is_one_triangle_or_the_ball():
    for triangles in ((TriangleSpec(1), TriangleSpec(1, mirrored=True), TriangleSpec(1)),
                      (TriangleSpec(0), TriangleSpec(0, anchor=(3, 0))),
                      (TriangleSpec(2, mirrored=True), TriangleSpec(2)), (),
                      [TriangleSpec(1), TriangleSpec(1, mirrored=True)], 3):
        with pytest.raises(ValidationError, match="one TriangleSpec or the ball"):
            LatticeRegion(triangles)
    ball = (TriangleSpec(2), TriangleSpec(2, mirrored=True))
    with pytest.raises(ValidationError, match="without half_lattice"):
        LatticeRegion(ball, half_lattice=True)
    # the constructor and the builders give the arrays the former builders
    # gave, pinned by a digest of every field's dtype, shape and bytes
    pinned = {"full": "e9afcac7f7449d76", "mirrored": "7c52a6723e000ea3",
              "half": "6f37d294a192ad7b", "ball": "7c5d429baf724bbc",
              "truncated": "342a877d54222899"}

    def made(kind, k):
        """The region of ``kind`` at level k from the constructor and from
        its builder."""
        spec = TriangleSpec(k, truncated=kind == "truncated", mirrored=kind == "mirrored")
        if kind == "ball":
            return LatticeRegion((spec, TriangleSpec(k, mirrored=True))), build_ball(k)
        half = kind == "half"
        return LatticeRegion(spec, half), build_triangle(spec, half_lattice=half)

    for kind, expected in pinned.items():
        digests = [hashlib.sha256(), hashlib.sha256()]
        for k in range(kind == "truncated", 5):
            for region, digest in zip(made(kind, k), digests):
                for name in ("coords", "cells", "edges", "region_degree",
                             "full_degree", "interior_boundary"):
                    array = getattr(region, name)
                    digest.update(f"{array.dtype}{array.shape}".encode() + array.tobytes())
        assert [d.hexdigest()[:16] for d in digests] == [expected] * 2, kind


def test_locate_rows_and_outside_points():
    region = build_ball(2)
    assert np.array_equal(region.locate(region.coords), np.arange(len(region)))
    assert region.locate((0, 0)) == region.locate([[0, 0]])[0]
    with pytest.raises(ValidationError):
        region.locate([[0, 0], [50, 0]])


def test_ball_export_carries_kind(tmp_path):
    path = tmp_path / "ball.edges"
    build_ball(1).export_edge_list(path)
    assert path.read_text().splitlines()[0].endswith("kind=ball")


def test_region_stats():
    assert build_triangle(2).stats()["vertex_count"] == 15
    stats = build_triangle(TriangleSpec(2, truncated=True)).stats()
    assert stats["interior_boundary_size"] == 6


# The construction regions had before the corner-gluing recursion, kept as
# the reference the recursion must equal byte for byte: every cell corner
# of every triangle, its origin from a base-3 digit matrix, numbered by
# np.unique over its packed (q, p) key.

def _digit_anchors(count, step):
    """Origin corners of the 3^count side-``step`` sub-triangles of the
    side-(step*2^count) triangle at the origin: base-3 digit k of the row
    number shifts by step*2^k along p (digit 1) or q (digit 2)."""
    digits = np.arange(3**count) // 3 ** np.arange(count)[:, None] % 3
    shifts = step * 2 ** np.arange(count)[:, None]
    return np.stack([(shifts * (digits == 1)).sum(axis=0),
                     (shifts * (digits == 2)).sum(axis=0)], axis=1)


def _corner_key(points):
    points = np.asarray(points, dtype=np.int64)
    return points[..., 1] * 2**32 + points[..., 0]


def _sorted_region(triangles, half_lattice):
    """Every array field of the region, from the sorted cell corners."""
    triangles = triangles if isinstance(triangles, tuple) else (triangles,)
    unit = np.array([[0, 0], [1, 0], [0, 1]])
    corners = np.concatenate([
        s.place(_digit_anchors(s.level, 1)[:, None, :] + unit) for s in triangles])
    keys, first, cells = np.unique(_corner_key(corners).ravel(), return_index=True,
                                   return_inverse=True)
    coords = corners.reshape(-1, 2)[first]
    cells = cells.reshape(len(triangles), -1, 3)
    dropped = [s.extreme_vertices() for s in triangles if s.truncated]
    if dropped:
        keep = ~np.isin(keys, _corner_key(np.concatenate(dropped)))
        cells = np.where(keep, np.cumsum(keep) - 1, -1)[cells]
        coords, keys = coords[keep], keys[keep]
    edges = cell_sides(cells)
    region_degree = np.bincount(edges.ravel(), minlength=len(coords))
    full_degree = np.full(len(coords), 4)
    if half_lattice:
        full_degree[keys == _corner_key((0, 0))] = 2
    return {"coords": coords, "cells": cells, "edges": edges,
            "region_degree": region_degree, "full_degree": full_degree,
            "interior_boundary": np.flatnonzero(full_degree > region_degree),
            "_keys": keys}


def _sorted_partition(spec, level, kind):
    """subdivide's pieces and residual, from the digit-matrix anchors and
    the sorted piece corners."""
    anchors = spec.place(_digit_anchors(spec.level - level, 2**level)).tolist()
    pieces = [TriangleSpec(level, anchor=tuple(a), truncated=kind == DISJOINT,
                           mirrored=spec.mirrored) for a in anchors]
    if kind == COVER:
        return pieces, np.zeros((0, 2), dtype=np.int64)
    corners = np.concatenate([p.extreme_vertices() for p in pieces])
    _, first = np.unique(_corner_key(corners), return_index=True)
    return pieces, corners[first]


def _region_kinds(k):
    """(triangles, half_lattice) of every kind of level-k region."""
    kinds = {"full": (TriangleSpec(k), False),
             "mirrored": (TriangleSpec(k, mirrored=True), False),
             "half": (TriangleSpec(k), True),
             "ball": ((TriangleSpec(k), TriangleSpec(k, mirrored=True)), False),
             # the origin, a half lattice's degree-2 vertex, mid-side
             "anchored": (TriangleSpec(k, anchor=(-(2**k // 2), 0)), True)}
    if k:
        kinds["truncated"] = (TriangleSpec(k, truncated=True), False)
        kinds["anchored truncated"] = (
            TriangleSpec(k, anchor=(5, -3), truncated=True, mirrored=True), False)
    return kinds


def _assert_equals_the_sorted_construction(k, piece_levels):
    for kind, (triangles, half) in _region_kinds(k).items():
        region = LatticeRegion(triangles, half)
        for name, expected in _sorted_region(triangles, half).items():
            array = getattr(region, name)
            assert (array.dtype, array.shape) == (expected.dtype, expected.shape), (k, kind, name)
            assert np.array_equal(array, expected), (k, kind, name)
            assert not array.flags.writeable, (k, kind, name)
        spec = region.triangles[0]
        if len(region.triangles) == 2 or spec.truncated:
            continue
        for level in piece_levels:
            for part_kind in (COVER, DISJOINT)[:1 + (level > 0)]:
                part = subdivide(region, level, part_kind)
                pieces, residual = _sorted_partition(spec, level, part_kind)
                assert part.pieces == pieces, (k, kind, level, part_kind)
                assert part.residual.dtype == residual.dtype
                assert np.array_equal(part.residual, residual), (k, kind, level, part_kind)


@pytest.mark.parametrize("k", range(9))
def test_regions_equal_the_sorted_construction(k):
    _assert_equals_the_sorted_construction(k, range(k + 1))


@pytest.mark.slow
@pytest.mark.parametrize("k", range(9, 13))
def test_large_regions_equal_the_sorted_construction(k):
    _assert_equals_the_sorted_construction(k, (1, k // 2, k - 1, k))


def test_counting_never_builds_edges(monkeypatch):
    # the counter reads the cells; the edges (and the key table of locate)
    # are built only when something reads them
    region = build_triangle(TriangleSpec(8), half_lattice=True)
    potential = operators.bernoulli(0, 10, 0.5, seed=3)
    ham = operators.assemble(region, operators.SIMPLE,
                             operators.sample_potential(region, potential))
    assert len(region) > spectra.DENSE_THRESHOLD
    spectra.count_below(ham, np.array([0.5, 2.0, 6.0]))
    built = []

    def region_for(*args):
        built.append(region_for.wrapped(*args))
        return built[-1]

    region_for.wrapped = ids._region_for
    monkeypatch.setattr(ids, "_region_for", region_for)
    ids.estimate_ids(8, operators.SIMPLE, potential, 2, np.linspace(0.3, 2.0, 5))
    for counted in (region, *built):
        assert "edges" not in vars(counted) and "_keys" not in vars(counted)
    assert len(built) == 1
    assert len(region.edges) == 3**9 and "edges" in vars(region)
    assert region.edges is region.edges


@pytest.mark.slow
def test_level_twelve_build_peak_rss():
    # ROADMAP item 8: grown by the recursion, the level-12 half-lattice
    # triangle peaks near 90 MiB in a fresh process, where numbering its
    # sorted cell corners peaked near 205 MiB.  A process's ru_maxrss keeps
    # the peak of the process it was forked from, so the build runs as the
    # child of a bare interpreter, which reports its children's peak
    build = ("from gasketlab import lattice\n"
             "lattice.build_triangle(lattice.TriangleSpec(12), half_lattice=True)\n")
    code = ("import resource, subprocess, sys\n"
            f"subprocess.run([sys.executable, '-c', {build!r}], check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(gasketlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) / 1024 < 150
