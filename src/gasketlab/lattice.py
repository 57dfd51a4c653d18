"""Finite Sierpinski gasket subgraphs on an exact integer triangular basis.

Vertices are integer pairs (p, q); the Euclidean position is
p*(1, 0) + q*(1/2, sqrt(3)/2).  All construction is integer arithmetic on
(k, 2) arrays, so vertex equality is exact.  The side-length-2^level
triangle at the origin is grown by the corner-gluing recursion: a
level-(n+1) triangle is a level-n triangle plus copies shifted by
2^n*(1, 0) and 2^n*(0, 1).  The mirrored half of the lattice is the
reflection across the y-axis, which in this basis is (p, q) -> (-p-q, q).
A region is one placed triangle or the two-sided ball's two; its unit
up-triangles (cells) are triples of vertex rows, and its edges are the
cells' sides, since every gasket edge lies in exactly one unit cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ValidationError

Coord = tuple[int, int]

#: Difference vectors between adjacent vertices of the triangular lattice.
NEIGHBOR_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

#: Default guardrail: level 12 is about 800k vertices.
MAX_LEVEL = 12

COVER = "cover"
DISJOINT = "disjoint"

#: Corners of the unit up-triangle anchored at the origin.
_UNIT_CELL = np.array([[0, 0], [1, 0], [0, 1]])


def mirror(points) -> np.ndarray:
    """Reflect basis coordinates (..., 2) across the y-axis."""
    p, q = np.moveaxis(np.asarray(points), -1, 0)
    return np.stack([-p - q, q], axis=-1)


def _key(points) -> np.ndarray:
    # one int64 per point, ordered like (q, p) lexicographically while
    # |p|, |q| < 2^31
    points = np.asarray(points, dtype=np.int64)
    return points[..., 1] * 2**32 + points[..., 0]


def _anchors(count: int, step: int) -> np.ndarray:
    """Origin corners of the 3^count side-``step`` sub-triangles of the
    side-(step*2^count) triangle at the origin, in recursion order: base-3
    digit k of the row number shifts by step*2^k along p (digit 1) or q
    (digit 2)."""
    digits = np.arange(3**count) // 3 ** np.arange(count)[:, None] % 3
    shifts = step * 2 ** np.arange(count)[:, None]
    return np.stack([(shifts * (digits == 1)).sum(axis=0),
                     (shifts * (digits == 2)).sum(axis=0)], axis=1)


@dataclass(frozen=True)
class TriangleSpec:
    """A side-2^level gasket triangle: mirror first (optionally), then shift.

    ``anchor`` is the image of the origin corner.  ``truncated`` drops the
    3 extreme (corner) vertices and their incident edges.
    """

    level: int
    anchor: Coord = (0, 0)
    truncated: bool = False
    mirrored: bool = False

    def __post_init__(self):
        if self.level < 0:
            raise ValidationError(f"level must be >= 0, got {self.level}")
        if self.truncated and self.level == 0:
            raise ValidationError("a truncated level-0 triangle is empty")

    @property
    def side(self) -> int:
        return 2**self.level

    def place(self, points) -> np.ndarray:
        """Map coordinates (..., 2) of the standard origin triangle into
        this one."""
        points = np.asarray(points, dtype=np.int64)
        if self.mirrored:
            points = mirror(points)
        return points + self.anchor

    def unplace(self, points) -> np.ndarray:
        """Inverse of :meth:`place`."""
        points = np.asarray(points, dtype=np.int64) - self.anchor
        return mirror(points) if self.mirrored else points

    def extreme_vertices(self) -> np.ndarray:
        """The 3 corners (3, 2) of the (untruncated) triangle."""
        return self.place(self.side * _UNIT_CELL)


def _ball(level: int) -> tuple[TriangleSpec, TriangleSpec]:
    """The two triangles of the radius-2^level ball, glued at the origin."""
    return TriangleSpec(level), TriangleSpec(level, mirrored=True)


@dataclass(eq=False)
class Partition:
    """Pieces of a subdivided triangle.

    ``cover`` pieces overlap pairwise in at most one corner; ``disjoint``
    pieces are the truncated triangles plus the residual (k, 2) array of all
    the removed corners, in canonical order.
    """

    kind: str
    pieces: list[TriangleSpec]
    residual: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int64))


def cell_sides(cells) -> np.ndarray:
    """The sides of the unit ``cells`` (..., 3) as an (m, 2) array of row
    pairs i < j, sorted by (i, j), without the sides that have a -1
    (truncated) corner.  Unit up-triangles share no side, so each side of
    a region's cells is stored once."""
    a, b = cells[..., [0, 0, 1]].ravel(), cells[..., [1, 2, 2]].ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = lo >= 0
    lo, hi = lo[keep], hi[keep]
    order = np.lexsort((hi, lo))
    return np.stack([lo[order], hi[order]], axis=1)


class LatticeRegion:
    """The union of ``triangles``, one placed :class:`TriangleSpec` or the
    ball pair (TriangleSpec(L), TriangleSpec(L, mirrored=True)), without
    the corners of a truncated one; anything else, or a ball with
    ``half_lattice``, is a ValidationError.  Every field is an integer
    array, and a vertex is named by its row:

    * ``coords`` (n, 2): the cell corners, lexicographic on (q, p);
    * ``cells`` (t, 3^level, 3): corner rows (origin, p-step, q-step; -1 if
      truncated away) of the unit up-triangles of each triangle, in base-3
      digit order, cells 3j..3j+2 forming level-1 triangle j and so on up;
    * ``edges`` (m, 2): the cells' sides (see :func:`cell_sides`);
    * ``region_degree`` and ``full_degree`` (n,): degree in the region and
      in the ambient infinite lattice.  The latter is 4 everywhere, except 2
      at the origin when ``half_lattice`` is set (the one-sided lattice has
      a degree-2 corner there);
    * ``interior_boundary``: sorted rows whose region degree is below their
      ambient degree.

    Immutable.  :func:`build_triangle` and :func:`build_ball` add a
    capacity check.
    """

    def __init__(self, triangles, half_lattice=False):
        if isinstance(triangles, TriangleSpec):
            triangles = (triangles,)
        elif not (isinstance(triangles, tuple) and len(triangles) == 2
                  and isinstance(triangles[0], TriangleSpec) and not half_lattice
                  and triangles == _ball(triangles[0].level)):
            raise ValidationError(
                "a region is one TriangleSpec or the ball pair (TriangleSpec(L), "
                "TriangleSpec(L, mirrored=True)), the ball without half_lattice")
        self.triangles = triangles
        self.half_lattice = half_lattice
        corners = np.concatenate([
            s.place(_anchors(s.level, 1)[:, None, :] + _UNIT_CELL) for s in triangles])
        keys, first, cells = np.unique(_key(corners).ravel(), return_index=True,
                                       return_inverse=True)
        coords = corners.reshape(-1, 2)[first]
        cells = cells.reshape(len(triangles), -1, 3)
        dropped = [s.extreme_vertices() for s in triangles if s.truncated]
        if dropped:
            keep = ~np.isin(keys, _key(np.concatenate(dropped)))
            cells = np.where(keep, np.cumsum(keep) - 1, -1)[cells]
            coords, keys = coords[keep], keys[keep]
        self.coords, self.cells, self._keys = coords, cells, keys
        self.edges = cell_sides(cells)

        n = len(coords)
        self.region_degree = np.bincount(self.edges.ravel(), minlength=n)
        self.full_degree = np.full(n, 4)
        if half_lattice:
            self.full_degree[keys == _key((0, 0))] = 2
        self.interior_boundary = np.flatnonzero(
            self.full_degree > self.region_degree)
        for array in (self.coords, self.cells, self.edges, self._keys,
                      self.region_degree, self.full_degree, self.interior_boundary):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.coords)

    def locate(self, points) -> np.ndarray:
        """Rows of the given coordinates (..., 2); a point outside the
        region is a :class:`ValidationError`."""
        keys = _key(points)
        rows = np.searchsorted(self._keys, keys)
        found = self._keys[np.minimum(rows, len(self) - 1)] == keys
        if not np.all(found):
            missing = np.reshape(points, (-1, 2))[~found.ravel()][0]
            raise ValidationError(
                f"point {tuple(missing.tolist())} is not in the region")
        return rows

    def stats(self) -> dict:
        """Counts consistent with the construction invariants."""
        degrees, counts = np.unique(self.region_degree, return_counts=True)
        return {
            "vertex_count": len(self),
            "edge_count": len(self.edges),
            "degree_histogram": dict(zip(degrees.tolist(), counts.tolist())),
            "interior_boundary_size": len(self.interior_boundary),
        }

    def export_edge_list(self, path) -> None:
        """Write the bit-exact edge-list text format."""
        spec, *ball = self.triangles
        lines = [f"# gasket level={spec.level} truncated={spec.truncated} "
                 f"mirrored={spec.mirrored}" + (" kind=ball" if ball else "")]
        lines += [f"{p} {q}" for p, q in self.coords.tolist()]
        lines += [f"{p1} {q1} {p2} {q2}"
                  for (p1, q1), (p2, q2) in self.coords[self.edges].tolist()]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def triangle_count(level: int) -> int:
    """Number of vertices of the level-``level`` triangle."""
    return (3 ** (level + 1) + 3) // 2


def ball_count(level: int) -> int:
    """Number of vertices of the radius-2^level two-sided ball."""
    return 2 * triangle_count(level) - 1


def _check_capacity(level: int, max_level: int):
    if level > max_level:
        raise CapacityError(
            f"level {level} exceeds the guardrail {max_level} "
            f"({triangle_count(level)} vertices); raise max_level to override"
        )


def build_triangle(spec, *, half_lattice=False, max_level=MAX_LEVEL) -> LatticeRegion:
    """Construct the gasket triangle described by ``spec``.

    ``spec`` may also be a bare level (int).  ``half_lattice`` marks the
    region as living in the one-sided lattice whose origin has ambient
    degree 2.
    """
    if isinstance(spec, int):
        spec = TriangleSpec(level=spec)
    _check_capacity(spec.level, max_level)
    return LatticeRegion(spec, half_lattice)


def build_ball(level: int, *, max_level=MAX_LEVEL) -> LatticeRegion:
    """The radius-2^level ball at the origin: two mirror-image triangles
    glued at (0, 0)."""
    _check_capacity(level, max_level)
    return LatticeRegion(_ball(level))


def subdivide(region: LatticeRegion, level: int, kind: str) -> Partition:
    """Split a triangle into its side-2^level sub-triangles.

    ``cover`` keeps the full overlapping triangles; ``disjoint`` truncates
    them and collects all their corners in the residual set.
    """
    spec, *rest = region.triangles
    if rest or spec.truncated:
        raise ValidationError("subdivide needs a non-truncated triangle region")
    if kind not in (COVER, DISJOINT):
        raise ValidationError(f"unknown partition kind {kind!r}")
    if not 0 <= level <= spec.level:
        raise ValidationError(
            f"piece level must be in [0, {spec.level}], got {level}")
    if kind == DISJOINT and level == 0:
        raise ValidationError("disjoint pieces must have level >= 1")

    placed = spec.place(_anchors(spec.level - level, 2**level)).tolist()
    pieces = [TriangleSpec(level, anchor=tuple(a), truncated=kind == DISJOINT,
                           mirrored=spec.mirrored) for a in placed]
    if kind == COVER:
        return Partition(COVER, pieces)
    corners = np.concatenate([p.extreme_vertices() for p in pieces])
    _, first = np.unique(_key(corners), return_index=True)
    return Partition(DISJOINT, pieces, corners[first])


def translation_map(source: LatticeRegion, b: TriangleSpec) -> np.ndarray:
    """Adjacency-preserving vertex bijection from the built triangle
    ``source`` onto triangle ``b``: the (n, 2) images in ``b`` of the
    vertices of ``source``, in its canonical order."""
    a, *rest = source.triangles
    if rest:
        raise ValidationError("translation_map maps a triangle, not the ball")
    if a.level != b.level:
        raise ValidationError(f"levels differ: {a.level} vs {b.level}")
    if a.truncated != b.truncated:
        raise ValidationError("truncation flags differ")
    return b.place(a.unplace(source.coords))
