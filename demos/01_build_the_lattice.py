#!/usr/bin/env python3
"""Build gasket regions and look at their combinatorics.

Everything lives on an integer triangular basis: vertex (p, q) sits at
p*(1,0) + q*(1/2, sqrt(3)/2) in the plane, and the mirrored half of the
lattice is (p, q) -> (-p-q, q).  A region keeps its vertices as rows of the
(n, 2) array ``coords``; edges, degrees and the boundary refer to rows.
"""

import numpy as np

from gasketlab import lattice
from gasketlab.lattice import TriangleSpec, build_ball, build_triangle, subdivide

print("== triangles ==")
for level in range(7):
    region = build_triangle(level)
    print(f"level {level}: {len(region):5d} vertices "
          f"({(3 ** (level + 1) + 3) // 2} expected), "
          f"{len(region.edges):5d} edges, "
          f"boundary {region.coords[region.interior_boundary].tolist()}"
          if level <= 2 else
          f"level {level}: {len(region):5d} vertices, "
          f"{len(region.edges):5d} edges")

print("\n== a truncated triangle drops its three corners ==")
full = build_triangle(2)
trunc = build_triangle(TriangleSpec(2, truncated=True))
print(f"side-4 triangle: {len(full)} vertices -> truncated: {len(trunc)}")
print(f"new interior boundary ({len(trunc.interior_boundary)} points):",
      trunc.coords[trunc.interior_boundary].tolist())

print("\n== two-sided balls glue mirror triangles at the origin ==")
for level in range(4):
    ball = build_ball(level)
    print(f"radius 2^{level}: {len(ball)} vertices "
          f"(= 2*{lattice.triangle_count(level)} - 1), "
          f"origin degree {ball.region_degree[ball.locate((0, 0))]}")

print("\n== partitions of a side-16 triangle into side-4 pieces ==")
region = build_triangle(4)
cover = subdivide(region, 2, "cover")
disjoint = subdivide(region, 2, "disjoint")
print(f"overlapping cover: {len(cover.pieces)} pieces")
print(f"disjoint truncation: {len(disjoint.pieces)} pieces "
      f"+ {len(disjoint.residual)} residual corners")

print("\n== translations are exact graph isomorphisms ==")
a, b = cover.pieces[0], cover.pieces[4]
source, target = build_triangle(a), build_triangle(b)
rows = target.locate(lattice.translation_map(source, b))   # target row per source row
mapped = np.sort(rows[source.edges], axis=1)
mapped = mapped[np.lexsort((mapped[:, 1], mapped[:, 0]))]
print(f"piece at {a.anchor} -> piece at {b.anchor}: "
      f"edge sets match: {np.array_equal(mapped, target.edges)}")

region.export_edge_list("triangle_level4.edges")
print("\nwrote triangle_level4.edges "
      f"({len(region)} vertex rows, {len(region.edges)} edge rows)")
