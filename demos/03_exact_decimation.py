#!/usr/bin/env python3
"""Exact eigenvalues by spectral decimation through R(z) = z(4z+5).

The degree-normalized Neumann spectrum on a side-2^level triangle comes
from one recursion over levels: both preimages under R of every point of
the level below carry its multiplicity, and 0, -5/4, -3/4 and the top
point -3/2 enter with closed-form multiplicities.  Iterating the larger
inverse branch f contracts by about 1/5 per step, which sets every
5^(-level) rate below.
"""

import numpy as np

from gasketlab import decimation, operators, spectra
from gasketlab.decimation import (branch_iteration_bounds, dirichlet_ground,
                                  f, neumann_counts, neumann_gap)
from gasketlab.lattice import TriangleSpec, build_triangle

print("== inverse branch ==")
for x in (0.0, -0.5, -0.75, -1.5):
    print(f"f({x:5.2f}) = {f(x):+.6f}   R(f(x)) - x = {decimation.R(f(x)) - x:+.1e}")

print("\n== exact spectrum vs dense diagonalization ==")
for level in (1, 2, 3, 4):
    region = build_triangle(level)
    dense = spectra.eigenvalues_dense(operators.probabilistic_laplacian(region))
    values, mult = neumann_counts(level)
    nearest = np.abs(dense[:, None] - values[None, :]).argmin(axis=1)
    distance = np.abs(dense - values[nearest]).max()
    same = np.array_equal(np.bincount(nearest, minlength=len(values)), mult)
    print(f"level {level}: {len(values):2d} distinct values; the {len(dense)} "
          f"dense eigenvalues lie within {distance:.1e} of them, "
          f"multiplicities equal: {same}")

print("\n== spectral gap and ground state decay like 5^-level ==")
print("level   neumann gap     ratio    dirichlet ground   ratio")
prev_gap = prev_ground = None
for level in range(1, 11):
    gap = neumann_gap(level)
    ground = dirichlet_ground(level)
    rg = f"{gap / prev_gap:.6f}" if prev_gap else "   -    "
    rd = f"{ground / prev_ground:.6f}" if prev_ground else "   -    "
    print(f"{level:5d}   {gap:.6e}  {rg}   {ground:.6e}   {rd}")
    prev_gap, prev_ground = gap, ground

print("\n== the two-sided contraction bounds hold along the way ==")
report = branch_iteration_bounds(30, np.linspace(-1.0, 0.0, 50))
print(f"checked {report['checked']} iterate/sample pairs: "
      f"passed = {report['passed']}")

print("\n== ground-state formula vs dense, truncated triangles ==")
for level in (1, 2, 3):
    region = build_triangle(TriangleSpec(level, truncated=True))
    dense = spectra.eigenvalues_dense(
        operators.assemble(region, "simple", np.zeros(len(region))))[0]
    print(f"level {level}: formula {dirichlet_ground(level):.12f}  "
          f"dense {dense:.12f}")

print("\n== the free infinite-lattice spectrum, approximated ==")
free = decimation.free_spectrum_approx(3, julia_samples=4000, seed=0)
comb = free.combinatorial()
print(f"{len(free)} points on the (-4x) scale, all inside "
      f"[{comb.min():.3f}, {comb.max():.3f}] (should be within [0, 6])")
