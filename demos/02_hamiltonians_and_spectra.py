#!/usr/bin/env python3
"""Assemble H = -Laplacian + V under the three boundary conditions and
count eigenvalues two independent ways."""

import numpy as np

from gasketlab import spectra, verification
from gasketlab.lattice import build_triangle
from gasketlab.operators import (BOUNDARY_CONDITIONS, assemble, bernoulli,
                                 probabilistic_laplacian, quadratic_form,
                                 sample_potential)

region = build_triangle(3)
print(f"side-8 triangle, {len(region)} vertices")

print("\n== free spectra under the three boundary conditions ==")
zero = np.zeros(len(region))
for bc in BOUNDARY_CONDITIONS:
    w = spectra.eigenvalues_dense(assemble(region, bc, zero))
    print(f"{bc:>9}: bottom {w[:3].round(5)}, top {w[-1]:.5f}")

print("\n== the quadratic forms are ordered: neumann <= simple <= dirichlet ==")
rng = np.random.default_rng(0)
f = rng.standard_normal(len(region))
forms = {bc: quadratic_form(assemble(region, bc, zero), f)
         for bc in BOUNDARY_CONDITIONS}
print("  ".join(f"{bc}: {q:.4f}" for bc, q in forms.items()))

print("\n== random potential: 0 or 10 with equal probability ==")
spec = bernoulli(0.0, 10.0, 0.5, seed=1)
values = sample_potential(region, spec)
ham = assemble(region, "simple", values)
w = spectra.eigenvalues_dense(ham)
print(f"eigenvalue range [{w[0]:.4f}, {w[-1]:.4f}]; "
      f"band gap around (6, 10): "
      f"{np.sum((w > 6 + 1e-9) & (w < 10 - 1e-9))} eigenvalues inside")

print("\n== counting: dense diagonalization vs factorization inertia ==")
for energy in (0.5, 3.0, 6.0, 12.0):
    dense = int(spectra.counts_from_eigenvalues(w, [energy])[0])
    inertia = spectra.count_below(ham, energy)
    print(f"  #{{eigenvalues <= {energy:5.2f}}} = {dense:3d} (dense) "
          f"= {inertia:3d} (inertia)")

print("\n== degree-normalized operator: same kernel, rescaled spectrum ==")
prob = probabilistic_laplacian(region)
wp = spectra.eigenvalues_dense(prob)
print(f"normalized spectrum in [0, {wp[-1]:.3f}]; "
      f"<1, P 1> = {quadratic_form(prob, np.ones(len(region))):.1e}")

print("\n== compactly supported eigenfunctions at the top value 6 ==")
basis = verification.compact_eigenfunction_at_six(3)
res = verification.zero_extension_residual(3, basis[0])
print(f"radius-8 ball: kernel dimension {len(basis)}, "
      f"zero-extension residual {res:.1e}")
