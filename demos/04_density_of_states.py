#!/usr/bin/env python3
"""Integrated density of states: free power law and random-potential tail.

Level 8 (9843 vertices) is the size the README's tail numbers are quoted
at; every curve is counted by inertia, so the demo takes about a second.
"""

import numpy as np

from gasketlab import ids
from gasketlab.operators import bernoulli, constant

LEVEL = 8

print(f"== free operator on the side-2^{LEVEL} triangle ==")
curve = ids.estimate_ids(LEVEL, "simple", constant(0.0), 1,
                         ids.tail_grid(1e-3, 0.2, 30))
fit = ids.free_ids_exponent(curve, (2e-3, 0.1))
print(f"power-law fit on [2e-3, 0.1]: slope {fit.slope:.4f} "
      f"(exact exponent log3/log5 = {ids.TAU:.4f}), "
      f"prefactor {fit.prefactor:.4f}, r^2 {fit.r_squared:.4f}")

print(f"\n== 0/10 potential, {LEVEL=}: the bottom thins drastically ==")
spec = bernoulli(0.0, 10.0, 0.5, seed=0)
tail = ids.estimate_ids(LEVEL, "simple", spec, 8, np.geomspace(0.3, 2.0, 14))
for e, m, s in zip(tail.energies, tail.mean_counts, tail.std_errors):
    bar = "#" * int(60 * m / tail.mean_counts[-1]) if tail.mean_counts[-1] else ""
    print(f"  E={e:7.4f}  N={m:10.3e} +- {s:.1e}  {bar}")

lif = ids.lifshitz_fit(tail, (0.3, 2.0))
print(f"\ndouble-log tail fit: slope {lif.slope:.4f} "
      f"(limit value -log3/log5 = {-ids.TAU:.4f}) on {lif.n_points} points")

exp_fit = ids.exponential_tail_fit(tail, (0.3, 2.0))
print(f"stretched-exponential reference log N = m1 + m2 E^-tau: "
      f"m1 = {exp_fit['m1']:.3f}, m2 = {exp_fit['m2']:.3f}")

print("\n== boundary conditions do not move the curve ==")
report = ids.bc_independence_report(5, spec, 8, ids.global_grid(spec, 32))
for pair in report["pairs"]:
    print(f"  {pair['pair']:20s} worst excess over the bound: "
          f"{pair['max_excess']:+.2e} (pass={pair['passed']})")

print("\n== Temple bound vs the true ground state ==")
for trial in range(3):
    rep = ids.temple_check(4, bernoulli(0.0, 10.0, 0.5, seed=5), trial)
    print(f"  trial {trial}: bound {rep['bound']:.6f} <= "
          f"ground {rep['ground_state']:.6f}")
