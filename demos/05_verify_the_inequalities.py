#!/usr/bin/env python3
"""Run the mechanical inequality checks behind the counting arguments."""

from collections import defaultdict

from gasketlab import verification

suites = [
    ("counting", dict(levels=(3, 4), seeds=5, grid_n=64)),
    ("interlacing", dict(dim=50, trials=25)),
    ("psd", dict(dim=40, trials=25)),
    ("branch", dict(n=30, samples=50)),
    ("temple", dict(levels=(2, 3), seeds=25)),
    ("kernel6", dict(levels=(3, 4))),
    ("decay", dict(max_level=10)),
]

for name, kwargs in suites:
    records = verification.run_suite(name, seed=0, **kwargs)
    by_id = defaultdict(list)
    for r in records:
        by_id[r.check_id].append(r)
    print(f"== suite {name}: {sum(r.passed for r in records)}"
          f"/{len(records)} checks pass ==")
    for check_id, recs in sorted(by_id.items()):
        worst = max(recs, key=lambda r: r.deviation - r.bound)
        print(f"  {check_id:24s} x{len(recs):<4d} worst deviation "
              f"{worst.deviation:9.3g} (bound {worst.bound:g})")
    print()

print("note: the level-6 proximity check of the containment suite is "
      "expected to exceed its 0.2 target at desk scale; see README.")
