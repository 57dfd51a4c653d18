"""Exact free-Laplacian spectra by preimage iteration of R(z) = z(4z+5).

Eigenvalues of the degree-normalized Neumann operator on gasket triangles
are generated by pulling the base points {0, -3/4} back through the two
inverse branches of R, together with the isolated top point -3/2.  The
larger inverse branch

    f(x) = (-5 + sqrt(25 + 16x)) / 8 = 2x / (5 + sqrt(25 + 16x))

drives the low-energy asymptotics: iterating f contracts roughly by 1/5
per step, which is the source of every 5^(-level) rate in this package.
The second (rationalized) form of f is used throughout because the naive
one loses all significance as x -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Points of the normalized spectrum lie in [BOTTOM, 0].
BOTTOM = -1.5

#: f is real only for x >= -25/16.
F_DOMAIN_MIN = -25.0 / 16.0

#: Switch f-iteration to software high precision beyond this many steps.
HIGH_PRECISION_STEPS = 12

DEDUP_TOL = 1e-12


def R(z):
    """The decimation polynomial z(4z+5)."""
    z = np.asarray(z, dtype=float) if np.ndim(z) else float(z)
    return z * (4.0 * z + 5.0)


def f(x):
    """Larger preimage branch of R, monotone increasing, f(0) = 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < F_DOMAIN_MIN - 1e-15):
        raise ValidationError(f"f is undefined below {F_DOMAIN_MIN}")
    arr = np.maximum(arr, F_DOMAIN_MIN)
    out = 2.0 * arr / (5.0 + np.sqrt(25.0 + 16.0 * arr))
    return out if np.ndim(x) else float(out)


def lower_branch(x):
    """Smaller preimage branch of R."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < F_DOMAIN_MIN - 1e-15):
        raise ValidationError(f"preimages are undefined below {F_DOMAIN_MIN}")
    arr = np.maximum(arr, F_DOMAIN_MIN)
    out = (-5.0 - np.sqrt(25.0 + 16.0 * arr)) / 8.0
    return out if np.ndim(x) else float(out)


def iterate_f(x: float, n: int) -> float:
    """n-fold composition of f, in high precision when n is large."""
    if n < 0:
        raise ValidationError("iteration count must be >= 0")
    if n <= HIGH_PRECISION_STEPS:
        y = float(x)
        for _ in range(n):
            y = f(y)
        return y
    from mpmath import mp, mpf, sqrt

    with mp.workdps(40):
        y = mpf(x)
        for _ in range(n):
            y = 2 * y / (5 + sqrt(25 + 16 * y))
        return float(y)


@dataclass
class DecimationSpectrum:
    """Spectrum points in the normalized (nonpositive) convention.

    ``generations[i]`` is the preimage depth of ``points[i]``; the Julia
    approximation points of :func:`free_spectrum_approx` carry -1.
    """

    points: np.ndarray
    generations: np.ndarray

    def __post_init__(self):
        order = np.argsort(self.points)
        self.points = np.asarray(self.points, dtype=float)[order]
        self.generations = np.asarray(self.generations, dtype=int)[order]

    def __len__(self):
        return len(self.points)

    def combinatorial(self) -> np.ndarray:
        """The same points on the (-4x) scale of the degree-4 Laplacian,
        ascending."""
        return np.sort(-4.0 * self.points)

    def to_csv(self, path, scale: str = "prob") -> None:
        if scale not in ("prob", "comb"):
            raise ValidationError("scale must be 'prob' or 'comb'")
        values = self.points if scale == "prob" else -4.0 * self.points
        with open(path, "w") as fh:
            fh.write("value,generation,scale\n")
            for v, g in zip(values, self.generations):
                fh.write(f"{v:.17g},{g},{scale}\n")


def _dedup(points, generations):
    order = np.argsort(points)
    pts, gens = [], []
    for idx in order:
        if pts and abs(points[idx] - pts[-1]) <= DEDUP_TOL:
            continue
        pts.append(points[idx])
        gens.append(generations[idx])
    return np.array(pts), np.array(gens, dtype=int)


def _preimage_tree(base, depth):
    """All preimages of ``base`` up to ``depth`` compositions, tagged by
    generation."""
    points = [(b, 0) for b in base]
    frontier = list(base)
    for m in range(1, depth + 1):
        nxt = []
        for y in frontier:
            nxt.extend((f(y), lower_branch(y)))
        points.extend((z, m) for z in nxt)
        frontier = nxt
    pts = np.array([p for p, _ in points])
    gens = np.array([g for _, g in points])
    return _dedup(pts, gens)


def neumann_spectrum(level: int) -> DecimationSpectrum:
    """Eigenvalue set of the degree-normalized Neumann operator on the
    level-``level`` triangle: {-3/2} plus the preimage tree of {0, -3/4}
    to depth level-1."""
    if level < 1:
        raise ValidationError("level must be >= 1")
    pts, gens = _preimage_tree([0.0, -0.75], level - 1)
    pts = np.append(pts, BOTTOM)
    gens = np.append(gens, 0)
    return DecimationSpectrum(*_dedup(pts, gens))


def neumann_gap(level: int) -> float:
    """First nonzero eigenvalue of the degree-normalized Neumann operator,
    i.e. the (level-1)-fold f-iterate of -3/4, negated."""
    if level < 1:
        raise ValidationError("level must be >= 1")
    return -iterate_f(-0.75, level - 1)


def dirichlet_ground(level: int) -> float:
    """Smallest eigenvalue of the combinatorial operator with simple
    boundary condition on the truncated level-``level`` triangle."""
    if level < 1:
        raise ValidationError("level must be >= 1")
    return -4.0 * iterate_f(-0.5, level - 1)


def iteration_sum(n: int) -> float:
    """S_n = sum_{k<n} (k+1)^2 / 5^k; bounded by 75/32."""
    k = np.arange(n)
    return float(np.sum((k + 1.0) ** 2 / 5.0**k))


def branch_iteration_bounds(n: int, samples) -> dict:
    """Check the two-sided contraction estimates for iterates of f.

    For every sample x in [-1, 0] and every 1 <= m <= n this verifies
      (4/5^m) x <= f^m(x) <= (1/5^m) x
    together with the sharper lower bound f^m(x) >= 5^(-m) x (1 - S_m x).
    Returns a report with the worst signed margins (nonnegative = pass).
    """
    if n > 60:
        raise ValidationError("iteration bound check limited to n <= 60")
    samples = np.asarray(samples, dtype=float)
    if np.any(samples < -1.0) or np.any(samples > 0.0):
        raise ValidationError("samples must lie in [-1, 0]")
    worst_lower = np.inf
    worst_upper = np.inf
    worst_sharp = np.inf
    checked = 0
    for x in samples:
        y = x
        for m in range(1, n + 1):
            y = f(y)
            lower = 4.0 / 5.0**m * x
            upper = 1.0 / 5.0**m * x
            sharp = 5.0**-m * x * (1.0 - iteration_sum(m) * x)
            worst_lower = min(worst_lower, y - lower)
            worst_upper = min(worst_upper, upper - y)
            worst_sharp = min(worst_sharp, y - sharp)
            checked += 1
    tol = 1e-13
    return {
        "checked": checked,
        "worst_lower_margin": worst_lower,
        "worst_upper_margin": worst_upper,
        "worst_sharp_margin": worst_sharp,
        "sum_limit": 75.0 / 32.0,
        "passed": bool(min(worst_lower, worst_upper, worst_sharp) >= -tol),
    }


def free_spectrum_approx(depth: int, julia_samples: int = 10_000,
                         julia_depth: int = 40, seed: int = 0) -> DecimationSpectrum:
    """Approximate spectrum of the free operator on the infinite lattice.

    The explicit part is {-3/2} plus the preimage tree of {-3/4} truncated
    at ``depth``; its limit points are approximated by a seeded random
    backward orbit of the two inverse branches started from -3/2 (tagged
    generation -1).  On the (-4x) scale everything lies in [0, 6].
    """
    if depth > 20:
        raise ValidationError("preimage depth limited to 20")
    pts, gens = _preimage_tree([-0.75], depth)
    pts = np.append(pts, BOTTOM)
    gens = np.append(gens, 0)
    if julia_samples > 0:
        key = np.array([seed & (2**64 - 1), 1], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        z = np.full(julia_samples, BOTTOM)
        for _ in range(julia_depth):
            take_upper = rng.random(julia_samples) < 0.5
            z = np.where(take_upper, f(z), lower_branch(z))
        pts = np.append(pts, z)
        gens = np.append(gens, np.full(julia_samples, -1))
    return DecimationSpectrum(*_dedup(pts, gens))
