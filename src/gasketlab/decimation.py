"""Exact free-Laplacian spectra by spectral decimation through R(z) = z(4z+5).

The eigenvalues of the degree-normalized Neumann operator on the level-k
triangle (the probabilistic Laplacian, negated) and their multiplicities
follow from one recursion over levels that pulls level k-1 back through
the two inverse branches of R (Fukushima & Shima 1992, Teplyaev 1998).
The larger inverse branch

    f(x) = (-5 + sqrt(25 + 16x)) / 8 = 2x / (5 + sqrt(25 + 16x))

drives the low-energy asymptotics: iterating f contracts roughly by 1/5
per step, which is the source of every 5^(-level) rate in this package.
The second (rationalized) form of f is used throughout because the naive
one loses all significance as x -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError

#: Points of the normalized spectrum lie in [BOTTOM, 0].
BOTTOM = -1.5

#: Deepest level of the Neumann spectrum and of the free spectrum's
#: preimages: both double their points every level (level 20 holds
#: 1,572,864 Neumann points).
MAX_DEPTH = 20

#: f is real only for x >= -25/16.
F_DOMAIN_MIN = -25.0 / 16.0

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


def _preimages(z):
    return np.concatenate([f(z), lower_branch(z)])


def iterate_f(x: float, n: int) -> float:
    """n-fold composition of f in double precision."""
    if n < 0:
        raise ValidationError("iteration count must be >= 0")
    y = float(x)
    for _ in range(n):
        y = f(y)
    return y


@dataclass
class DecimationSpectrum:
    """Spectrum points in the normalized (nonpositive) convention.

    ``generations[i]`` is the minimal preimage depth of ``points[i]`` over
    {0, -3/4} (0 for -3/2); the Julia approximation points of
    :func:`free_spectrum_approx` carry -1.
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


def _neumann_levels(level: int):
    """Points, multiplicities and generations of the level-``level``
    normalized Neumann spectrum.

    Level 0 is 0 and -3/2, with multiplicities 1 and 2.  Level k pulls
    every other level-(k-1) point back through both branches (multiplicity
    kept, generation + 1) and adds 0: 1, -5/4: (3^(k-1) - 1)/2 (none at
    k = 1), -3/4: (3^(k-1) + 3)/2 and -3/2: (3^k + 3)/2; -1/2 = f(-3/2)
    is not an eigenvalue.
    """
    if level < 1:
        raise ValidationError("level must be >= 1")
    if level > MAX_DEPTH:
        raise CapacityError(
            f"level {level} exceeds {MAX_DEPTH}: the Neumann spectrum doubles "
            "its points every level")
    points, mult, gens = np.array([0.0, BOTTOM]), np.array([1, 2]), np.array([0, 0])
    for k in range(1, level + 1):
        inner = (points != 0.0) & (points != BOTTOM)
        points = np.concatenate([[0.0, -1.25, -0.75, BOTTOM],
                                 _preimages(points[inner])])
        mult = np.concatenate([[1, (3**(k - 1) - 1) // 2, (3**(k - 1) + 3) // 2,
                                (3**k + 3) // 2], np.tile(mult[inner], 2)])
        gens = np.concatenate([[0, 1, 0, 0], np.tile(gens[inner] + 1, 2)])
        keep = mult > 0
        points, mult, gens = points[keep], mult[keep], gens[keep]
    return points, mult, gens


def neumann_spectrum(level: int) -> DecimationSpectrum:
    """Eigenvalue set of the degree-normalized Neumann operator on the
    level-``level`` triangle."""
    points, _, gens = _neumann_levels(level)
    return DecimationSpectrum(points, gens)


def neumann_counts(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct eigenvalues of the probabilistic Laplacian on the
    level-``level`` triangle, ascending, and their exact multiplicities."""
    points, mult, _ = _neumann_levels(level)
    order = np.argsort(-points)
    return -points[order], mult[order]


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
    x = np.asarray(samples, dtype=float)
    if np.any(x < -1.0) or np.any(x > 0.0):
        raise ValidationError("samples must lie in [-1, 0]")
    worst_lower = worst_upper = worst_sharp = np.inf
    y = x
    for m in range(1, n + 1):
        y = f(y)
        lower = 4.0 / 5.0**m * x
        upper = 1.0 / 5.0**m * x
        sharp = 5.0**-m * x * (1.0 - iteration_sum(m) * x)
        worst_lower = np.min(y - lower, initial=worst_lower)
        worst_upper = np.min(upper - y, initial=worst_upper)
        worst_sharp = np.min(y - sharp, initial=worst_sharp)
    tol = 1e-13
    return {
        "checked": max(n, 0) * x.size,
        "worst_lower_margin": worst_lower,
        "worst_upper_margin": worst_upper,
        "worst_sharp_margin": worst_sharp,
        "sum_limit": 75.0 / 32.0,
        "passed": bool(min(worst_lower, worst_upper, worst_sharp) >= -tol),
    }


def free_spectrum_approx(depth: int, julia_samples: int = 10_000,
                         seed: int = 0) -> DecimationSpectrum:
    """Approximate spectrum of the free operator on the infinite lattice.

    The explicit part is {-3/2} plus the preimages of -3/4 to ``depth``
    compositions; its limit points are approximated by seeded random
    backward orbits, 40 steps of the two inverse branches started from -3/2
    (tagged generation -1).  Points within DEDUP_TOL of a smaller one are
    dropped.  On the (-4x) scale everything lies in [0, 6].  A negative
    depth or a seed outside [0, 2^64) is a ValidationError, a depth above
    MAX_DEPTH a CapacityError.
    """
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must be in [0, 2^64), got {seed}")
    if depth < 0:
        raise ValidationError(f"preimage depth must be at least 0, got {depth}")
    if depth > MAX_DEPTH:
        raise CapacityError(
            f"preimage depth {depth} exceeds {MAX_DEPTH}: the preimages double "
            "every level")
    layers = [np.array([-0.75])]
    for _ in range(depth):
        layers.append(_preimages(layers[-1]))
    pts = np.concatenate(layers + [[BOTTOM]])
    gens = np.concatenate([np.full(len(z), g) for g, z in enumerate(layers)]
                          + [[0]])
    if julia_samples > 0:
        key = np.array([seed, 1], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        z = np.full(julia_samples, BOTTOM)
        for _ in range(40):
            take_upper = rng.random(julia_samples) < 0.5
            z = np.where(take_upper, f(z), lower_branch(z))
        pts = np.append(pts, z)
        gens = np.append(gens, np.full(julia_samples, -1))
    order = np.argsort(pts, kind="stable")
    pts, gens = pts[order], gens[order]
    keep = np.concatenate([[True], np.diff(pts) > DEDUP_TOL])
    return DecimationSpectrum(pts[keep], gens[keep])
