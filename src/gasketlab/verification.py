"""Named verification suites: every mechanical inequality check.

Each suite is the check itself and returns uniform records (check id,
instance, deviation, bound), so the command line can emit one JSON report
and an exit code that reflects the conjunction of all checks.  The
eigenvalues and counts they compare come from :mod:`gasketlab.spectra`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import decimation, ids, spectra
from .errors import ValidationError
from .lattice import (TriangleSpec, build_ball, build_triangle, subdivide,
                      translation_map)
from .operators import (BOUNDARY_CONDITIONS, SIMPLE, assemble, bernoulli,
                        constant, sample_potential, uniform)
from .spectra import counts_from_eigenvalues


@dataclass
class CheckRecord:
    """One verified inequality instance: passes iff deviation <= bound."""

    check_id: str
    instance: str
    deviation: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.bound

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "instance": self.instance,
            "deviation": float(self.deviation),
            "bound": float(self.bound),
            "passed": bool(self.passed),
        }


def default_distributions(seed: int = 0):
    """The three reference potentials used across the verification corpus."""
    return {
        "const0": constant(0.0, seed=seed),
        "bernoulli_0_10": bernoulli(0.0, 10.0, 0.5, seed=seed),
        "uniform_0_1": uniform(0.0, 1.0, seed=seed),
    }


def counting_suite(levels=(4,), seeds=20, grid_points=64,
                   distributions=None, seed=0) -> list[CheckRecord]:
    """Counting-function comparisons on gasket triangles, per sampled
    potential: (a) the counting functions of the six operators (full and
    truncated triangle, three boundary conditions each) never differ by
    more than 9 at any grid energy, and (b) splitting a triangle into its
    three half-size children (same boundary condition, same potential
    restriction) changes the count by at most 30.  Levels are at least 2,
    as a level-1 triangle's truncated children would be empty."""
    if min(levels, default=2) < 2:
        raise ValidationError(f"counting checks need levels >= 2, got {min(levels)}")
    records = []
    dists = distributions or default_distributions(seed)
    for name, spec in dists.items():
        grid = ids.global_grid(spec, grid_points)
        trials = 1 if spec.distribution[0] == "constant" else seeds
        for level in levels:
            records += _counting_records(name, level, spec, trials, grid)
    return records


def _counting_records(name, level, spec, trials, grid) -> list[CheckRecord]:
    """The counting-suite records of potential ``name`` on one triangle
    size.  Each trial's potential is sampled once, on the parent.  A
    structure is the parent's ``cover`` pieces of one size, whole or
    truncated (the parent, or its three children): translates of the first
    piece, which keep its canonical order and share its region.  Its
    (piece, trial, boundary rule) operators are counted in one
    :func:`spectra.count_operators` call and summed over the pieces.  The
    records are written trial by trial, so the report is the same for any
    thread count."""
    parent = build_triangle(level)
    samples = [sample_potential(parent, spec, trial) for trial in range(trials)]
    rules = len(BOUNDARY_CONDITIONS)

    def counts(size, truncated):
        """The (trial, rule, energy) counts of one structure."""
        pieces = [replace(p, truncated=truncated)
                  for p in subdivide(parent, size, "cover").pieces]
        region = build_triangle(pieces[0])
        rows = [parent.locate(translation_map(region, p)) for p in pieces]

        def operator(i):
            piece, trial, rule = np.unravel_index(i, (len(pieces), trials, rules))
            return assemble(region, BOUNDARY_CONDITIONS[rule],
                            samples[trial][rows[piece]])

        return spectra.count_operators(
            region, operator, len(pieces) * trials * rules,
            grid).reshape(len(pieces), trials, rules, -1).sum(axis=0)

    regions = {"full": False, "trunc": True}
    whole = {kind: counts(level, truncated) for kind, truncated in regions.items()}
    split = {kind: counts(level - 1, truncated) for kind, truncated in regions.items()}
    records = []
    for trial in range(trials):
        at = f"{name} L={level} trial={trial}"
        curves = {(kind, bc): whole[kind][trial, r]
                  for r, bc in enumerate(BOUNDARY_CONDITIONS) for kind in regions}
        keys = list(curves)
        for i, ki in enumerate(keys):
            for kj in keys[i + 1:]:
                dev = int(np.max(np.abs(curves[ki] - curves[kj])))
                records.append(CheckRecord(
                    "bc-pair", f"{at} {ki[0]}/{ki[1]} vs {kj[0]}/{kj[1]}",
                    dev, 9))
        for r, bc in enumerate(BOUNDARY_CONDITIONS):
            for kind in regions:
                total = split[kind][trial, r]
                records.append(CheckRecord(
                    "triple-split", f"{at} {kind}/{bc}",
                    int(np.max(np.abs(curves[kind, bc] - total))), 30))
    return records


def _goe(rng, dim, radius=10.0):
    g = rng.standard_normal((dim, dim))
    h = (g + g.T) / 2.0
    return h * (radius / np.sqrt(2.0 * dim))


#: Random energies at which each interlacing trial compares counts.
INTERLACING_ENERGIES = 100


def interlacing_suite(dim=50, trials=50, seed=0) -> list[CheckRecord]:
    """Projection and perturbation counting bounds on random matrices.

    Per trial: (a) deleting ``codim`` coordinates moves the count up by at
    most ``codim`` and never down; (b) a rank-m diagonal perturbation moves
    it by at most m; (c)/(d) a positive-semidefinite coupling added to
    (subtracted from) a block-diagonal matrix keeps the count below (above)
    the sum of the block counts.
    """
    if not 6 <= dim <= 200:
        raise ValidationError("interlacing checks need 6 <= dim <= 200")
    rng = np.random.default_rng(seed)
    records = []
    for trial in range(trials):
        h = _goe(rng, dim)
        evals = np.linalg.eigvalsh(h)
        energies = rng.uniform(-12.0, 12.0, INTERLACING_ENERGIES)
        counts = counts_from_eigenvalues(evals, energies)

        codim = int(rng.integers(1, 6))
        keep = np.sort(rng.choice(dim, size=dim - codim, replace=False))
        sub_counts = counts_from_eigenvalues(
            np.linalg.eigvalsh(h[np.ix_(keep, keep)]), energies)
        dev = int(np.max(np.maximum(sub_counts - counts,
                                    counts - sub_counts - codim)))
        records.append(CheckRecord(
            "projection-interlacing", f"dim={dim} codim={codim} trial={trial}",
            dev, 0))

        m = int(rng.integers(0, 6))
        bumped = h.copy()
        sites = rng.choice(dim, size=m, replace=False)
        bumped[sites, sites] += rng.uniform(-5.0, 5.0, m)
        dev = int(np.max(np.abs(counts - counts_from_eigenvalues(
            np.linalg.eigvalsh(bumped), energies))))
        records.append(CheckRecord(
            "rank-perturbation", f"dim={dim} m={m} trial={trial}", dev, m))

        cuts = np.sort(rng.choice(np.arange(1, dim), size=2, replace=False))
        blocks = np.split(np.arange(dim), cuts)
        block_diag = np.zeros_like(h)
        block_counts = np.zeros(INTERLACING_ENERGIES, dtype=int)
        for idx in blocks:
            block = _goe(rng, len(idx))
            block_diag[np.ix_(idx, idx)] = block
            block_counts += counts_from_eigenvalues(np.linalg.eigvalsh(block),
                                                    energies)
        w = rng.standard_normal((dim, 3))
        coupling = w @ w.T / dim
        upper = counts_from_eigenvalues(
            np.linalg.eigvalsh(block_diag + coupling), energies)
        dev = int(np.max(upper - block_counts))
        records.append(CheckRecord(
            "subspace-upper", f"dim={dim} trial={trial}", dev, 0))
        lower = counts_from_eigenvalues(
            np.linalg.eigvalsh(block_diag - coupling), energies)
        dev = int(np.max(block_counts - lower))
        records.append(CheckRecord(
            "subspace-lower", f"dim={dim} trial={trial}", dev, 0))
    return records


def psd_suite(dim=40, trials=100, seed=0) -> list[CheckRecord]:
    """Ordered-eigenvalue bounds for products of PSD matrices:
    smallest(A)*E_j(B) <= E_j(AB) <= largest(A)*E_j(B) for every j."""
    if not 1 <= dim <= 100:
        raise ValidationError("product-bound checks need 1 <= dim <= 100")
    rng = np.random.default_rng(seed)
    records = []
    for trial in range(trials):
        ga = rng.standard_normal((dim, dim))
        gb = rng.standard_normal((dim, dim))
        a = ga @ ga.T / dim
        b = gb @ gb.T / dim
        wa = np.linalg.eigvalsh(a)
        wb, vb = np.linalg.eigh(b)
        b_half = (vb * np.sqrt(np.maximum(wb, 0.0))) @ vb.T
        product = np.linalg.eigvalsh(b_half @ a @ b_half)
        low = wa[0] * np.sort(wb)
        high = wa[-1] * np.sort(wb)
        slack = 1e-10 * max(1.0, wa[-1] * wb[-1])
        dev = float(np.max(np.maximum(low - product, product - high)))
        records.append(CheckRecord(
            "psd-product", f"dim={dim} trial={trial}", dev, slack))
    return records


def branch_suite(n=30, samples=100) -> list[CheckRecord]:
    report = decimation.branch_iteration_bounds(
        n, np.linspace(-1.0, 0.0, samples))
    worst = min(report["worst_lower_margin"], report["worst_upper_margin"],
                report["worst_sharp_margin"])
    return [CheckRecord("branch-iteration",
                        f"n={n} samples={samples}", -worst, 1e-13)]


def temple_suite(levels=(2, 3, 4), seeds=100, distributions=None,
                 seed=0) -> list[CheckRecord]:
    """Temple bound never exceeds the dense ground state."""
    records = []
    dists = distributions or default_distributions(seed)
    for name, spec in dists.items():
        trials = 1 if spec.distribution[0] == "constant" else seeds
        for level in levels:
            for trial in range(trials):
                rep = ids.temple_check(level, spec, trial)
                records.append(CheckRecord(
                    "temple-bound",
                    f"{name} level={level} trial={trial}",
                    rep["bound"] - rep["ground_state"], 1e-12))
    return records


# ---------------------------------------------------------------------------
# finite-volume spectrum containment

def _allowed_intervals(potential_spec):
    d = potential_spec.distribution
    scale = potential_spec.scale
    if d[0] == "constant":
        atoms = [scale * d[1]]
    elif d[0] == "bernoulli":
        atoms = [scale * d[1], scale * d[2]]
    elif d[0] == "table":
        atoms = [scale * v for v, _ in d[1]]
    else:
        lo, hi = potential_spec.support()
        return [(lo, hi + 6.0)], True
    return sorted((a, a + 6.0) for a in atoms), False


def containment_violation(evals, intervals) -> float:
    """Largest distance from an eigenvalue to the allowed ``intervals`` (one
    per potential atom): 0 inside one, else the distance to its nearest
    end."""
    lo, hi = np.array(intervals).T
    outside = np.maximum(lo - evals[:, None], evals[:, None] - hi)
    return float(np.max(np.min(np.maximum(outside, 0.0), axis=1)))


def nearest_distance(values, points) -> np.ndarray:
    """Distance from each point to the nearest of the ascending ``values``.
    Rounded differences are monotone in the value, so the nearest is one of
    the two neighbours a sorted search finds; no points x values matrix is
    formed."""
    at = np.searchsorted(values, points)
    below = values[np.maximum(at - 1, 0)]
    above = values[np.minimum(at, len(values) - 1)]
    return np.minimum(np.abs(points - below), np.abs(points - above))


def spectrum_containment_check(level, potential_spec, decimation_depth,
                               trial: int = 0, proximity_grid: int = 21) -> dict:
    """Finite-volume containment of the sampled spectrum.

    (a) every eigenvalue of the simple-boundary Hamiltonian on the ball
    lies in [0, 6] shifted by the potential support; (b) for an interval
    support, every point of the (depth-truncated) free spectrum plus the
    support interval is close to some sampled eigenvalue, with the largest
    gap reported as delta.
    """
    region = build_ball(level)
    values = sample_potential(region, potential_spec, trial)
    evals = spectra.eigenvalues_dense(assemble(region, SIMPLE, values))
    intervals, is_interval = _allowed_intervals(potential_spec)
    violation = containment_violation(evals, intervals)
    report = {
        "level": level,
        "containment_max_violation": violation,
        "containment_pass": bool(violation <= 1e-9),
        "eigenvalue_min": float(evals[0]),
        "eigenvalue_max": float(evals[-1]),
    }
    if is_interval:
        lo, hi = potential_spec.support()
        free = decimation.free_spectrum_approx(decimation_depth,
                                               julia_samples=0).combinatorial()
        targets = (free[:, None]
                   + np.linspace(lo, hi, proximity_grid)[None, :]).ravel()
        delta = float(np.max(nearest_distance(evals, targets)))
        report["proximity_delta"] = delta
    return report


def containment_suite(level=6, depth=3, seed=0) -> list[CheckRecord]:
    """Spectrum containment for an atomic and an interval potential."""
    records = []
    rep = spectrum_containment_check(
        level, bernoulli(0.0, 10.0, 0.5, seed=seed), depth)
    records.append(CheckRecord(
        "containment", f"bernoulli_0_10 level={level}",
        rep["containment_max_violation"], 1e-9))
    rep = spectrum_containment_check(
        level, uniform(0.0, 1.0, seed=seed), depth)
    records.append(CheckRecord(
        "containment", f"uniform_0_1 level={level}",
        rep["containment_max_violation"], 1e-9))
    records.append(CheckRecord(
        "containment-proximity", f"uniform_0_1 level={level} depth={depth}",
        rep["proximity_delta"], 0.2))
    return records


# ---------------------------------------------------------------------------
# compactly supported eigenfunctions at energy 6

def _excluded_support(region) -> np.ndarray:
    """Mask of the interior boundary and its neighbors."""
    bad = np.zeros(len(region), dtype=bool)
    bad[region.interior_boundary] = True
    bad[region.edges[bad[region.edges].any(axis=1)]] = True
    return bad


def _kernel_at_six(region, tol):
    free = assemble(region, SIMPLE, np.zeros(len(region)))
    shifted = spectra.dense_array(free) - 6.0 * np.eye(len(region))
    allowed = np.flatnonzero(~_excluded_support(region))
    if allowed.size == 0:
        return []
    sub = shifted[:, allowed]
    _, s, vt = np.linalg.svd(sub, full_matrices=True)
    cutoff = max(sub.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    vectors = []
    for row in vt[s <= cutoff]:  # sub is tall, so s covers every column
        x = np.zeros(len(region))
        x[allowed] = row
        x /= np.linalg.norm(x)
        if np.linalg.norm(shifted @ x) <= tol:
            vectors.append(x)
    return vectors


def compact_eigenfunction_at_six(level: int, tol: float = 1e-8) -> list[np.ndarray]:
    """Unit vectors f on the radius-2^level ball with (-Lap - 6) f = 0,
    vanishing on the interior boundary and its neighbors.

    Because such an f is zero near the boundary, its zero-extension solves
    the eigenvalue equation on the whole lattice; an empty result falsifies
    the existence check.  Vectors are orthonormal.
    """
    if level < 2:
        raise ValidationError("need level >= 2 for a nonempty strict interior")
    return _kernel_at_six(build_ball(level), tol)


def localized_kernel_at_six(piece: TriangleSpec, tol: float = 1e-8):
    """Kernel vectors supported strictly inside one triangle (away from its
    corners), returned with the piece's region.

    Every gasket edge lies inside a single cover piece, so these vectors
    extend by zero across the whole lattice and can be carried to any other
    same-size triangle by a translation map.
    """
    region = build_triangle(piece)
    return _kernel_at_six(region, tol), region


def _relative_residual_at_six(region, x) -> float:
    """|(-Lap - 6) x| / |x| under the simple rule, summed over the region's
    edges."""
    i, j = region.edges.T
    n = len(region)
    residual = ((region.full_degree - 6.0) * x - np.bincount(i, x[j], n)
                - np.bincount(j, x[i], n))
    return float(np.linalg.norm(residual) / np.linalg.norm(x))


def zero_extension_residual(level: int, vector: np.ndarray) -> float:
    """Residual of the eigenvalue equation at 6 on the next larger ball
    after extending a ball vector by zero."""
    inner = build_ball(level)
    outer = build_ball(level + 1)
    x = np.zeros(len(outer))
    x[outer.locate(inner.coords)] = vector
    return _relative_residual_at_six(outer, x)


def kernel_suite(levels=(3, 4, 5)) -> list[CheckRecord]:
    """Compactly supported eigenfunctions at energy 6 and their translates."""
    if min(levels, default=2) < 2:
        raise ValidationError(f"kernel6 checks need levels >= 2, got {min(levels)}")
    records = []
    for level in levels:
        basis = compact_eigenfunction_at_six(level)
        records.append(CheckRecord(
            "kernel-nonempty", f"ball level={level}",
            0.0 if basis else 1.0, 0.0))
        if basis:
            worst = max(zero_extension_residual(level, v)
                        for v in basis[:3])
            records.append(CheckRecord(
                "kernel-zero-extension", f"ball level={level}", worst, 1e-8))
        records.append(CheckRecord(
            "kernel-translation", f"ball level={level}",
            translated_kernel_residual(level), 1e-8))
    return records


def translated_kernel_residual(level: int) -> float:
    """Build a kernel vector inside one small triangle, carry it by the
    translation bijection into the mirrored half of the ball, and measure
    the eigenvalue-equation residual there."""
    vectors, source = localized_kernel_at_six(TriangleSpec(2))
    if not vectors:
        return np.inf
    ball = build_ball(max(level, 2))
    x = np.zeros(len(ball))
    x[ball.locate(translation_map(source, TriangleSpec(2, mirrored=True)))] = vectors[0]
    return _relative_residual_at_six(ball, x)


def decay_suite(max_level=10) -> list[CheckRecord]:
    """Two-sided 5^-level decay of the spectral-gap and ground-state
    formulas, dense below level 6 and by iteration above."""
    records = []
    for level in range(1, max_level + 1):
        gap = decimation.neumann_gap(level)
        ground = decimation.dirichlet_ground(level)
        scale = 5.0 ** (-level)
        if level <= 5:
            reg = build_triangle(level)
            dense_gap = spectra.eigenvalues_dense(
                assemble(reg, "neumann", np.zeros(len(reg))))[1]
            regt = build_triangle(TriangleSpec(level, truncated=True))
            dense_ground = spectra.eigenvalues_dense(
                assemble(regt, "simple", np.zeros(len(regt))))[0]
            records.append(CheckRecord(
                "gap-sandwich", f"level={level}",
                max(2.0 * gap - dense_gap, dense_gap - 4.0 * gap), 1e-9))
            records.append(CheckRecord(
                "ground-formula", f"level={level}",
                abs(dense_ground - ground), 1e-9))
            comb_gap = dense_gap
        else:
            comb_gap = None
        lo, hi = 7.5 * scale, 60.0 * scale
        value = comb_gap if comb_gap is not None else 2.0 * gap
        upper = comb_gap if comb_gap is not None else 4.0 * gap
        records.append(CheckRecord(
            "neumann-gap-bounds", f"level={level}",
            max(lo - value, upper - hi), 0.0))
        records.append(CheckRecord(
            "dirichlet-ground-bounds", f"level={level}",
            max(10.0 * scale - ground, ground - 40.0 * scale), 0.0))
    return records


class Suite(NamedTuple):
    """One named suite.  ``function`` names its function in this module; it
    is looked up at call time, so the module attribute stays its one
    binding.  ``options`` maps the parsed ``verify`` command line to its
    keyword arguments; ``in_all`` holds its keyword arguments under
    ``all``."""

    function: str
    seeded: bool
    options: Callable[..., dict]
    in_all: dict


SUITE_TABLE = {
    "counting": Suite("counting_suite", True, lambda a: {
        "levels": tuple(a.levels), "seeds": a.seeds, "grid_points": a.grid_n},
        {"levels": (3,), "seeds": 5}),
    "interlacing": Suite("interlacing_suite", True, lambda a: {
        "dim": a.dim, "trials": a.trials}, {"dim": 50, "trials": 25}),
    "psd": Suite("psd_suite", True, lambda a: {
        "dim": a.dim, "trials": a.trials}, {"dim": 40, "trials": 25}),
    "branch": Suite("branch_suite", False, lambda a: {
        "n": a.n, "samples": a.samples}, {"n": 30, "samples": 50}),
    "temple": Suite("temple_suite", True, lambda a: {
        "levels": tuple(a.levels), "seeds": a.seeds},
        {"levels": (2, 3), "seeds": 25}),
    "containment": Suite("containment_suite", True, lambda a: {
        "level": a.levels[0], "depth": a.depth}, {"level": 5, "depth": 3}),
    "kernel6": Suite("kernel_suite", False, lambda a: {
        "levels": tuple(a.levels)}, {"levels": (3, 4)}),
    "decay": Suite("decay_suite", False, lambda a: {
        "max_level": a.max_level}, {"max_level": 10}),
}

SUITES = (*SUITE_TABLE, "all")


def _run(suite: Suite, seed: int, kwargs: dict) -> list[CheckRecord]:
    if suite.seeded:
        kwargs = {**kwargs, "seed": seed}
    return globals()[suite.function](**kwargs)


def run_suite(name: str, seed: int = 0, **kwargs) -> list[CheckRecord]:
    """Run a named suite; ``all`` concatenates every suite at its
    ``in_all`` sizes."""
    if name == "all":
        return [record for suite in SUITE_TABLE.values()
                for record in _run(suite, seed, suite.in_all)]
    if name not in SUITE_TABLE:
        raise ValidationError(f"unknown suite {name!r}; choose from {SUITES}")
    return _run(SUITE_TABLE[name], seed, kwargs)
