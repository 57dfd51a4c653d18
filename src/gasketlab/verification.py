"""Named verification suites aggregating every mechanical inequality check.

Each suite returns uniform records (check id, instance, deviation, bound)
so the command line can emit one JSON report and an exit code that
reflects the conjunction of all checks.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import decimation, ids, spectra
from .errors import ValidationError
from .lattice import TriangleSpec, translation_map
from .operators import bernoulli, constant, uniform
from .spectra import CheckRecord

def default_distributions(seed: int = 0):
    """The three reference potentials used across the verification corpus."""
    return {
        "const0": constant(0.0, seed=seed),
        "bernoulli_0_10": bernoulli(0.0, 10.0, 0.5, seed=seed),
        "uniform_0_1": uniform(0.0, 1.0, seed=seed),
    }


def counting_suite(levels=(4,), seeds=20, grid_points=64,
                   distributions=None, seed=0) -> list[CheckRecord]:
    """Pairwise and triple-split counting bounds over the sampled corpus."""
    records = []
    dists = distributions or default_distributions(seed)
    for name, spec in dists.items():
        grid = ids.global_grid(spec, grid_points)
        trials = 1 if spec.distribution[0] == "constant" else seeds
        for level in levels:
            recs = spectra.verify_counting_bounds(level, spec, trials, grid)
            for r in recs:
                r.instance = f"{name} {r.instance}"
            records.extend(recs)
    return records


def interlacing_suite(dim=50, trials=50, seed=0) -> list[CheckRecord]:
    return spectra.verify_interlacing_bounds(dim, trials, seed=seed)


def psd_suite(dim=40, trials=100, seed=0) -> list[CheckRecord]:
    return spectra.verify_psd_product_bounds(dim, trials, seed=seed)


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


def containment_suite(level=6, depth=3, seed=0) -> list[CheckRecord]:
    """Spectrum containment for an atomic and an interval potential."""
    records = []
    rep = spectra.spectrum_containment_check(
        level, bernoulli(0.0, 10.0, 0.5, seed=seed), depth)
    records.append(CheckRecord(
        "containment", f"bernoulli_0_10 level={level}",
        rep["containment_max_violation"], 1e-9))
    rep = spectra.spectrum_containment_check(
        level, uniform(0.0, 1.0, seed=seed), depth)
    records.append(CheckRecord(
        "containment", f"uniform_0_1 level={level}",
        rep["containment_max_violation"], 1e-9))
    records.append(CheckRecord(
        "containment-proximity", f"uniform_0_1 level={level} depth={depth}",
        rep["proximity_delta"], 0.2))
    return records


def kernel_suite(levels=(3, 4, 5)) -> list[CheckRecord]:
    """Compactly supported eigenfunctions at energy 6 and their translates."""
    records = []
    for level in levels:
        basis = spectra.compact_eigenfunction_at_six(level)
        records.append(CheckRecord(
            "kernel-nonempty", f"ball level={level}",
            0.0 if basis else 1.0, 0.0))
        if basis:
            worst = max(spectra.zero_extension_residual(level, v)
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
    from . import operators
    from .lattice import build_ball

    source = TriangleSpec(2)
    target = TriangleSpec(2, mirrored=True)
    vectors, _ = spectra.localized_kernel_at_six(source)
    if not vectors:
        return np.inf
    ball = build_ball(max(level, 2))
    x = np.zeros(len(ball))
    x[ball.locate(translation_map(source, target))] = vectors[0]
    shifted = operators.laplacian(ball, "simple") @ x - 6.0 * x
    return float(np.linalg.norm(shifted) / np.linalg.norm(x))


def decay_suite(max_level=10) -> list[CheckRecord]:
    """Two-sided 5^-level decay of the spectral-gap and ground-state
    formulas, dense below level 6 and by iteration above."""
    from . import lattice, operators

    records = []
    for level in range(1, max_level + 1):
        gap = decimation.neumann_gap(level)
        ground = decimation.dirichlet_ground(level)
        scale = 5.0 ** (-level)
        if level <= 5:
            reg = lattice.build_triangle(level)
            dense_gap = spectra.eigenvalues_dense(
                operators.assemble(reg, "neumann", np.zeros(len(reg))))[1]
            regt = lattice.build_triangle(TriangleSpec(level, truncated=True))
            dense_ground = spectra.eigenvalues_dense(
                operators.assemble(regt, "simple", np.zeros(len(regt))))[0]
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
