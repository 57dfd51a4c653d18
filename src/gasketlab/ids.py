"""Monte-Carlo integrated density of states and spectral-tail fits.

The IDS of H = -Laplacian + V is approximated by the trial average of
#{eigenvalues <= E} / |region| on a triangle (one-sided) or ball
(two-sided) region.  Near the bottom of the spectrum two regimes are
fitted: the free operator vanishes like a power E^tau, the random one
like a stretched exponential whose double logarithm is again a power law
with the same exponent tau = log 3/log 5: the gasket's volume growth
exponent log 3/log 2 over its walk dimension log 5/log 2.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ValidationError
from .lattice import (MAX_LEVEL, TriangleSpec, ball_count, build_ball,
                      build_triangle, triangle_count)
from .operators import (BOUNDARY_CONDITIONS, NEUMANN, PotentialSpec, assemble,
                        sample_potential)
from .spectra import count_operators, eigenvalues_dense

#: The tail exponent of both fitted regimes: the volume growth exponent
#: log 3/log 2 over the walk dimension log 5/log 2.
TAU = math.log(3.0) / math.log(5.0)

#: Neumann gap constant: first nonzero eigenvalue >= TEMPLE_C0 * 5^-level.
TEMPLE_C0 = 15.0 / 2.0


@dataclass
class IdsCurve:
    """Normalized averaged counting function with per-point standard errors."""

    energies: np.ndarray
    mean_counts: np.ndarray
    std_errors: np.ndarray
    trials: int
    region_size: int

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("E,mean,stderr,trials\n")
            for e, m, s in zip(self.energies, self.mean_counts, self.std_errors):
                fh.write(f"{e:.17g},{m:.17g},{s:.17g},{self.trials}\n")


def read_curve_csv(path) -> IdsCurve:
    """Load a curve written by :meth:`IdsCurve.to_csv`.  Trials and region
    size come from the ``<prefix>.config`` that ``gasketlab ids`` writes
    beside ``<prefix>.curve.csv``, so the curve fits as it did in memory
    (the size is counted from level and region kind, not built); without
    that file the size is 0 (no minimum-count floor).  A curve with no
    rows, with fewer than its four columns or with fewer than 1 trial is
    a ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on no rows, refused below
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not rows.size or rows.shape[1] < 4:
        raise ValueError(f"expected rows of E,mean,stderr,trials, got shape {rows.shape}")
    config = {"trials": rows[0, 3], "level": -1, "region": ""}
    sidecar = str(path).removesuffix(".curve.csv") + ".config"
    if str(path).endswith(".curve.csv") and os.path.exists(sidecar):
        with open(sidecar) as fh:
            config.update(line.rstrip("\n").partition("=")[::2] for line in fh)
    level, kind, trials = int(config["level"]), config["region"], int(config["trials"])
    if trials < 1:
        raise ValueError(f"a curve needs at least 1 trial, got {trials}")
    return IdsCurve(rows[:, 0], rows[:, 1], rows[:, 2], trials,
                    _region_size(level, kind) if kind else 0)


def tail_grid(lo: float = 1e-4, hi: float = 1e-1, n: int = 33) -> np.ndarray:
    """Geometric energy grid for tail work."""
    return np.geomspace(lo, hi, n)


def global_grid(potential_spec: PotentialSpec, n: int) -> np.ndarray:
    """Uniform grid covering the whole spectrum of any boundary condition:
    from the least potential value (0 if that is not negative) to 16 plus
    the greatest."""
    lo, hi = potential_spec.support()
    return np.linspace(lo if lo < 0 else 0.0, 16.0 + max(hi, 0.0), n)


def _region_size(level, region_kind) -> int:
    """Vertices of the region :func:`_region_for` builds, without building it."""
    if region_kind not in ("half", "full"):
        raise ValidationError(
            f"region kind must be 'half' or 'full', got {region_kind!r}")
    return (triangle_count if region_kind == "half" else ball_count)(level)


def _region_for(level, region_kind, max_level):
    _region_size(level, region_kind)  # rejects an unknown kind
    if region_kind == "half":
        return build_triangle(TriangleSpec(level), half_lattice=True,
                              max_level=max_level)
    return build_ball(level, max_level=max_level)


def estimate_ids(level, bc, potential_spec, trials, grid, *,
                 region_kind: str = "half",
                 max_level: int = MAX_LEVEL) -> IdsCurve:
    """Average the normalized counting function over independent trials.

    The trials are counted in one :func:`spectra.count_operators` call,
    which picks the method by size (the band on the trial threads, or rows
    of ``count_below`` eliminations) and builds each trial's operator when
    it is counted.  Trials are keyed by (seed, trial index) and reduced in
    fixed order, so the result does not depend on scheduling or threads.
    A level above ``max_level`` is a CapacityError, as in the region
    builders.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    grid = np.sort(np.asarray(grid, dtype=float))
    region = _region_for(level, region_kind, max_level)
    n = len(region)

    def operator(t):
        return assemble(region, bc, sample_potential(region, potential_spec, t))

    stacked = count_operators(region, operator, trials, grid) / n
    mean = stacked.mean(axis=0)
    if trials > 1:
        stderr = stacked.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        stderr = np.zeros_like(mean)
    return IdsCurve(grid, mean, stderr, trials, n)


def bc_independence_report(level, potential_spec, trials, grid) -> dict:
    """Compare the estimated half-lattice curves across boundary conditions.

    The same potential samples are used for every boundary condition, so
    pointwise curve differences must stay within 9/|region| plus four
    combined standard errors.
    """
    curves = {bc: estimate_ids(level, bc, potential_spec, trials, grid)
              for bc in BOUNDARY_CONDITIONS}
    n = next(iter(curves.values())).region_size
    pairs = []
    for a, b in itertools.combinations(curves, 2):
        ca, cb = curves[a], curves[b]
        bound = 9.0 / n + 4.0 * (ca.std_errors + cb.std_errors)
        worst = float(np.max(np.abs(ca.mean_counts - cb.mean_counts) - bound))
        pairs.append({"pair": f"{a}/{b}", "max_excess": worst,
                      "passed": bool(worst <= 0.0)})
    return {"level": level, "region_size": n, "pairs": pairs,
            "passed": all(p["passed"] for p in pairs)}


def temple_lower_bound(level, potential_sample) -> tuple[float, bool]:
    """Lower bound for the ground state of the Neumann operator with the
    half potential, and whether its trial-vector hypothesis holds.  The
    bound is half the mean of the truncated potential: the half potential
    capped at (c0/3) 5^-level.  The hypothesis needs that mean strictly
    below the cap; a capped-out sample is flagged, not rejected."""
    cap = TEMPLE_C0 / 3.0 * 5.0 ** (-level)
    mean = float(np.mean(np.minimum(
        0.5 * np.asarray(potential_sample, dtype=float), cap)))
    return 0.5 * mean, mean < cap


def temple_check(level, potential_spec, trial: int = 0) -> dict:
    """Compare the bound against the dense ground state on one sample."""
    region = build_triangle(level)
    values = sample_potential(region, potential_spec, trial)
    bound, hypothesis_ok = temple_lower_bound(level, values)
    ham = assemble(region, NEUMANN, 0.5 * values)
    ground = float(eigenvalues_dense(ham)[0])
    return {
        "level": level,
        "trial": trial,
        "bound": bound,
        "ground_state": ground,
        "hypothesis_ok": hypothesis_ok,
        "passed": bool(bound <= ground + 1e-12),
    }


def _usable_points(curve: IdsCurve, window):
    """The (energies, mean counts) a fit of the window can use: counts in
    (0, 1) of more than 3 raw eigenvalues over the trials (at region size
    0, any); fewer than 5 is an InsufficientDataError.  Every fit takes
    log E or E^-tau, so the window needs 0 < lo < hi, and the curve at
    least 1 trial (else a ValidationError)."""
    lo, hi = window
    if not 0.0 < lo < hi:
        raise ValidationError("window must satisfy 0 < lo < hi")
    if curve.trials < 1:
        raise ValidationError(f"a curve needs at least 1 trial, got {curve.trials}")
    floor = 3.0 / (curve.trials * curve.region_size) if curve.region_size > 0 else 0.0
    mask = ((curve.energies >= lo) & (curve.energies <= hi)
            & (curve.mean_counts > floor) & (curve.mean_counts > 0.0)
            & (curve.mean_counts < 1.0))
    energies, counts = curve.energies[mask], curve.mean_counts[mask]
    if len(energies) < 5:
        raise InsufficientDataError(
            f"only {len(energies)} usable points in window {window}")
    return energies, counts


def _r_squared(y, fitted) -> float:
    """Coefficient of determination; 1 when y is constant."""
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def _linear_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept), _r_squared(y, slope * x + intercept)


@dataclass
class LifshitzFit:
    """Least-squares slope of log|log N| against log E."""

    window: tuple[float, float]
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    target: float = -TAU


def lifshitz_fit(curve: IdsCurve, window) -> LifshitzFit:
    """Fit the double-log tail exponent on the usable window points."""
    energies, counts = _usable_points(curve, window)
    slope, intercept, r2 = _linear_fit(np.log(energies),
                                       np.log(np.abs(np.log(counts))))
    return LifshitzFit(tuple(window), slope, intercept, r2, len(energies))


@dataclass
class PowerLawFit:
    """Least-squares fit of log N against log E."""

    window: tuple[float, float]
    slope: float
    prefactor: float
    r_squared: float
    n_points: int
    target: float = TAU


def free_ids_exponent(curve: IdsCurve, window) -> PowerLawFit:
    """Power-law fit of the zero-potential curve near the bottom."""
    energies, counts = _usable_points(curve, window)
    slope, intercept, r2 = _linear_fit(np.log(energies), np.log(counts))
    return PowerLawFit(tuple(window), slope, math.exp(intercept), r2,
                       len(energies))


def exponential_tail_fit(curve: IdsCurve, window) -> dict:
    """Two-parameter stretched-exponential reference fit
    log N = m1 + m2 * E^-tau.  Diagnostic only."""
    energies, counts = _usable_points(curve, window)
    design = np.column_stack([np.ones_like(energies), energies ** -TAU])
    log_counts = np.log(counts)
    coef, *_ = np.linalg.lstsq(design, log_counts, rcond=None)
    return {"m1": float(coef[0]), "m2": float(coef[1]),
            "exponent": TAU,
            "r_squared": _r_squared(log_counts, design @ coef),
            "n_points": len(energies)}
