"""Eigenvalues, counting functions and mechanical inequality checks.

Small operators are diagonalized densely.  Large ones are handled through
inertia counting: the number of eigenvalues at or below E equals the number
of negative eigenvalues of H - (E + eta) I.  On a gasket region every
sub-triangle meets the rest of the graph only at its 3 corners, so that
matrix is eliminated bottom-up over the unit cells, three sibling triangles
at a time, as in spectral decimation; Sylvester's law of inertia adds up
the negative eigenvalues of the eliminated blocks.  The tie guard
eta = 1e-9 (1 + |E|) fixes the "<= E" convention when E collides with an
eigenvalue; every oracle comparison in the test-suite uses the same
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse

from . import operators
from .errors import CapacityError, ValidationError
from .lattice import TriangleSpec, build_ball, build_triangle, subdivide
from .operators import (DIRICHLET, NEUMANN, SIMPLE, HamiltonianMatrix,
                        assemble, sample_potential)

DENSE_THRESHOLD = 4096

#: Relative pivot size treated as a breakdown, about sqrt(eps).  Inverting
#: a pivot block with smallest eigenvalue lam puts errors ~ eps * scale / lam
#: into the Schur complement above it.  Equal-potential cells make blocks
#: exactly singular at some energies (E = 2 or 12 under a 0/10 potential),
#: leaving lam at the tie guard, and a 1e-12 floor then let flipped pivot
#: signs through; with lam > sqrt(eps) * scale the error stays below it.
PIVOT_TOL = 1e-8


def tie_guard(energy: float) -> float:
    """Shift added to E so counting at spectral points is stable."""
    return 1e-9 * (1.0 + abs(energy))


def _as_symmetric(ham) -> sparse.csr_matrix:
    """Symmetric CSR with the spectrum of the argument."""
    if isinstance(ham, HamiltonianMatrix):
        return ham.symmetric_form()
    if sparse.issparse(ham):
        return ham.tocsr()
    arr = np.asarray(ham, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError("expected a square matrix")
    return sparse.csr_matrix(arr)


def eigenvalues_dense(ham, threshold: int = DENSE_THRESHOLD) -> np.ndarray:
    """All eigenvalues, ascending, by dense symmetric diagonalization."""
    mat = _as_symmetric(ham)
    n = mat.shape[0]
    if n > threshold:
        raise CapacityError(
            f"dimension {n} exceeds the dense threshold {threshold}; "
            "use count_below / counting_curve instead")
    return linalg.eigvalsh(mat.toarray())


def counts_from_eigenvalues(eigenvalues, grid) -> np.ndarray:
    """Tie-guarded counting #{ev <= E} for each E of the grid."""
    eigenvalues = np.sort(np.asarray(eigenvalues))
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    shifted = grid + np.array([tie_guard(e) for e in grid])
    return np.searchsorted(eigenvalues, shifted, side="left")


#: Slots of the corners of three sibling triangles in their 6x6 merge
#: block: outer corners 0-2, inner corners 3-5.
_CHILD_SLOTS = (np.array([0, 3, 4]), np.array([3, 1, 5]), np.array([4, 5, 2]))


def _negatives(values: np.ndarray, floor: float) -> int:
    if np.any(np.abs(values) <= floor):
        raise np.linalg.LinAlgError("pivot block numerically singular")
    return int(np.count_nonzero(values < 0.0))


def _negative_count(cells: np.ndarray, shifted: np.ndarray, floor: float) -> int:
    """Negative eigenvalues of the matrix with diagonal ``shifted`` and -1
    on every edge of the unit ``cells`` (see ``LatticeRegion.cells``).

    Each merge of three sibling triangles sums their 3x3 corner Schur
    complements into a 6x6 block, eliminates the 3 inner corners and
    carries the 3 outer ones up; the corners left at the top form the last
    block.  By Sylvester's law of inertia the negative eigenvalues of these
    blocks add up to those of the matrix.
    """
    t, m, _ = cells.shape
    corners, total = cells, 0
    # a cell's block is its 3 edges; each diagonal entry is added whole
    # when its vertex is eliminated
    schur = np.broadcast_to(np.eye(3) - 1.0, (t, m, 3, 3))
    while m > 1:
        m //= 3
        children = corners.reshape(t, m, 3, 3)
        merged = np.zeros((t, m, 6, 6))
        for child, slots in enumerate(_CHILD_SLOTS):
            merged[:, :, slots[:, None], slots] += schur[:, child::3]
        merged[:, :, [3, 4, 5], [3, 4, 5]] += shifted[
            children[:, :, [0, 0, 1], [1, 2, 2]]]
        values, vectors = np.linalg.eigh(merged[:, :, 3:, 3:])
        total += _negatives(values, floor)
        x = np.swapaxes(vectors, -1, -2) @ merged[:, :, 3:, :3]
        schur = (merged[:, :, :3, :3]
                 - np.swapaxes(x, -1, -2) @ (x / values[..., None]))
        corners = children[:, :, [0, 1, 2], [0, 1, 2]]
    # a corner shared by the two halves of a ball enters once; the -1 of
    # the corners a truncated triangle drops is summed, then cut out
    top, at = np.unique(corners, return_inverse=True)
    block = np.diag(shifted[top])
    np.add.at(block, (at.reshape(t, 3, 1), at.reshape(t, 1, 3)), schur[:, 0])
    keep = np.flatnonzero(top >= 0)
    return total + _negatives(np.linalg.eigvalsh(block[np.ix_(keep, keep)]), floor)


def count_below(ham, energy: float, retries: int = 5) -> int:
    """#{eigenvalues <= energy}: the negative inertia of the operator minus
    (energy + eta), by :func:`_negative_count` over the unit cells of a
    built region (the probabilistic Laplacian D^{-1} L as the congruent
    pencil L - E*D), and densely for any other matrix.  On a breakdown the
    shift is nudged by growing multiples of the tie guard; the ladder is
    deterministic, so repeated runs agree bit for bit.
    """
    if not (isinstance(ham, HamiltonianMatrix) and ham.region.cells is not None):
        return int(counts_from_eigenvalues(eigenvalues_dense(ham), [energy])[0])
    # D^{-1} L: the diagonal of the Neumann Laplacian L is D itself
    diag, weights = ((ham.matrix.diagonal(), 1.0) if ham.symmetric
                     else (ham.degree_weights, ham.degree_weights))
    for attempt in range(retries):
        shifted = diag - (energy + tie_guard(energy) * 10**attempt) * weights
        try:
            return _negative_count(ham.region.cells, shifted, PIVOT_TOL * max(
                1.0, float(np.max(np.abs(shifted)))))
        except np.linalg.LinAlgError:
            continue
    raise RuntimeError(
        f"inertia counting failed at E={energy} after {retries} shifted retries")


@dataclass
class CountingFunction:
    """#{eigenvalues <= E} on a sorted energy grid."""

    energies: np.ndarray
    counts: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("E,count\n")
            for e, c in zip(self.energies, self.counts):
                fh.write(f"{e:.17g},{c}\n")


def counting_curve(ham, grid, method: str = "auto",
                   threshold: int = DENSE_THRESHOLD) -> CountingFunction:
    """Counting function on a grid, densely below the threshold and by
    inertia above it (or as forced by ``method``)."""
    grid = np.sort(np.asarray(grid, dtype=float))
    mat = _as_symmetric(ham)
    if method == "auto":
        method = "dense" if mat.shape[0] <= threshold else "inertia"
    if method == "dense":
        counts = counts_from_eigenvalues(eigenvalues_dense(ham, threshold=max(
            threshold, mat.shape[0])), grid)
    elif method == "inertia":
        counts = np.array([count_below(ham, e) for e in grid])
    else:
        raise ValidationError(f"unknown counting method {method!r}")
    return CountingFunction(grid, counts)


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


def records_to_json(records, path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump([r.to_dict() for r in records], fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# counting-stability checks on gasket triangles

_BC_NAMES = (SIMPLE, NEUMANN, DIRICHLET)


def _restrict(parent_region, parent_values, region):
    return parent_values[parent_region.locate(region.coords)]


def verify_counting_bounds(level, potential_spec, trials, grid) -> list[CheckRecord]:
    """Counting-function comparisons on one triangle size.

    For each sampled potential this checks that (a) the counting functions
    of the six operators (full and truncated triangle, three boundary
    conditions each) never differ by more than 9 at any grid energy, and
    (b) splitting a triangle into its three half-size children (same
    boundary condition, same potential restriction) changes the count by
    at most 30.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    parent = build_triangle(level)
    parent_trunc = build_triangle(TriangleSpec(level, truncated=True))
    children = [build_triangle(p) for p in
                subdivide(parent, level - 1, "cover").pieces]
    child_truncs = [build_triangle(TriangleSpec(p.level, p.anchor, True, p.mirrored))
                    for p in subdivide(parent, level - 1, "cover").pieces]
    records = []
    for trial in range(trials):
        values = sample_potential(parent, potential_spec, trial)
        curves = {}
        for bc in _BC_NAMES:
            for name, reg in (("full", parent), ("trunc", parent_trunc)):
                ham = assemble(reg, bc, _restrict(parent, values, reg))
                curves[(name, bc)] = counts_from_eigenvalues(
                    eigenvalues_dense(ham), grid)
        keys = list(curves)
        for i, ki in enumerate(keys):
            for kj in keys[i + 1:]:
                dev = int(np.max(np.abs(curves[ki] - curves[kj])))
                records.append(CheckRecord(
                    "bc-pair", f"L={level} trial={trial} {ki[0]}/{ki[1]} vs "
                    f"{kj[0]}/{kj[1]}", dev, 9))
        for bc in _BC_NAMES:
            for name, regs in (("full", children), ("trunc", child_truncs)):
                total = np.zeros(len(grid), dtype=int)
                for reg in regs:
                    ham = assemble(reg, bc, _restrict(parent, values, reg))
                    total += counts_from_eigenvalues(eigenvalues_dense(ham), grid)
                dev = int(np.max(np.abs(curves[(name, bc)] - total)))
                records.append(CheckRecord(
                    "triple-split", f"L={level} trial={trial} {name}/{bc}",
                    dev, 30))
    return records


# ---------------------------------------------------------------------------
# generic matrix inequality checks

def _goe(rng, dim, radius=10.0):
    g = rng.standard_normal((dim, dim))
    h = (g + g.T) / 2.0
    return h * (radius / np.sqrt(2.0 * dim))


def verify_interlacing_bounds(dim, trials, seed=0, n_energies=100) -> list[CheckRecord]:
    """Projection and perturbation counting bounds on random matrices.

    Per trial: (a) deleting ``codim`` coordinates moves the count up by at
    most ``codim`` and never down; (b) a rank-m diagonal perturbation moves
    it by at most m; (c)/(d) a positive-semidefinite coupling added to
    (subtracted from) a block-diagonal matrix keeps the count below (above)
    the sum of the block counts.
    """
    if dim > 200:
        raise ValidationError("interlacing checks limited to dim <= 200")
    rng = np.random.default_rng(seed)
    records = []
    for trial in range(trials):
        h = _goe(rng, dim)
        evals = np.linalg.eigvalsh(h)
        energies = rng.uniform(-12.0, 12.0, n_energies)
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
        block_counts = np.zeros(n_energies, dtype=int)
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


def verify_psd_product_bounds(dim, trials, seed=0) -> list[CheckRecord]:
    """Ordered-eigenvalue bounds for products of PSD matrices:
    smallest(A)*E_j(B) <= E_j(AB) <= largest(A)*E_j(B) for every j."""
    if dim > 100:
        raise ValidationError("product-bound checks limited to dim <= 100")
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


# ---------------------------------------------------------------------------
# compactly supported eigenfunctions at energy 6

def _excluded_support(region) -> np.ndarray:
    """Mask of the interior boundary and its neighbors."""
    bad = np.zeros(len(region), dtype=bool)
    bad[region.interior_boundary] = True
    bad[region.edges[bad[region.edges].any(axis=1)]] = True
    return bad


def _kernel_at_six(region, tol):
    full = operators.laplacian(region, SIMPLE).toarray()
    shifted = full - 6.0 * np.eye(len(region))
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


def zero_extension_residual(level: int, vector: np.ndarray) -> float:
    """Residual of the eigenvalue equation at 6 on the next larger ball
    after extending a ball vector by zero."""
    inner = build_ball(level)
    outer = build_ball(level + 1)
    shifted = operators.laplacian(outer, SIMPLE) - 6.0 * sparse.identity(len(outer))
    x = np.zeros(len(outer))
    x[outer.locate(inner.coords)] = vector
    return float(np.linalg.norm(shifted @ x) / np.linalg.norm(x))


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


def _distance_to_intervals(x, intervals):
    best = np.inf
    for lo, hi in intervals:
        if lo <= x <= hi:
            return 0.0
        best = min(best, abs(x - lo), abs(x - hi))
    return best


def spectrum_containment_check(level, potential_spec, decimation_depth,
                               trial: int = 0, proximity_grid: int = 21) -> dict:
    """Finite-volume containment of the sampled spectrum.

    (a) every eigenvalue of the simple-boundary Hamiltonian on the ball
    lies in [0, 6] shifted by the potential support; (b) for an interval
    support, every point of the (depth-truncated) free spectrum plus the
    support interval is close to some sampled eigenvalue, with the largest
    gap reported as delta.
    """
    from . import decimation

    region = build_ball(level)
    values = sample_potential(region, potential_spec, trial)
    evals = eigenvalues_dense(assemble(region, SIMPLE, values),
                              threshold=max(DENSE_THRESHOLD, len(region)))
    intervals, is_interval = _allowed_intervals(potential_spec)
    violation = max(_distance_to_intervals(x, intervals) for x in evals)
    report = {
        "level": level,
        "containment_max_violation": float(violation),
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
        delta = float(np.max(np.min(np.abs(targets[:, None] - evals[None, :]),
                                    axis=1)))
        report["proximity_delta"] = delta
    return report
