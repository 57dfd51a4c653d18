"""Eigenvalues, counting functions and mechanical inequality checks.

Small operators are diagonalized densely.  Large ones are handled through
inertia counting: the number of eigenvalues at or below E equals the number
of negative eigenvalues of H - (E + eta) I.  On a gasket region every
sub-triangle meets the rest of the graph only at its 3 corners, so that
matrix is eliminated bottom-up over the unit cells, three sibling triangles
at a time, as in spectral decimation; Sylvester's law of inertia adds up
the negative eigenvalues of the eliminated 3x3 blocks.  All energies of a
call share one pass: each level keeps the six entries of its 3x3 corner
Schur complements as (energies, cells) arrays, and each pivot block is
counted (Descartes' rule on its characteristic polynomial) and inverted
(adjugate over determinant) in closed form, elementwise.  Blocks too close
to singular for the closed form to be certain go through batched
``numpy.linalg.eigh``.  Energies go in batches and cells in subtrees, so
no temporary holds more than a fixed number of elements at any level.  A
block within the pivot floor of singular is a breakdown: a small operator
is then counted densely at that energy, a large one again at a nudged
shift.  The tie guard eta = 1e-9 (1 + |E|) fixes the "<= E" convention
when E collides with an eigenvalue; every oracle comparison in the
test-suite uses the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def tie_guard(energy):
    """Shift added to E (a scalar or an array) so counting at spectral
    points is stable."""
    return 1e-9 * (1.0 + abs(energy))


def _dimension(ham) -> int:
    """Rows of a HamiltonianMatrix, or of a square matrix of any kind."""
    if isinstance(ham, HamiltonianMatrix):
        return ham.dimension
    shape = np.shape(ham)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError("expected a square matrix")
    return shape[0]


def _dense_symmetric(ham) -> np.ndarray:
    """Dense symmetric array with the spectrum of the argument."""
    if isinstance(ham, HamiltonianMatrix):
        if not ham.symmetric:
            return ham.symmetric_form().toarray()
        arr = np.diag(ham.diagonal)
        i, j = ham.region.edges.T
        arr[i, j] = arr[j, i] = -1.0
        return arr
    if hasattr(ham, "toarray"):  # a scipy.sparse matrix
        return ham.toarray()
    return np.asarray(ham, dtype=float)


def eigenvalues_dense(ham, threshold: int = DENSE_THRESHOLD) -> np.ndarray:
    """All eigenvalues, ascending, by dense symmetric diagonalization."""
    n = _dimension(ham)
    if n > threshold:
        raise CapacityError(
            f"dimension {n} exceeds the dense threshold {threshold}; "
            "use count_below / counting_curve instead")
    from scipy import linalg  # only dense solves need it

    return linalg.eigvalsh(_dense_symmetric(ham))


def counts_from_eigenvalues(eigenvalues, grid) -> np.ndarray:
    """Tie-guarded counting #{ev <= E} for each E of the grid."""
    eigenvalues = np.sort(np.asarray(eigenvalues))
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    shifted = grid + tie_guard(grid)
    return np.searchsorted(eigenvalues, shifted, side="left")


#: Most elements a temporary of the elimination holds, whatever the level
#: or grid size: energies go in batches of at most _BUDGET // 64, cells in
#: subtrees whose first merge has at most _BUDGET // energies blocks.  A
#: larger budget runs faster but raises peak memory; a much smaller one
#: makes numpy calls so short that the interpreter lock serializes
#: concurrent trial threads.
_BUDGET = 2**15

#: A 3x3 pivot block A is counted and inverted in closed form when
#: |det A| > ||A||^2 max(_CERTAIN ||A||, 2 floor), ||A|| the largest row
#: sum.  Its smallest |eigenvalue| is then at least |det A| / ||A||^2: so
#: far from zero against the rounding of the coefficients (sqrt(eps) ||A||
#: would do) that Descartes' signs are exact, and above the pivot floor.
#: Any other block goes through ``eigh``.
_CERTAIN = 1e-3


#: The (row, column) of each of the six entries a corner Schur complement
#: is kept as.
_ENTRIES = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _merge(schur, corners, diag, weights, shift, floor, broken):
    """Eliminate the 3 inner corners of every triple of sibling triangles.

    ``schur`` holds the six entries of the children's corner Schur
    complements as (energies, 3m) arrays, ``corners`` their (3m, 3) corner
    rows.  Returns the negative eigenvalues of the eliminated blocks per
    energy, the six (energies, m) entries on the outer corners and their
    (m, 3) rows; sets ``broken`` at the energies where a block has an
    eigenvalue within ``floor`` of zero.
    """
    kids = corners.reshape(-1, 3, 3)
    (a00, a11, a22, a01, a02, a12), (b00, b11, b22, b01, b02, b12), (
        c00, c11, c22, c01, c02, c12) = ([x[:, j::3] for x in schur]
                                         for j in range(3))
    # inner corners 3, 4, 5 are shared by children 0-1, 0-2 and 1-2; the
    # outer corners 0, 1, 2 of the children meet no other child, and the
    # couplings between inner and outer corners are the rows of
    # [[a01, b01, 0], [a02, 0, c02], [0, b12, c12]]
    p, q, r = (x + y + (diag[i] - shift * weights[i]) for x, y, i in (
        (a11, b00, kids[:, 0, 1]), (a22, c00, kids[:, 0, 2]), (b22, c11, kids[:, 1, 2])))
    u, v, w = a12, b02, c01
    # adjugate, determinant and 2x2 minor sum of [[p, u, v], [u, q, w], [v, w, r]]
    j33, j44, j55 = q * r - w * w, p * r - v * v, p * q - u * u
    j34, j35, j45 = v * w - u * r, u * w - q * v, u * v - p * w
    det = p * j33 + u * j34 + v * j35
    norm = np.maximum(np.maximum(np.abs(p) + np.abs(u) + np.abs(v),
                                 np.abs(u) + np.abs(q) + np.abs(w)),
                      np.abs(v) + np.abs(w) + np.abs(r))
    certain = ((np.abs(det) > norm * norm * np.maximum(_CERTAIN * norm, 2.0 * floor))
               & np.isfinite(det))
    # Descartes: sign changes of (1, trace, minors, det) count the negative
    # eigenvalues, exactly for a real-rooted cubic with det != 0
    trace, minors = p + q + r, j33 + j44 + j55
    negatives = np.where(det > 0, np.where((trace > 0) & (minors > 0), 0, 2),
                         np.where((trace < 0) & (minors > 0), 3, 1))
    inv = certain / np.where(certain, det, 1.0)
    # adj(A) times the coupling columns (a01, a02, 0), (b01, 0, b12) and
    # (0, c02, c12), one column at a time to bound the live temporaries
    s00 = a00 - (a01 * (j33 * a01 + j34 * a02) + a02 * (j34 * a01 + j44 * a02)) * inv
    y = (j33 * b01 + j35 * b12, j34 * b01 + j45 * b12, j35 * b01 + j55 * b12)
    s11, s01 = b11 - (b01 * y[0] + b12 * y[2]) * inv, -(a01 * y[0] + a02 * y[1]) * inv
    y = (j34 * c02 + j35 * c12, j44 * c02 + j45 * c12, j45 * c02 + j55 * c12)
    out = [s00, s11, c22 - (c02 * y[1] + c12 * y[2]) * inv, s01,
           -(a01 * y[0] + a02 * y[1]) * inv, -(b01 * y[0] + b12 * y[2]) * inv]
    e, c = np.nonzero(~certain)

    def at(x):  # x is (energies, m), or (1, m) for the same at all energies
        return x[e if len(x) > 1 else 0, c]

    # the counts at an energy that broke down earlier are thrown away
    e, c = e[~broken[e]], c[~broken[e]]
    if e.size:
        inner = np.stack([at(x) for x in (p, u, v, u, q, w, v, w, r)], axis=-1)
        values, vectors = np.linalg.eigh(inner.reshape(-1, 3, 3))
        small = np.abs(values) <= floor[e]
        broken[e[small.any(axis=1)]] = True
        couple = np.zeros((e.size, 3, 3))
        couple[:, 0, 0], couple[:, 0, 1] = at(a01), at(b01)
        couple[:, 1, 0], couple[:, 1, 2] = at(a02), at(c02)
        couple[:, 2, 1], couple[:, 2, 2] = at(b12), at(c12)
        x = np.swapaxes(vectors, -1, -2) @ couple
        update = np.swapaxes(x, -1, -2) @ (x / np.where(small, 1.0, values)[..., None])
        outer = (at(a00), at(b11), at(c22), 0.0, 0.0, 0.0)
        for s, o, (i, j) in zip(out, outer, _ENTRIES):
            s[e, c] = o - update[:, i, j]
        negatives[e, c] = np.count_nonzero(values < 0.0, axis=1)
    return negatives.sum(axis=1), out, kids[:, [0, 1, 2], [0, 1, 2]]


def _eliminate(corners, diag, weights, shift, floor, broken):
    """Merge the unit cells with rows ``corners`` (3^j, 3), one subtree, up
    to its 3 outer corners: the negatives per energy, the six (energies, 1)
    entries of the corner Schur complement and the (1, 3) corner rows.  A
    subtree too wide for the element budget is done as its 3 children."""
    negatives = np.zeros(len(shift), dtype=np.int64)
    if len(shift) * len(corners) > 3 * _BUDGET:
        parts = [_eliminate(part, diag, weights, shift, floor, broken)
                 for part in np.split(corners, 3)]
        negatives = sum(p[0] for p in parts)
        schur = [np.hstack(entry) for entry in zip(*(p[1] for p in parts))]
        corners = np.vstack([p[2] for p in parts])
    else:
        # a unit cell's block is its 3 edges; each diagonal entry is added
        # whole when its vertex is eliminated
        zero, edge = np.zeros((1, len(corners))), np.full((1, len(corners)), -1.0)
        schur = (zero, zero, zero, edge, edge, edge)
    while len(corners) > 1:
        neg, schur, corners = _merge(schur, corners, diag, weights, shift,
                                     floor, broken)
        negatives = negatives + neg
    return negatives, schur, corners


# at extreme magnitudes (|entries| ~ 1e100) the closed-form products
# overflow; such blocks are not certified and go through eigh
@np.errstate(over="ignore", invalid="ignore")
def _negative_counts(cells, diag, weights, shift):
    """Negative eigenvalues, per shift s, of the matrix with diagonal
    ``diag - s * weights`` and -1 on every edge of the unit ``cells`` (see
    ``LatticeRegion.cells``), and whether the elimination broke down there.

    Each merge adds three children's 3x3 corner Schur complements, then
    eliminates the 3 inner corners and carries the 3 outer ones up; the
    corners left at the top form the last block.  By Sylvester's law of
    inertia the negative eigenvalues of these blocks add up to those of the
    matrix.  A block with an eigenvalue within PIVOT_TOL * max(1, max|diag -
    s * weights|) of zero is a breakdown.
    """
    k, n = len(shift), len(diag)
    shift = shift[:, None]
    scale = np.ones(k)
    step = max(1, _BUDGET // k)
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        scale = np.maximum(scale, np.abs(diag[part] - shift * weights[part]).max(axis=1))
    floor = PIVOT_TOL * scale[:, None]
    broken = np.zeros(k, dtype=bool)
    trees = [_eliminate(tree, diag, weights, shift, floor, broken) for tree in cells]
    negatives = sum(t[0] for t in trees)
    # a corner shared by the two halves of a ball enters once; the -1 of
    # the corners a truncated triangle drops is summed, then cut out
    top, at = np.unique(np.vstack([t[2] for t in trees]), return_inverse=True)
    block = np.zeros((k, len(top), len(top)))
    block[:, np.arange(len(top)), np.arange(len(top))] = diag[top] - shift * weights[top]
    for (_, schur, _), rows in zip(trees, at.reshape(-1, 3)):
        s00, s11, s22, s01, s02, s12 = (np.broadcast_to(x, (k, 1))[:, 0] for x in schur)
        full = np.stack([s00, s01, s02, s01, s11, s12, s02, s12, s22], axis=-1)
        np.add.at(block, (slice(None), rows[:, None], rows), full.reshape(k, 3, 3))
    block[broken] = 0.0
    keep = np.flatnonzero(top >= 0)
    values = np.linalg.eigvalsh(block[:, keep][:, :, keep])
    broken |= np.any(np.abs(values) <= floor, axis=1)
    return negatives + np.count_nonzero(values < 0.0, axis=1), broken


def count_below(ham, energy, retries: int = 5):
    """#{eigenvalues <= E} for a scalar ``energy`` E (an int) or a 1-D
    array of energies (an int array): the negative inertia of the operator
    minus (E + eta).

    On a built region it is :func:`_negative_counts` over the unit cells,
    all energies in one bottom-up pass (the probabilistic Laplacian
    D^{-1} L as the congruent pencil L - E*D), with closed-form 3x3 pivots
    and ``eigh`` on the blocks they cannot certify, in batches of at most
    ``_BUDGET // 64`` energies; any other matrix counts densely.  Energies
    whose elimination breaks down are counted densely, with one solve per
    call, if the operator has at most DENSE_THRESHOLD rows.  On a larger
    one only they are counted again, with the shift nudged by growing
    multiples of the tie guard, which can count an eigenvalue a little
    above E.  The ladder is deterministic, so repeated runs agree bit for
    bit.
    """
    energy = np.asarray(energy, dtype=float)
    if energy.ndim > 1 or not np.all(np.isfinite(energy)):
        raise ValidationError("energy must be a finite scalar or 1-D array")
    grid = np.atleast_1d(energy)
    if not (isinstance(ham, HamiltonianMatrix) and ham.region.cells is not None):
        counts = counts_from_eigenvalues(eigenvalues_dense(ham), grid)
    else:
        counts = _inertia_counts(ham, grid, retries)
    return int(counts[0]) if energy.ndim == 0 else counts


def _inertia_counts(ham, grid, retries):
    # D^{-1} L: the diagonal of the Neumann Laplacian L is D itself
    diag, weights = ((ham.diagonal, np.ones(ham.dimension)) if ham.symmetric
                     else (ham.degree_weights, ham.degree_weights))
    counts = np.zeros(grid.size, dtype=np.int64)
    todo, batch = np.arange(grid.size), _BUDGET // 64
    for attempt in range(retries):
        broken = np.zeros(todo.size, dtype=bool)
        for lo in range(0, todo.size, batch):
            at = todo[lo:lo + batch]
            counts[at], broken[lo:lo + batch] = _negative_counts(
                ham.region.cells, diag, weights,
                grid[at] + tie_guard(grid[at]) * 10**attempt)
        todo = todo[broken]
        if not todo.size:
            return counts
        if ham.dimension <= DENSE_THRESHOLD:
            counts[todo] = counts_from_eigenvalues(eigenvalues_dense(ham), grid[todo])
            return counts
    raise RuntimeError(f"inertia counting failed at E={grid[todo].tolist()} "
                       f"after {retries} shifted retries")


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
    n = _dimension(ham)
    if method == "auto":
        method = "dense" if n <= threshold else "inertia"
    if method == "dense":
        counts = counts_from_eigenvalues(eigenvalues_dense(ham, threshold=max(
            threshold, n)), grid)
    elif method == "inertia":
        counts = count_below(ham, grid)
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
    if not 6 <= dim <= 200:
        raise ValidationError("interlacing checks need 6 <= dim <= 200")
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
    from scipy import sparse

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
