"""Eigenvalues and eigenvalue counting functions.

Eigenvalue outputs come from a dense ``eigvalsh``.  Small operators are
counted from all their eigenvalues: a gasket operator from its band, rows
sorted along the Euclidean x axis so that every edge spans few rows
(bandwidth 30 at level 6), solved by LAPACK ``dsbevd`` through ctypes,
which releases the interpreter lock, so trials on threads solve at the
same time.  Large operators are handled through
inertia counting: the number of eigenvalues at or below E equals the
number of negative eigenvalues of H - (E + eta) I.  On a gasket region every
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
is then counted from its eigenvalues at that energy, a large one again at
a nudged shift.  The tie guard eta = 1e-9 (1 + |E|) fixes the "<= E"
convention when E collides with an eigenvalue; every oracle comparison in
the test-suite uses the same convention.  The inequality checks built on
these counts live in :mod:`gasketlab.verification`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .lattice import MAX_LEVEL, ball_count
from .operators import HamiltonianMatrix

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


def _solve_advice(threshold: int) -> str:
    """What a caller that needs every eigenvalue or an SVD can do: no count
    would serve it, so name the largest ball that fits."""
    fits = [k for k in range(MAX_LEVEL + 1) if ball_count(k) <= threshold]
    where = f"balls up to level {fits[-1]}" if fits else "no ball"
    return f"eigenvalue lists and SVDs need a dense solve, which fits {where}"


def _check_dense(ham, threshold: int, advice: str) -> None:
    """Reject a non-square matrix, or one of more than ``threshold`` rows
    with the caller's ``advice`` on what to do instead."""
    shape = ((ham.dimension,) * 2 if isinstance(ham, HamiltonianMatrix)
             else np.shape(ham))
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError("expected a square matrix")
    if shape[0] > threshold:
        raise CapacityError(
            f"dimension {shape[0]} exceeds the dense threshold {threshold}; "
            + advice)


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


def dense_array(ham) -> np.ndarray:
    """Dense symmetric array with the spectrum of the argument, a square
    matrix of at most DENSE_THRESHOLD rows."""
    _check_dense(ham, DENSE_THRESHOLD, _solve_advice(DENSE_THRESHOLD))
    return _dense_symmetric(ham)


def eigenvalues_dense(ham, threshold: int = DENSE_THRESHOLD) -> np.ndarray:
    """All eigenvalues, ascending, by dense symmetric diagonalization."""
    _check_dense(ham, threshold, _solve_advice(threshold))
    from scipy import linalg  # only dense solves need it

    return linalg.eigvalsh(_dense_symmetric(ham))


def counts_from_eigenvalues(eigenvalues, grid) -> np.ndarray:
    """Tie-guarded counting #{ev <= E} for each E of the grid."""
    eigenvalues = np.sort(np.asarray(eigenvalues))
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    shifted = grid + tie_guard(grid)
    return np.searchsorted(eigenvalues, shifted, side="left")


def _sweep_band(ham: HamiltonianMatrix):
    """The rows sorted by (2p + q, q), i.e. along the Euclidean x axis, and
    the upper band of the operator's symmetric form in that order, stored
    as LAPACK's: entry (i, j) in row w + i - j of column j.  Every edge
    steps 2p + q by 2, 1 or -1, so the bandwidth w is 30 at level 6."""
    p, q = ham.region.coords.T
    order = np.lexsort((q, 2 * p + q))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    lo, hi = np.sort(rank[ham.region.edges], axis=1).T
    width = int(np.max(hi - lo, initial=0))
    band = np.zeros((width + 1, ham.dimension), order="F")
    band[width] = ham.diagonal[order]
    band[width - (hi - lo), hi] = -1.0 if ham.symmetric else -1.0 / np.sqrt(
        ham.degree_weights[order[lo]] * ham.degree_weights[order[hi]])
    return order, band


@functools.cache
def _dsbevd():
    """LAPACK ``dsbevd``, the routine behind ``eigvals_banded``, as a
    ctypes foreign function taken from scipy's ``cython_lapack`` capsule.
    It is typed with ``CFUNCTYPE``, not ``PYFUNCTYPE``, so a call releases
    the interpreter lock."""
    import ctypes

    from scipy.linalg import cython_lapack  # only dense solves need it

    capsule = cython_lapack.__pyx_capi__["dsbevd"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 14)(pointer)


def _band_eigenvalues(band) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric matrix whose upper band
    ``band`` is in LAPACK storage (see :func:`_sweep_band`), by
    :func:`_dsbevd` with JOBZ = 'N', without the interpreter lock.  A
    Fortran-ordered float band is solved in place, so it is overwritten;
    any other is copied first."""
    band = np.asfortranarray(band, dtype=float)
    if band.ndim != 2 or not len(band):
        raise ValueError("expected a 2-D band with at least one row")
    if not np.all(np.isfinite(band)):
        raise ValueError("array must not contain infs or NaNs")
    rows, n = band.shape
    eigenvalues, z, work = np.empty(n), np.empty(1), np.empty(max(1, 2 * n))
    # N, KD, LDAB, LDZ (Z is not referenced for JOBZ = 'N'), LWORK, IWORK,
    # LIWORK and INFO, each passed by reference
    ints = np.array([n, rows - 1, rows, 1, work.size, 0, 1, 0], dtype=np.intc)
    ref = [ints.ctypes.data + k * ints.itemsize for k in range(len(ints))]
    _dsbevd()(b"N", b"U", ref[0], ref[1], band.ctypes.data, ref[2],
              eigenvalues.ctypes.data, z.ctypes.data, ref[3], work.ctypes.data,
              ref[4], ref[5], ref[6], ref[7])
    if ints[-1]:
        raise np.linalg.LinAlgError(f"dsbevd failed with INFO = {ints[-1]}")
    return eigenvalues


def dense_counts(ham, grid) -> np.ndarray:
    """Tie-guarded #{eigenvalue <= E} for each E of the grid, from every
    eigenvalue of an operator of at most DENSE_THRESHOLD rows: of a
    HamiltonianMatrix by :func:`_band_eigenvalues` (LAPACK ``dsbevd``,
    which releases the interpreter lock, so trials on threads solve in
    parallel) on its :func:`_sweep_band`, of any other matrix by
    :func:`eigenvalues_dense`."""
    if not isinstance(ham, HamiltonianMatrix):
        return counts_from_eigenvalues(eigenvalues_dense(ham, DENSE_THRESHOLD), grid)
    _check_dense(ham, DENSE_THRESHOLD,
                 "use count_below / counting_curve instead")
    return counts_from_eigenvalues(_band_eigenvalues(_sweep_band(ham)[1]), grid)


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


#: Shifts E + 10^k eta, k < _RETRIES, tried where the elimination breaks down.
_RETRIES = 5


def count_below(ham, energy):
    """#{eigenvalues <= E} for a scalar ``energy`` E (an int) or a 1-D
    array of energies (an int array): the negative inertia of the operator
    minus (E + eta).

    On a built region it is :func:`_negative_counts` over the unit cells,
    all energies in one bottom-up pass (the probabilistic Laplacian
    D^{-1} L as the congruent pencil L - E*D), with closed-form 3x3 pivots
    and ``eigh`` on the blocks they cannot certify, in batches of at most
    ``_BUDGET // 64`` energies; any other matrix goes through
    :func:`dense_counts`.  Energies whose elimination breaks down go through
    :func:`dense_counts` too, with one solve per call, if the operator has
    at most DENSE_THRESHOLD rows.  On a larger
    one only they are counted again, up to _RETRIES times, with the shift
    nudged by growing multiples of the tie guard, which can count an
    eigenvalue a little above E.  The ladder is deterministic, so repeated
    runs agree bit for bit.
    """
    energy = np.asarray(energy, dtype=float)
    if energy.ndim > 1 or not np.all(np.isfinite(energy)):
        raise ValidationError("energy must be a finite scalar or 1-D array")
    grid = np.atleast_1d(energy)
    if not (isinstance(ham, HamiltonianMatrix) and ham.region.cells is not None):
        counts = dense_counts(ham, grid)
    else:
        counts = _inertia_counts(ham, grid)
    return int(counts[0]) if energy.ndim == 0 else counts


def _inertia_counts(ham, grid):
    # D^{-1} L: the diagonal of the Neumann Laplacian L is D itself
    diag, weights = ((ham.diagonal, np.ones(ham.dimension)) if ham.symmetric
                     else (ham.degree_weights, ham.degree_weights))
    counts = np.zeros(grid.size, dtype=np.int64)
    todo, batch = np.arange(grid.size), _BUDGET // 64
    for attempt in range(_RETRIES):
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
            counts[todo] = dense_counts(ham, grid[todo])
            return counts
    raise RuntimeError(f"inertia counting failed at E={grid[todo].tolist()} "
                       f"after {_RETRIES} shifted retries")


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


def counting_curve(ham, grid) -> CountingFunction:
    """Counting function on a grid.  This is the one place the method is
    chosen, by size: :func:`dense_counts` for a generic matrix or an
    operator of at most DENSE_THRESHOLD rows, :func:`count_below` above."""
    grid = np.sort(np.asarray(grid, dtype=float))
    if isinstance(ham, HamiltonianMatrix) and ham.dimension > DENSE_THRESHOLD:
        counts = count_below(ham, grid)
    else:
        counts = dense_counts(ham, grid)
    return CountingFunction(grid, counts)
