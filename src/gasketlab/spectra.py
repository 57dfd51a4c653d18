"""Eigenvalues and eigenvalue counting functions of gasket operators.

Every solve and count takes an :class:`operators.HamiltonianMatrix` and
reads its arrays; the probabilistic Laplacian enters through its symmetric
form D^{-1/2} L D^{-1/2}, whose edge values one expression gives to the
dense array and the band alike.  Eigenvalue outputs come from a dense
``eigvalsh`` that runs in place, on the one n x n array it fills, so a
solve holds no second copy.  Counting curves go through one entry,
:func:`count_operators`, which counts the operators a caller builds on one
region and alone picks the method, by size.  A small operator is counted
from the band of each of its trees (a triangle has one, a ball two that
share only the origin), rows sorted outward from the origin along the
Euclidean x axis (bandwidth 30 at level 6): each tree is reduced to its
``dsbtrd`` tridiagonal form, a ball's two forms are joined at the
origin, and the result is counted by Sturm sequences, without the
interpreter lock (LAPACK through ctypes), so the operators of a call
count on the trial threads (:func:`trial_threads`) at the same time; no
eigenvalue is computed.  Large operators, and every :func:`count_below`
call, are counted by inertia over the region's unit cells: #{eigenvalues
<= E} is the number of negative eigenvalues of H - (E + eta) I.
On a gasket region every sub-triangle meets the rest of the graph only at
its 3 corners, so that matrix is eliminated bottom-up over the unit cells,
three sibling triangles at a time, as in spectral decimation; Sylvester's
law of inertia adds up the negative eigenvalues of the eliminated 3x3
blocks.  All energies of a call, and all operators of a call on one region
(the trials of a curve), share one pass: each (operator, energy) pair is a
row, each level keeps the six entries of its 3x3 corner Schur complements
as (rows, cells) arrays, and each pivot block is counted (Descartes' rule
on its characteristic polynomial) and inverted (adjugate over determinant) in
closed form, elementwise.  The first merge, whose children are bare unit
cells, is memoised: a block there depends only on the (diagonal, weight)
at its 3 inner corners, so each operator's distinct blocks are solved
once and gathered back to every block that holds them (a Bernoulli
operator has at most 8).  An energy outside an operator's Gershgorin
interval (centres diag / w, radii region degree / w) by more than two tie
guards has count n above it and 0 below it, and takes no row of the
elimination and no Sturm count of the band.  Blocks
too close to singular for the closed form to be certain go through batched
``numpy.linalg.eigh``: their eigen-directions above the pivot floor are
eliminated, and those within it are delayed, carried up as extra rows of
the parent's block (delayed pivots, as in multifrontal LDL^T), so a block
that is singular at E costs no second pass.  Rows go in batches and
cells in subtrees, so no temporary holds more than a fixed number of
elements at any level.  The tie guard eta = 1e-9 (1 + |E|) fixes the "<= E"
convention when E collides with an eigenvalue; every oracle comparison in
the test-suite uses the same convention.  Energies must be finite.  The
inequality checks built on these counts live in :mod:`gasketlab.verification`.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError
from .lattice import MAX_LEVEL, ball_count, cell_sides
from .operators import HamiltonianMatrix

DENSE_THRESHOLD = 4096

#: Relative size of the pivot floor, about sqrt(eps): an eigen-direction of
#: a pivot block within it of zero is delayed, not eliminated.  Inverting
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


def _energies(energy) -> np.ndarray:
    """``energy``, a finite scalar or 1-D array, as a 1-D float array."""
    grid = np.asarray(energy, dtype=float)
    if grid.ndim > 1 or not np.all(np.isfinite(grid)):
        raise ValidationError("energy must be a finite scalar or 1-D array")
    return np.atleast_1d(grid)


#: What a caller that needs every eigenvalue or an SVD can do: no count
#: would serve it, so name the largest ball that fits.
_SOLVE_ADVICE = (
    "eigenvalue lists and SVDs need a dense solve, which fits balls up to level "
    + str(max(k for k in range(MAX_LEVEL + 1) if ball_count(k) <= DENSE_THRESHOLD)))


def _edge_values(ham: HamiltonianMatrix, i, j):
    """The symmetric form's value on the edges (i, j): -1, or for the
    probabilistic Laplacian -1/sqrt(d_i d_j), rounded once."""
    if ham.symmetric:
        return -1.0
    return -1.0 / np.sqrt(ham.degree_weights[i] * ham.degree_weights[j])


def _dense_symmetric(ham: HamiltonianMatrix) -> np.ndarray:
    """The operator's symmetric form as a dense array."""
    arr = np.diag(ham.diagonal)
    i, j = ham.region.edges.T
    arr[i, j] = arr[j, i] = _edge_values(ham, i, j)
    return arr


def dense_array(ham: HamiltonianMatrix) -> np.ndarray:
    """The operator's symmetric form as a dense array, for an operator of
    at most DENSE_THRESHOLD rows."""
    if ham.dimension > DENSE_THRESHOLD:
        raise CapacityError(
            f"dimension {ham.dimension} exceeds the dense threshold {DENSE_THRESHOLD}; "
            + _SOLVE_ADVICE)
    return _dense_symmetric(ham)


def eigenvalues_dense(ham: HamiltonianMatrix) -> np.ndarray:
    """All eigenvalues, ascending, by dense symmetric diagonalization in
    place: the array is exactly symmetric, so its transpose is the same
    matrix in Fortran order, which LAPACK overwrites without a copy."""
    from scipy import linalg  # only dense solves need it

    return linalg.eigvalsh(dense_array(ham).T, overwrite_a=True)


def counts_from_eigenvalues(eigenvalues, grid) -> np.ndarray:
    """Tie-guarded counting #{ev <= E} for each E of the grid."""
    eigenvalues = np.sort(np.asarray(eigenvalues))
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    shifted = grid + tie_guard(grid)
    return np.searchsorted(eigenvalues, shifted, side="left")


class _Sweep(NamedTuple):
    """One tree's band layout: its rows in sweep ``order``, the bandwidth
    ``width``, and each edge's place (``rows``, ``columns``) in LAPACK's
    band storage and its end rows ``i`` and ``j``."""

    order: np.ndarray
    width: int
    rows: np.ndarray
    columns: np.ndarray
    i: np.ndarray
    j: np.ndarray


def _sweep(region, cells) -> _Sweep:
    """The band layout of the operator on one tree of the region, its unit
    ``cells``, whose sides are the edges: the rows of the cells (every row
    of a region is a corner of a cell) sorted by (|2p + q|, q), outward
    from the origin, row 0, along the Euclidean x axis.  Every edge steps
    2p + q by 2, 1 or -1, so the bandwidth is 30 at level 6."""
    p, q = region.coords.T
    rows = np.unique(cells[cells >= 0])
    order = rows[np.lexsort((q[rows], np.abs(2 * p[rows] + q[rows])))]
    rank = np.empty(len(region), dtype=order.dtype)
    rank[order] = np.arange(len(order))
    lo, hi = np.sort(rank[cell_sides(cells)], axis=1).T
    width = int(np.max(hi - lo, initial=0))
    return _Sweep(order, width, width - (hi - lo), hi, order[lo], order[hi])


def _sweep_band(ham: HamiltonianMatrix, sweep: _Sweep):
    """The rows in ``sweep`` order and the upper band of the operator's
    symmetric form on them, stored as LAPACK's: entry (i, j) in row
    w + i - j of column j."""
    band = np.zeros((sweep.width + 1, len(sweep.order)), order="F")
    band[sweep.width] = ham.diagonal[sweep.order]
    band[sweep.rows, sweep.columns] = _edge_values(ham, sweep.i, sweep.j)
    return sweep.order, band


@functools.cache
def _lapack(name: str, nargs: int):
    """The LAPACK routine ``name`` of ``nargs`` arguments, each passed by
    reference, as a ctypes foreign function taken from scipy's
    ``cython_lapack`` capsule.  It is typed with ``CFUNCTYPE``, not
    ``PYFUNCTYPE``, so a call releases the interpreter lock."""
    import ctypes

    from scipy.linalg import cython_lapack  # only band counts need it

    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    tag = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, tag)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(pointer)


def _addresses(whole: np.ndarray, starts) -> list[int]:
    """The address of each entry ``starts`` of the 1-D array ``whole``, to
    pass LAPACK a scalar or an array cut from it by reference.  Each
    ``.ctypes.data`` costs microseconds, so it is taken once."""
    at = whole.ctypes.data
    return [at + whole.itemsize * k for k in starts]


def _reduction_work(rows: int, n: int):
    """``dsbtrd`` and the arrays :func:`_tridiagonal` hands it for a band of
    ``rows`` rows and n columns, with their addresses: D, E and WORK (Q is
    not referenced for VECT = 'N', so it shares WORK), then N, KD, LDAB,
    LDQ and INFO."""
    out = np.zeros(3 * n)
    ints = np.array([n, rows - 1, rows, 1, 0], dtype=np.intc)
    return (_lapack("dsbtrd", 12), out, ints,
            _addresses(out, (0, n, 2 * n)) + _addresses(ints, range(5)))


def _tridiagonal(band, work=None):
    """The diagonal d and off-diagonal e of the tridiagonal form T = Q' H Q
    to which ``dsbtrd`` reduces the symmetric matrix H whose upper band
    ``band`` is in LAPACK storage (see :func:`_sweep_band`), without the
    interpreter lock.  Its rotations at column j act only in the planes
    (j + k, j + k + 1), k >= 1, so row 0 is never rotated: Q e_0 = e_0 and
    d[0] = H_00.  A Fortran-ordered float band is reduced in place, so it
    is overwritten; any other is copied.  Given the ``work`` of
    :func:`_reduction_work` for the band's shape, d and e are views of it,
    valid until its next use."""
    band = np.asfortranarray(band, dtype=float)
    if band.ndim != 2 or not band.size:
        raise ValueError("expected a 2-D band with at least one row and column")
    if not np.all(np.isfinite(band)):
        raise ValueError("array must not contain infs or NaNs")
    rows, n = band.shape
    dsbtrd, out, ints, (at_d, at_e, at_work, *ref) = work or _reduction_work(rows, n)
    dsbtrd(b"N", b"U", ref[0], ref[1], band.ctypes.data, ref[2], at_d, at_e, at_work,
           ref[3], at_work, ref[4])
    if ints[4]:
        raise np.linalg.LinAlgError(f"dsbtrd failed with INFO = {ints[4]}")
    return out[:n], out[n:2 * n - 1]


def _sturm_work(n: int, energies: int):
    """``dlaebz`` and the arrays :func:`_sturm_counts` hands it for a form
    of n rows and at most ``energies`` energies, with their addresses."""
    m = 2 * max(1, (energies + 1) // 2)
    # AB, E2, ABSTOL, RELTOL, PIVMIN, then a spare for the arrays dlaebz
    # does not reference for IJOB = 1 (E, C and WORK)
    floats = np.zeros(m + n + 3 + max(n, m))
    # N, IJOB, NITMAX, MMAX, MINP, NBMIN, MOUT and INFO, then NAB, which
    # NVAL and IWORK (not referenced either) share
    ints = np.zeros(8 + m, dtype=np.intc)
    ints[:3] = n, 1, 0
    return (_lapack("dlaebz", 20), floats, ints,
            _addresses(floats, (0, m, m + n, m + n + 1, m + n + 2, m + n + 3)),
            _addresses(ints, range(9)))


def _sturm_counts(d, e, shifted, work=None) -> np.ndarray:
    """#{eigenvalue <= s} for each s of ``shifted``, of the symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``, counted
    by Sturm sequences in one ``dlaebz`` call without the interpreter
    lock, a pivot within PIVMIN = max(1, max e^2) * tiny of zero counted
    as negative, as in ``dstebz``.  ``work`` is :func:`_sturm_work` for
    len(d) rows and at least as many energies, set up once for many
    counts."""
    d = np.ascontiguousarray(d, dtype=float)
    n, k = len(d), len(shifted)
    dlaebz, floats, ints, (at_ab, at_e2, *tol, at_spare), ref = work or _sturm_work(n, k)
    m = len(ints) - 8
    # dlaebz counts at both ends AB(j, 1), AB(j, 2) of each of its MINP
    # intervals, AB (MMAX, 2) column by column, so the energies fill AB
    # in order for MMAX = MINP
    floats[:k] = shifted
    e2 = floats[m:m + n]
    np.square(e, out=e2[:n - 1])  # dlaebz reads E2 = e^2, and not e
    floats[m + n + 2] = max(1.0, e2.max()) * np.finfo(float).tiny
    ints[3:5] = max(1, (k + 1) // 2), (k + 1) // 2
    dlaebz(ref[1], ref[2], ref[0], ref[3], ref[4], ref[5], *tol, d.ctypes.data,
           at_spare, at_e2, ref[8], at_ab, at_spare, ref[6], ref[8], at_spare, ref[8],
           ref[7])
    if ints[7]:
        raise np.linalg.LinAlgError(f"dlaebz failed with INFO = {ints[7]}")
    return ints[8:8 + k].astype(np.int64)


def _gershgorin(diag, weights, degree, shifted):
    """Where the shifted energies lie beyond the Gershgorin interval [lo,
    hi] of the pencil (``diag``, ``weights``) (centres diag / w, radii
    region ``degree`` / w) by more than its rounding plus a tie guard, so
    that every count there is n or 0: (above hi, above hi or below lo),
    per operator along the last axis of ``diag`` and ``weights``."""
    lo = ((diag - degree) / weights).min(axis=-1, keepdims=True)
    hi = ((diag + degree) / weights).max(axis=-1, keepdims=True)
    above = shifted > hi + 2.0 * tie_guard(hi)
    return above, above | (shifted < lo - 2.0 * tie_guard(lo))


def _corner_first(ham: HamiltonianMatrix, sweep: _Sweep, work):
    """(d, e) of :func:`_tridiagonal` on the band of one tree, swept
    outward from the origin, row 0.  The join in :func:`_band_counts` rests
    on Q e_0 = e_0, so a d[0] that is not bitwise the origin's diagonal
    entry is a LinAlgError."""
    order, band = _sweep_band(ham, sweep)
    d, e = _tridiagonal(band, work)
    if d[:1].tobytes() != ham.diagonal[order[:1]].tobytes():
        raise np.linalg.LinAlgError("dsbtrd moved the corner row of a tree")
    return d, e


def _built_on(region, ham: HamiltonianMatrix) -> HamiltonianMatrix:
    """``ham``, which must be built on ``region`` (else a ValidationError)."""
    if ham.region is not region:
        raise ValidationError("count_operators counts operators built on its region")
    return ham


def trial_threads(requested=None) -> int:
    """Trial threads of a band-sized count: ``GASKET_THREADS`` if it is
    set, else ``requested`` (``--threads`` of ``ids``), else the CPUs the
    process may run on (its affinity mask, where the platform has one).
    A value that is not an integer of at least 1 is a ValidationError."""
    value = os.environ.get("GASKET_THREADS", requested)
    if value is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        threads = int(value)
    except ValueError as exc:
        raise ValidationError(
            f"GASKET_THREADS must be an integer, got {value!r}") from exc
    if threads < 1:
        raise ValidationError("trial threads (GASKET_THREADS or --threads) "
                              f"must be at least 1, got {value!r}")
    return threads


def _band_counts(region, operator, count: int, grid, threads) -> np.ndarray:
    """The (count, energies) counts of ``operator(0)`` .. ``operator(count -
    1)``, built on ``region``, each counted by Sturm sequences
    (:func:`_sturm_counts`) on the ``dsbtrd`` tridiagonal form of its band.

    Each tree (``region.cells[t]``) is swept once per call, outward from
    the origin c (:func:`_sweep`), and reduced on its own.  No reduction
    rotates c, so a ball's second tree, which shares only c with the
    first, joins it there: the direct sum of the Q's, glued at c, takes H
    to one tridiagonal matrix, the second form reversed without its row 0,
    then the first.  An energy the Gershgorin bounds decide is n or 0
    without a Sturm count.  The operators go round-robin to ``threads``
    trial threads (None: :func:`trial_threads`), which overlap in LAPACK
    as it runs without the interpreter lock; the counts do not depend on
    the threads."""
    n = len(region)
    sweeps = [_sweep(region, cells) for cells in region.cells]
    shifted = grid + tie_guard(grid)
    counts = np.empty((count, len(grid)), dtype=np.int64)
    workers = max(1, min(trial_threads() if threads is None else threads, count))
    # each worker's arrays, set up here so that LAPACK (and scipy) load on
    # the calling thread
    works = [([(s, _reduction_work(s.width + 1, len(s.order))) for s in sweeps],
              _sturm_work(n, len(grid))) for _ in range(workers)]

    def run(first):
        trees, sturm = works[first]
        for t in range(first, count, workers):
            ham = _built_on(region, operator(t))
            pencil = (ham.diagonal, 1.0) if ham.symmetric else (ham.degree_weights,) * 2
            above, decided = _gershgorin(*pencil, region.region_degree, shifted)
            counts[t] = np.where(above, n, 0)
            open_ = np.flatnonzero(~decided)
            if not open_.size:
                continue
            (d, e), *second = [_corner_first(ham, *tree) for tree in trees]
            if second:
                (left_d, left_e), = second
                d, e = (np.concatenate([left_d[:0:-1], d]),
                        np.concatenate([left_e[::-1], e]))
            counts[t, open_] = _sturm_counts(d, e, shifted[open_], sturm)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(workers)))  # re-raises a worker's error
    return counts


#: Most elements a temporary of the elimination holds, whatever the level
#: or grid size: (operator, energy) rows go in passes of at most
#: _BUDGET // 64, cells in subtrees whose first merge has at most
#: _BUDGET // rows blocks.  A larger budget makes fewer, longer numpy calls
#: but raises peak memory; the trials of a counter-sized curve are rows of
#: one pass, not threads, so the calls need not be long enough to overlap.
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

#: The rows of a merge's front that hold the corners 0, 1, 2 of child t:
#: the outer corners are rows 0, 1, 2, the inner corners rows 3, 4, 5.
_SLOTS = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])

#: No delayed rows (see :func:`_merge`).
_NO_ROWS = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0),
            np.zeros((0, 3)))


def _symmetric(x00, x11, x22, x01, x02, x12):
    """The (len, 3, 3) symmetric matrices with the six given entries."""
    return np.stack([x00, x01, x02, x01, x11, x12, x02, x12, x22],
                    axis=-1).reshape(-1, 3, 3)


def _rows_of(keys, wanted):
    """The positions in ``keys`` that hold each key of ``wanted``, as the
    (order, start, number) of ``keys[order]``, sorted, where key
    ``wanted[i]`` takes positions ``start[i]`` up to ``start[i] + number[i]``."""
    order = np.argsort(keys, kind="stable")
    start = np.searchsorted(keys[order], wanted)
    return order, start, np.searchsorted(keys[order], wanted, side="right") - start


def _split_by(keys):
    """(key, positions) for each distinct value of the int array ``keys``."""
    order = np.argsort(keys, kind="stable")
    values, first = np.unique(keys[order], return_index=True)
    return zip(values.tolist(), np.split(order, first[1:]))


def _directions(sure, pivot, inverse, link, rows):
    """The eigen-directions of the pivot blocks of some (energy, parent)
    pairs: each direction's pair, eigenvalue and coupling to the pair's 3
    outer corners.

    ``pivot`` holds each pair's (3, 3) block P on its inner corners and
    ``link`` the couplings of these to the outer corners; ``rows`` holds the
    children's delayed rows, as (value, coupling to the 6 corners of the
    front, start, number).  Where P is certain (``sure``) it is eliminated
    in closed form already, with ``inverse`` P^-1, and the block is that of
    the delayed rows, diag(values) - Y P^-1 Y^T, Y their couplings to the
    inner corners; elsewhere it is P together with them.  The pairs go in
    groups of one size.
    """
    value, front, start, number = rows
    owner, values, couplings = [], [], []
    # the pairs where P is certain go by d delayed rows, the others by -1 - d
    for kind, g in _split_by(np.where(sure, number, -1 - number)):
        d = max(kind, -1 - kind)
        at = start[g, None] + np.arange(d)
        y, z = front[at, 3:], front[at, :3]
        if kind >= 0:
            yp = y @ inverse[g]
            block = -(yp @ np.swapaxes(y, -1, -2))
            block.reshape(len(g), -1)[:, ::d + 1] += value[at]
            near = z - yp @ link[g]
        else:
            block = np.zeros((len(g), 3 + d, 3 + d))
            block[:, :3, :3], block[:, 3:, :3] = pivot[g], y
            block[:, :3, 3:] = np.swapaxes(y, -1, -2)
            block[:, 3 + np.arange(d), 3 + np.arange(d)] = value[at]
            near = np.concatenate([link[g], z], axis=1)
        lam, vectors = np.linalg.eigh(block)
        owner.append(np.repeat(g, lam.shape[1]))
        values.append(lam.ravel())
        couplings.append((np.swapaxes(vectors, -1, -2) @ near).reshape(-1, 3))
    return tuple(np.concatenate(x) for x in (owner, values, couplings))


def _unit_cells(count):
    """The six corner entries of ``count`` unit cells, as (1, count)
    arrays: a cell's block is its 3 edges, and each diagonal entry is added
    whole when its vertex is eliminated."""
    zero, edge = np.zeros((1, count)), np.full((1, count), -1.0)
    return zero, zero, zero, edge, edge, edge


def _pivots(kids, diag, weights, shift):
    """The (rows, m) terms diag - s * weights at the inner corners 3, 4, 5
    of the merges of children with corner rows ``kids`` (m, 3, 3).  A row
    of the pass is one (operator, energy) pair: ``diag`` and ``weights``
    are (operators, 1, n) and ``shift`` (operators, energies, 1)."""
    return [(diag[..., i] - shift * weights[..., i]).reshape(-1, len(i))
            for i in (kids[:, 0, 1], kids[:, 0, 2], kids[:, 1, 2])]


def _merge(schur, pivots, delayed, floor):
    """Eliminate the 3 inner corners of every triple of sibling triangles.

    ``schur`` holds the six entries of the children's corner Schur
    complements as (rows, 3m) arrays, ``pivots`` the (rows, m) diagonal
    terms of the inner corners (see :func:`_pivots`) and ``delayed`` the
    children's delayed rows.  Returns the negative eigenvalues of the
    eliminated directions per (row, parent), the six (rows, m) entries on
    the outer corners and the parents' delayed rows.

    A pivot block's eigen-direction within ``floor`` of zero is not
    eliminated but delayed: kept as a row (row, triangle, value, coupling
    to the triangle's 3 corners) of the parent's pivot block, next to the
    parent's inner corners.  The delayed rows of a triangle are mutually
    uncoupled.  A delayed row whose coupling is within the floor too is
    rounding away from an eigen-direction of the whole matrix, so its sign
    is counted where it appears.
    """
    (a00, a11, a22, a01, a02, a12), (b00, b11, b22, b01, b02, b12), (
        c00, c11, c22, c01, c02, c12) = ([x[:, j::3] for x in schur]
                                         for j in range(3))
    # inner corners 3, 4, 5 are shared by children 0-1, 0-2 and 1-2; the
    # outer corners 0, 1, 2 of the children meet no other child, and the
    # couplings between inner and outer corners are the rows of
    # [[a01, b01, 0], [a02, 0, c02], [0, b12, c12]]
    p, q, r = (x + y + z for x, y, z in zip((a11, a22, b22), (b00, c00, c11), pivots))
    u, v, w = a12, b02, c01
    # adjugate, determinant and 2x2 minor sum of [[p, u, v], [u, q, w], [v, w, r]]
    j33, j44, j55 = q * r - w * w, p * r - v * v, p * q - u * u
    j34, j35, j45 = v * w - u * r, u * w - q * v, u * v - p * w
    det = p * j33 + u * j34 + v * j35
    au, av, aw = np.abs(u), np.abs(v), np.abs(w)
    norm = np.maximum(np.maximum(np.abs(p) + au + av, au + np.abs(q) + aw),
                      av + aw + np.abs(r))
    certain = ((np.abs(det) > norm * norm * np.maximum(_CERTAIN * norm, 2.0 * floor))
               & np.isfinite(det))
    # Descartes: sign changes of (1, trace, minors, det) count the negative
    # eigenvalues, exactly for a real-rooted cubic with det != 0
    trace, minors = p + q + r, j33 + j44 + j55
    negatives = np.where(det > 0, np.where((trace > 0) & (minors > 0), 0, 2),
                         np.where((trace < 0) & (minors > 0), 3, 1))
    inv = certain / np.where(certain, det, 1.0)
    # each temporary goes once used: the live (energies, m) arrays bound
    # the peak memory
    del au, av, aw, det, norm, trace, minors
    # adj(A) times the coupling columns (a01, a02, 0), (b01, 0, b12) and
    # (0, c02, c12), one column at a time to bound the live temporaries
    s00 = a00 - (a01 * (j33 * a01 + j34 * a02) + a02 * (j34 * a01 + j44 * a02)) * inv
    y = (j33 * b01 + j35 * b12, j34 * b01 + j45 * b12, j35 * b01 + j55 * b12)
    s11, s01 = b11 - (b01 * y[0] + b12 * y[2]) * inv, -(a01 * y[0] + a02 * y[1]) * inv
    del y
    y = (j34 * c02 + j35 * c12, j44 * c02 + j45 * c12, j45 * c02 + j55 * c12)
    out = [s00, s11, c22 - (c02 * y[1] + c12 * y[2]) * inv, s01,
           -(a01 * y[0] + a02 * y[1]) * inv, -(b01 * y[0] + b12 * y[2]) * inv]
    del y
    m, side = certain.shape[1], ~certain
    side[delayed[0], delayed[1] // 3] = True
    e, c = np.nonzero(side)
    if not e.size:
        return negatives, out, _NO_ROWS
    pair = e * m + c

    def at(x):  # x is (rows, m), or (1, m) for the same in every row
        return x.take(pair if len(x) > 1 else c)

    # the children's delayed rows, each pair's together, in the corner
    # numbering of the front
    order, start, number = _rows_of(delayed[0] * m + delayed[1] // 3, pair)
    front = np.zeros((len(order), 6))
    front[np.arange(len(order))[:, None], _SLOTS[delayed[1][order] % 3]] = (
        delayed[3][order])
    zero, sure = np.zeros(e.size), certain.take(pair)
    inverse = _symmetric(*(at(x) for x in (j33, j44, j55, j34, j35, j45)))
    link = np.stack([at(a01), at(b01), zero, at(a02), zero, at(c02), zero, at(b12),
                     at(c12)], axis=-1).reshape(-1, 3, 3)
    owner, value, coupling = _directions(
        sure, _symmetric(*(at(x) for x in (p, q, r, u, v, w))),
        inverse * at(inv)[:, None, None], link,
        (delayed[2][order], front, start, number))
    # a direction above the floor is eliminated: its sign is counted and
    # x x^T / value taken off the outer corners; one within the floor is
    # counted here if it no longer couples, else delayed
    small = np.abs(value) <= floor.take(e.take(owner))
    scaled = coupling / np.where(small, np.inf, value)[:, None]
    count = np.where(sure, at(negatives), 0) + np.bincount(
        owner, weights=(value < 0.0) & ~small, minlength=e.size).astype(np.int64)
    base = (at(a00), at(b11), at(c22), zero, zero, zero)
    for s, b, (i, j) in zip(out, base, _ENTRIES):
        s[e, c] = np.where(sure, at(s), b) - np.bincount(
            owner, weights=coupling[:, i] * scaled[:, j], minlength=e.size)
    # the near-null directions: a pair keeps at most 3 coupled ones, and one
    # whose coupling is within the floor as well is counted here
    folded, owner, value, coupling = _fold(owner[small], value[small], coupling[small],
                                           e.size)
    free = np.abs(coupling).max(axis=1) <= floor.take(e.take(owner))
    negatives[e, c] = count + folded + np.bincount(
        owner, weights=free & (value < 0.0), minlength=e.size).astype(np.int64)
    owner = owner[~free]
    return negatives, out, (e[owner], c[owner], value[~free], coupling[~free])


def _fold(owner, value, coupling, pairs):
    """The near-null directions of ``pairs`` pairs, each with its pair, its
    value and its coupling to the pair's 3 outer corners, folded to at most
    3 a pair.

    The coupling x (s, 3) of a pair's s > 3 directions maps s - 3 of their
    combinations, its left singular vectors past the third, to zero: these
    are eigen-directions of the whole matrix up to the floor, which bounds
    every entry of the compression of diag(values) to them, so their signs
    are counted here, as the negative eigenvalues of that compression.  The
    other 3 are made mutually uncoupled again.  Returns the negatives per
    pair and the directions left.
    """
    count = np.zeros(pairs, dtype=np.int64)
    number = np.bincount(owner, minlength=pairs)
    many = number[owner] > 3
    if not many.any():
        return count, owner, value, coupling
    left = [(owner[~many], value[~many], coupling[~many])]
    owner, value, coupling = owner[many], value[many], coupling[many]
    crowded = np.flatnonzero(number > 3)
    order, start, number = _rows_of(owner, crowded)
    for s, g in _split_by(number):
        rows = order[start[g, None] + np.arange(s)]
        basis = np.linalg.svd(coupling[rows])[0]
        folded = np.swapaxes(basis, -1, -2) @ (value[rows][..., None] * basis)
        count[crowded[g]] = np.count_nonzero(
            np.linalg.eigvalsh(folded[:, 3:, 3:]) < 0.0, axis=1)
        lam, vectors = np.linalg.eigh(folded[:, :3, :3])
        link = np.swapaxes(basis[..., :3], -1, -2) @ coupling[rows]
        left.append((np.repeat(crowded[g], 3), lam.ravel(),
                     (np.swapaxes(vectors, -1, -2) @ link).reshape(-1, 3)))
    return (count, *(np.concatenate(x) for x in zip(*left)))


def _codes(diag, weights):
    """Each operator's (diagonal, weight) pairs numbered from 0, as an
    (operators, n) int array in which equal pairs, and only those, share a
    number; None if no operator repeats a pair, for then no two blocks of
    a first merge, whose inner corners are distinct vertices, are equal."""
    # complex numbers sort and compare as (real, imaginary) pairs
    pairs = [d if np.all(w == w[0]) else d + 1j * w for d, w in zip(diag, weights)]
    values = [np.unique(x) for x in pairs]
    if all(len(v) == len(x) for v, x in zip(values, pairs)):
        return None
    return np.array([np.searchsorted(v, x) for v, x in zip(values, pairs)])


def _first_merge(kids, diag, weights, codes, shift, floor):
    """:func:`_merge` of unit cells with rows ``kids`` (m, 3, 3), each
    operator's distinct blocks solved once: the negatives per row, the six
    (rows, m) entries and the delayed rows.

    The children of a first merge are bare unit cells, so a block depends
    on its row only through the (diagonal, weight) at its 3 inner corners:
    each operator's blocks are keyed by the ``codes`` of these, and the
    merge runs on each operator's distinct keys, as (rows, keys) arrays
    padded to the most keys of an operator.  The entries are gathered back
    to the blocks, each key's negatives count once for every block that
    holds it, and its delayed rows are copied to each such block, in the
    order a merge of every block gives them.  Where no operator repeats a
    block, the blocks are merged as they are.
    """
    m, inner = len(kids), kids[:, [0, 0, 1], [1, 2, 2]]
    if codes is not None:
        # codes are below n < 2^21 (MAX_LEVEL), so a key fits in 63 bits
        n = codes.shape[1]
        key = (codes[:, inner[:, 0]] * n + codes[:, inner[:, 1]]) * n + codes[:, inner[:, 2]]
        order = np.argsort(key, axis=1, kind="stable")
        key = np.take_along_axis(key, order, axis=1)
        first = np.ones(key.shape, dtype=bool)
        first[:, 1:] = key[:, 1:] != key[:, :-1]
        rank = np.cumsum(first, axis=1) - 1  # the key number of each sorted block
        width = int(rank[:, -1].max()) + 1
    if codes is None or width == m:
        negatives, schur, delayed = _merge(_unit_cells(3 * m),
                                           _pivots(kids, diag, weights, shift),
                                           _NO_ROWS, floor)
        return negatives.sum(axis=1), schur, delayed
    operators = len(codes)
    # each key's blocks, ascending, start at its first sorted position; a
    # padded key holds no block and stands for the last one
    number = np.bincount((np.arange(operators)[:, None] * width + rank).ravel(),
                         minlength=operators * width).reshape(operators, width)
    start = np.cumsum(number, axis=1) - number
    op = np.arange(operators)[:, None]
    vertex = inner[order[op, np.minimum(start, m - 1)]]
    pivots = [(diag[op, 0, v][:, None] - shift * weights[op, 0, v][:, None])
              .reshape(-1, width) for v in np.moveaxis(vertex, -1, 0)]
    negatives, schur, (e, c, value, coupling) = _merge(_unit_cells(3 * width), pivots,
                                                       _NO_ROWS, floor)
    energies = shift.shape[1]
    negatives = (negatives.reshape(operators, energies, width)
                 * number[:, None]).sum(axis=2).ravel()
    which = np.empty_like(rank)
    which[op, order] = rank
    # each block's entry in the flat (rows, width) arrays
    at = np.repeat(which, energies, axis=0) + width * np.arange(len(negatives))[:, None]
    schur = [x.take(at) for x in schur]
    if not e.size:
        return negatives, schur, _NO_ROWS
    # the k-th copy of a delayed row goes to the k-th block of its key
    t = e // energies
    copies = number[t, c]
    row = np.repeat(np.arange(e.size), copies)
    block = order[t[row], (start[t, c] - np.cumsum(copies) + copies)[row]
                  + np.arange(row.size)]
    sort = np.argsort(e[row] * m + block, kind="stable")
    row, block = row[sort], block[sort]
    return negatives, schur, (e[row], block, value[row], coupling[row])


def _eliminate(corners, diag, weights, codes, shift, floor, fit=1):
    """Merge the unit cells with rows ``corners`` (3^j, 3), one subtree,
    until at most ``fit`` triangles are left: the negatives per row, the
    six (rows, triangles) entries of their corner Schur complements,
    their (triangles, 3) corner rows and the delayed rows left.  The first
    merge solves each operator's distinct blocks once, keyed by the
    ``codes`` of their inner corners (see :func:`_first_merge`); the later
    ones merge every triangle.  A subtree too wide for the element budget
    is first merged as its 3 children, each until the three together take
    at most a third of the budget, so the children held while a sibling is
    merged stay small against its temporaries."""
    negatives = np.zeros(shift.size, dtype=np.int64)
    if shift.size * len(corners) > 3 * _BUDGET:
        parts = [_eliminate(part, diag, weights, codes, shift, floor,
                            _BUDGET // (9 * shift.size))
                 for part in np.split(corners, 3)]
        negatives = sum(p[0] for p in parts)
        schur = [np.hstack(entry) for entry in zip(*(p[1] for p in parts))]
        corners = np.vstack([p[2] for p in parts])
        delayed = [np.concatenate(x) for x in zip(*(p[3] for p in parts))]
        delayed[1] = np.concatenate([p[3][1] + t * len(p[2])
                                     for t, p in enumerate(parts)])
    elif len(corners) > fit:
        kids = corners.reshape(-1, 3, 3)
        negatives, schur, delayed = _first_merge(kids, diag, weights, codes, shift, floor)
        corners = kids[:, [0, 1, 2], [0, 1, 2]]
    else:
        schur, delayed = _unit_cells(len(corners)), _NO_ROWS
    while len(corners) > fit:
        kids = corners.reshape(-1, 3, 3)
        neg, schur, delayed = _merge(schur, _pivots(kids, diag, weights, shift), delayed,
                                     floor)
        negatives = negatives + neg.sum(axis=1)
        corners = kids[:, [0, 1, 2], [0, 1, 2]]
    return negatives, schur, corners, delayed


# at extreme magnitudes (|entries| ~ 1e100) the closed-form products
# overflow; such blocks are not certified and go through eigh
@np.errstate(over="ignore", invalid="ignore")
def _negative_counts(cells, diag, weights, shift):
    """Negative eigenvalues, per (operator t, shift s) pair, of the matrix
    with diagonal ``diag[t] - s * weights[t]`` and -1 on every edge of the
    unit ``cells`` (see ``LatticeRegion.cells``): ``diag`` and ``weights``
    are (operators, n), ``shift`` is (operators, shifts), and the counts
    come back in the shape of ``shift``.  Each pair is one row of the pass.

    Each merge adds three children's 3x3 corner Schur complements, then
    eliminates the 3 inner corners and carries the 3 outer ones up; the
    corners left at the top, with the delayed rows, form the last block.
    By Sylvester's law of inertia the negative eigenvalues of the
    eliminated directions add up to those of the matrix.  A direction with
    an eigenvalue within PIVOT_TOL * max(1, max|diag - s * weights|) of
    zero is delayed to the parent's block (see :func:`_merge`).
    """
    k, n = shift.size, diag.shape[1]
    diag, weights, shift = diag[:, None], weights[:, None], shift[..., None]
    scale = np.ones(shift.shape[:2])
    step = max(1, _BUDGET // k)
    for lo in range(0, n, step):
        part = slice(lo, lo + step)
        scale = np.maximum(scale, np.abs(diag[..., part] - shift * weights[..., part])
                           .max(axis=-1))
    floor = PIVOT_TOL * scale.reshape(k, 1)
    codes = _codes(diag[:, 0], weights[:, 0])
    trees = [_eliminate(tree, diag, weights, codes, shift, floor) for tree in cells]
    negatives = sum(t[0] for t in trees)
    # a corner shared by the two halves of a ball enters once; the -1 of
    # the corners a truncated triangle drops is summed, then cut out
    top, at = np.unique(np.vstack([t[2] for t in trees]), return_inverse=True)
    size = len(top)
    block = np.zeros((k, size, size))
    block[:, np.arange(size), np.arange(size)] = (
        diag[..., top] - shift * weights[..., top]).reshape(k, size)
    for (_, schur, _, _), rows in zip(trees, at.reshape(-1, 3)):
        full = _symmetric(*(np.broadcast_to(x, (k, 1))[:, 0] for x in schur))
        np.add.at(block, (slice(None), rows[:, None], rows), full)
    # the delayed rows left in each tree join the block
    e, _, value, coupling = (np.concatenate(x) for x in zip(*(t[3] for t in trees)))
    corner = at.reshape(-1, 3)[np.concatenate(
        [np.full(len(t[3][0]), i) for i, t in enumerate(trees)])]
    order, start, number = _rows_of(e, np.arange(k))
    keep = np.flatnonzero(top >= 0)
    for d, g in _split_by(number):
        rows, band = order[start[g, None] + np.arange(d)], size + np.arange(d)
        last = np.zeros((len(g), size + d, size + d))
        last[:, :size, :size] = block[g]
        pair = np.arange(len(g))[:, None, None]
        last[pair, band[:, None], corner[rows]] = coupling[rows]
        last[pair, corner[rows], band[:, None]] = coupling[rows]
        last[:, band, band] = value[rows]
        cut = np.concatenate([keep, band])
        negatives[g] += np.count_nonzero(
            np.linalg.eigvalsh(last[:, cut][:, :, cut]) < 0.0, axis=1)
    return negatives.reshape(shift.shape[:2])


def _stacked_counts(hams, grid) -> np.ndarray:
    """The (operators, energies) counts of operators built on one region:
    every (operator, energy) pair the Gershgorin bounds leave open is a row
    of :func:`_negative_counts`, at most ``_BUDGET // 64`` rows a pass."""
    region, n = hams[0].region, hams[0].dimension
    # D^{-1} L as the pencil L - E*D: the diagonal of the Neumann Laplacian
    # L is D itself
    diag = np.array([h.diagonal if h.symmetric else h.degree_weights for h in hams])
    weights = np.broadcast_to(1.0, diag.shape)
    if not all(h.symmetric for h in hams):
        weights = np.array([np.ones(n) if h.symmetric else h.degree_weights
                            for h in hams])
    shifted = grid + tie_guard(grid)
    above, decided = _gershgorin(diag, weights, region.region_degree, shifted)
    counts = np.where(above, n, 0)
    open_ = np.flatnonzero(~decided.all(axis=0))
    if not open_.size:
        return counts
    rows = _BUDGET // 64
    for t in range(0, len(hams), rows):
        group = slice(t, t + rows)
        size = len(diag[group])
        for part in np.array_split(open_, -(-open_.size * size // rows)):
            counted = _negative_counts(region.cells, diag[group], weights[group],
                                       np.broadcast_to(shifted[part], (size, part.size)))
            counts[group, part] = np.where(decided[group, part], counts[group, part],
                                           counted)
    return counts


def count_below(ham: HamiltonianMatrix | list[HamiltonianMatrix], energy):
    """#{eigenvalues <= E} for a scalar ``energy`` E (an int) or a 1-D
    array of energies (an int array): the negative inertia of the operator
    minus (E + eta).  ``ham`` is an operator, or a list of operators built
    on one region, which are counted together and give one row of counts
    per operator.

    It is the counter alone, at every size: :func:`_negative_counts` over
    the region's unit cells, every (operator, energy) pair a row of one
    bottom-up pass (the probabilistic Laplacian D^{-1} L as the congruent
    pencil L - E*D), with closed-form 3x3 pivots and ``eigh`` on the
    blocks they cannot certify, in passes of at most ``_BUDGET // 64``
    rows; an energy outside the Gershgorin bounds of an operator is n or 0
    without a row.  A pivot block singular at E (equal-potential cells at
    a tie energy) has its near-null directions delayed to the parent's
    block, so every count takes the one pass, at E + eta itself, and an
    array call counts as its scalar calls and as a list call do.  Which
    method counts a curve is chosen in :func:`count_operators`, not here.
    It takes every region :func:`count_operators` takes: a region is one
    placed triangle or the ball (see :class:`lattice.LatticeRegion`), whose
    cells are whole triangles, the hierarchy the elimination reads.  A
    non-finite or 2-D ``energy`` is a ValidationError, here as in
    :func:`count_operators` and :func:`counting_curve`; so is a list of
    operators on different regions.
    """
    hams = ham if isinstance(ham, list) else [ham]
    grid = _energies(energy)
    region = hams[0].region
    if any(h.region is not region for h in hams):
        raise ValidationError("count_below counts operators built on one region")
    counts = _stacked_counts(hams, grid)
    if isinstance(ham, list):
        return counts
    return int(counts[0, 0]) if np.ndim(energy) == 0 else counts[0]


#: Most diagonal entries the trial operators of one counter pass hold
#: together (8 MiB of float64): one level-12 operator, three at level 11.
_STACK = 2**20


def count_operators(region, operator, count: int, grid, threads=None) -> np.ndarray:
    """The (count, energies) tie-guarded counts #{eigenvalue <= E} of the
    operators ``operator(0)``, ..., ``operator(count - 1)``, all built on
    ``region``, at each finite energy of ``grid``.  Each operator is built
    when its pass needs it, so no more are alive than a pass holds.

    This is the one place the counting method is chosen, by size.  A region
    of at most DENSE_THRESHOLD rows is counted from the band of each of its
    trees (:func:`_band_counts`), one operator at a time on ``threads``
    trial threads (None: :func:`trial_threads`).  Above, the operators go
    in groups that hold at most ``_STACK`` diagonal entries (at least one
    operator), each group the rows of one :func:`count_below` elimination,
    with no threads.  The counts do not depend on ``threads``.  An
    operator on another region is a ValidationError.
    """
    grid = _energies(grid)
    n = len(region)
    if n <= DENSE_THRESHOLD:
        return _band_counts(region, operator, count, grid, threads)
    per_pass = max(1, _STACK // n)
    rows = [count_below([_built_on(region, operator(t))
                         for t in range(lo, min(lo + per_pass, count))], grid)
            for lo in range(0, count, per_pass)]
    return np.vstack(rows) if rows else np.zeros((0, len(grid)), dtype=np.int64)


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


def counting_curve(ham: HamiltonianMatrix, grid) -> CountingFunction:
    """Counting function on a grid of finite energies: :func:`count_operators`
    for the one operator."""
    grid = np.sort(_energies(grid))
    return CountingFunction(grid, count_operators(ham.region, lambda _: ham, 1, grid,
                                                  threads=1)[0])
