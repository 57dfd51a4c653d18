"""Eigenvalues and eigenvalue counting functions of gasket operators.

Every solve and count takes an :class:`operators.HamiltonianMatrix` and
reads its arrays; the probabilistic Laplacian enters through its symmetric
form D^{-1/2} L D^{-1/2}, whose edge values one expression gives to the
dense array and the band alike.  Eigenvalue outputs come from a dense
``dsyevr`` that runs in place, on the one n x n array it fills, so a
solve holds no second copy.  LAPACK comes from ``numpy.linalg``'s own
(:func:`_lapack`), so no count or solve imports ``scipy.linalg``.
Counting curves go through one entry, :func:`count_operators`, which
counts the operators a caller builds on one region and alone picks the
method, by size.  A small operator is counted from the band of each of
its trees (a triangle has one, a ball two that share only the origin),
rows sorted outward from the origin along the Euclidean x axis
(bandwidth 30 at level 6): each tree is reduced to its ``dsbtrd``
tridiagonal form, a ball's two forms are joined at the origin, and the
result is counted by Sturm sequences, without the interpreter lock
(LAPACK through ctypes), so the operators of a call count on the trial
threads (:func:`trial_threads`) at the same time; no eigenvalue is
computed.  Large operators, and every :func:`count_below` call, are
counted by inertia in the elimination kernel (:mod:`gasketlab.elimination`),
which sees arrays only: this module holds the dense solves, the band and
the entries, and hands the kernel one row per (operator, energy) pair,
all the energies and operators of a call in one pass.  An energy outside
an operator's Gershgorin interval (centres diag / w, radii region degree
/ w) by more than two tie guards has count n above it and 0 below it, and
takes no row of the elimination and no Sturm count of the band.  The tie
guard eta = 1e-9 (1 + |E|) fixes the "<= E" convention when E collides
with an eigenvalue; every oracle comparison in the test-suite uses the
same convention.  Energies must be finite.  The inequality checks built
on these counts live in :mod:`gasketlab.verification`.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import elimination
from .errors import CapacityError, ValidationError
from .lattice import MAX_LEVEL, ball_count, cell_sides
from .operators import HamiltonianMatrix

DENSE_THRESHOLD = 4096


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
    return _eigvalsh(dense_array(ham).T)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues, ascending, of the Fortran-ordered symmetric array
    ``a``, overwritten, by ``dsyevr`` as ``scipy.linalg.eigvalsh(a,
    overwrite_a=True)`` calls it (JOBZ 'N', RANGE 'A', UPLO 'L', ABSTOL 0,
    LWORK and LIWORK queried); a non-finite entry is a ValueError."""
    if not np.all(np.isfinite(a)):
        raise ValueError("array must not contain infs or NaNs")
    dsyevr, dtype = _lapack("dsyevr", 21)
    # VL, VU and ABSTOL (RANGE 'A' reads only ABSTOL), then W
    floats = np.zeros(3 + len(a))
    # N (also LDA), IL, IU, M, LDZ, LWORK, LIWORK and INFO
    ints = np.array([len(a), 1, len(a), 0, 1, -1, -1, 0], dtype=dtype)
    at, to = _addresses(ints, range(8)), _addresses(floats, range(4))
    work, iwork = np.zeros(1), np.zeros(1, dtype=dtype)
    for query in (True, False):  # Z and ISUPPZ, not referenced, share WORK and IWORK
        dsyevr(b"N", b"A", b"L", at[0], a.ctypes.data, at[0], to[0], to[1], at[1], at[2],
               to[2], at[3], to[3], work.ctypes.data, at[4], iwork.ctypes.data,
               work.ctypes.data, at[5], iwork.ctypes.data, at[6], at[7])
        if query:  # LWORK = LIWORK = -1 asks for their sizes
            ints[5:7] = work[0], iwork[0]
            work, iwork = np.zeros(ints[5]), np.zeros(ints[6], dtype=dtype)
    if ints[7]:
        raise np.linalg.LinAlgError(f"dsyevr failed with INFO = {ints[7]}")
    return floats[3:]


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
    reference, as a ``CFUNCTYPE`` foreign function (a call releases the
    interpreter lock), with the integer dtype it takes.  It is looked up
    where ``numpy.linalg``'s extension finds its LAPACK, numpy's OpenBLAS,
    as ``scipy_{name}_64_`` (numpy >= 2 wheels), ``{name}_64_`` (numpy
    1.2x wheels), both ILP64, or ``{name}_`` (an LP64 system LAPACK, C
    ints); a routine found under none of them is an ImportError."""
    library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    symbols = {f"scipy_{name}_64_": np.int64, f"{name}_64_": np.int64,
               f"{name}_": np.intc}
    for symbol, dtype in symbols.items():
        if hasattr(library, symbol):
            prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)
            return prototype((symbol, library)), dtype
    raise ImportError(f"numpy's LAPACK has no {name}: tried {', '.join(symbols)}")


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
    dsbtrd, dtype = _lapack("dsbtrd", 12)
    out = np.zeros(3 * n)
    ints = np.array([n, rows - 1, rows, 1, 0], dtype=dtype)
    return (dsbtrd, out, ints,
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
    dlaebz, dtype = _lapack("dlaebz", 20)
    m = 2 * max(1, (energies + 1) // 2)
    # AB, E2, ABSTOL, RELTOL, PIVMIN, then a spare for the arrays dlaebz
    # does not reference for IJOB = 1 (E, C and WORK)
    floats = np.zeros(m + n + 3 + max(n, m))
    # N, IJOB, NITMAX, MMAX, MINP, NBMIN, MOUT and INFO, then NAB, which
    # NVAL and IWORK (not referenced either) share
    ints = np.zeros(8 + m, dtype=dtype)
    ints[:3] = n, 1, 0
    return (dlaebz, floats, ints,
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
    # each worker's arrays, set up here so that the LAPACK routines load on
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


def _stacked_counts(hams, grid) -> np.ndarray:
    """The (operators, energies) counts of operators built on one region:
    each (operator, energy) pair the Gershgorin bounds leave open is a row
    of the elimination, at most ``elimination.BUDGET // 64`` rows a pass."""
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
    rows = elimination.BUDGET // 64
    for t in range(0, len(hams), rows):
        group = slice(t, t + rows)
        size = len(diag[group])
        for part in np.array_split(open_, -(-open_.size * size // rows)):
            counted = elimination.negative_counts(
                region.cells, diag[group], weights[group],
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

    It is the counter alone, at every size: the elimination kernel
    (:func:`elimination.negative_counts`) over the region's unit cells,
    every (operator, energy) pair a row of one bottom-up pass (the
    probabilistic Laplacian D^{-1} L as the congruent pencil L - E*D), in
    passes of at most ``elimination.BUDGET // 64`` rows; an energy outside
    the Gershgorin bounds of an operator is n or 0 without a row.  A
    pivot block singular at E (equal-potential cells at a tie energy) has
    its near-null directions delayed, so every count takes the one pass,
    at E + eta itself, and an array call counts as its scalar calls and as
    a list call do.  :func:`count_operators`, not this, picks the method
    of a curve.  It takes every region :func:`count_operators` takes: a
    region is one placed triangle or the ball (see
    :class:`lattice.LatticeRegion`), whose cells are whole triangles, the
    hierarchy the elimination reads.  A non-finite or 2-D ``energy`` is a
    ValidationError, here as in :func:`count_operators` and
    :func:`counting_curve`; so is a list of operators on different regions.
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
