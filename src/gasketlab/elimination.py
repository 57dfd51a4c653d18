"""The elimination kernel: eigenvalue counts of gasket operators by inertia.

#{eigenvalues <= E} is the number of negative eigenvalues of H - s I, s =
E + eta.  Every sub-triangle of a gasket triangle meets the rest of the
graph only at its 3 corners, so that matrix is eliminated bottom-up over
the unit cells, three sibling triangles at a time, as in spectral
decimation, and Sylvester's law of inertia adds up the negative
eigenvalues of the eliminated 3x3 pivot blocks.  Each (operator, shift)
pair is a row of one pass, whose state at each level is its triangles'
corner Schur complements (six entries, as (rows, triangles) arrays), its
negatives so far and its delayed rows.  A pivot block is counted
(Descartes' rule) and inverted (adjugate over determinant) in closed form
where that is certain, elementwise; any other goes through batched
``eigh``, whose directions within the pivot floor are delayed: they travel
with the state as rows of the parent's block (delayed pivots, as in
multifrontal LDL^T), so a block singular at E costs no second pass.  The
kernel takes arrays only, the unit cells' corner rows (see
``LatticeRegion.cells``), each operator's diagonal and weights (the pencil
diag - s * weights) and the shifts, and imports numpy alone.
"""

from __future__ import annotations

import numpy as np

#: Relative size of the pivot floor, about sqrt(eps): an eigen-direction of
#: a pivot block within it of zero is delayed, not eliminated.  Inverting
#: a pivot block with smallest eigenvalue lam puts errors ~ eps * scale / lam
#: into the Schur complement above it.  Equal-potential cells make blocks
#: exactly singular at some energies (E = 2 or 12 under a 0/10 potential),
#: leaving lam at the tie guard, and a 1e-12 floor then let flipped pivot
#: signs through; with lam > sqrt(eps) * scale the error stays below it.
PIVOT_TOL = 1e-8

#: Most elements a temporary of the elimination holds, whatever the level
#: or grid size: (operator, energy) rows go in passes of at most
#: BUDGET // 64, cells in subtrees whose first merge has at most
#: BUDGET // rows blocks.  A larger budget makes fewer, longer numpy calls
#: but raises peak memory; the trials of a counter-sized curve are rows of
#: one pass, not threads, so the calls need not be long enough to overlap.
BUDGET = 2**15

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


def _bordered(base, value, coupling, at):
    """The (pairs, s + d, s + d) blocks of ``base`` (pairs, s, s) bordered
    by d mutually uncoupled delayed rows a pair: row s + i holds
    ``value[:, i]`` and, symmetrically, ``coupling[:, i]`` in the 3 columns
    ``at[:, i]``."""
    pairs, s = base.shape[:2]
    band, pair = s + np.arange(value.shape[1]), np.arange(pairs)[:, None, None]
    block = np.zeros((pairs, s + len(band), s + len(band)))
    block[:, :s, :s] = base
    block[pair, band[:, None], at] = block[pair, at, band[:, None]] = coupling
    block[:, band, band] = value
    return block


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
    inner corners; elsewhere it is P bordered by them.  The pairs go in
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
            block = _bordered(pivot[g], value[at], y, np.arange(3))
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
    each operator's blocks are keyed by the ``codes`` of these (see
    :func:`_codes`), and the merge runs on each operator's distinct keys, as
    (rows, keys) arrays padded to the most keys of an operator.  The entries
    are gathered back to the blocks, each key's negatives count once for
    every block that holds it, and its delayed rows are copied to each such
    block, in the order a merge of every block gives them.  Where no
    operator repeats a block, the blocks are merged as they are.
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
    if shift.size * len(corners) > 3 * BUDGET:
        parts = [_eliminate(part, diag, weights, codes, shift, floor,
                            BUDGET // (9 * shift.size))
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
def negative_counts(cells, diag, weights, shift):
    """Negative eigenvalues, per (operator t, shift s) pair, of the matrix
    with diagonal ``diag[t] - s * weights[t]`` and -1 on every edge of the
    unit ``cells`` (see ``LatticeRegion.cells``): ``diag`` and ``weights``
    are (operators, n), ``shift`` is (operators, shifts), and the counts
    come back in the shape of ``shift``.  Each pair is one row of the pass.

    Each merge adds three children's 3x3 corner Schur complements, then
    eliminates the 3 inner corners and carries the 3 outer ones up; the
    corners left at the top, bordered by the delayed rows, form the last
    block.  By Sylvester's law of inertia the negative eigenvalues of the
    eliminated directions add up to those of the matrix.  A direction with
    an eigenvalue within PIVOT_TOL * max(1, max|diag - s * weights|) of
    zero is delayed to the parent's block (see :func:`_merge`).
    """
    k, n = shift.size, diag.shape[1]
    diag, weights, shift = diag[:, None], weights[:, None], shift[..., None]
    scale = np.ones(shift.shape[:2])
    step = max(1, BUDGET // k)
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
        rows = order[start[g, None] + np.arange(d)]
        last = _bordered(block[g], value[rows], coupling[rows], corner[rows])
        cut = np.concatenate([keep, size + np.arange(d)])
        negatives[g] += np.count_nonzero(
            np.linalg.eigvalsh(last[:, cut][:, :, cut]) < 0.0, axis=1)
    return negatives.reshape(shift.shape[:2])
