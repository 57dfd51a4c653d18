"""The elimination kernel: eigenvalue counts of gasket operators by inertia.

#{eigenvalues <= E} is the number of negative eigenvalues of H - s I, s =
E + eta.  Every sub-triangle of a gasket triangle meets the rest of the
graph only at its 3 corners, so that matrix is eliminated bottom-up over
the unit cells, three sibling triangles at a time, as in spectral
decimation, and Sylvester's law of inertia adds up the negative
eigenvalues of the eliminated 3x3 pivot blocks.  Each (operator, shift)
pair is a row of one pass, whose state (:class:`_State`) is merged level
by level (:func:`_merge`), joined (:func:`_joined`) and closed at the
top (:func:`_close`) as one value.  A pivot block is counted
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

from typing import NamedTuple

import numpy as np

#: Relative size of the pivot floor, about sqrt(eps): an eigen-direction of
#: a pivot block within it of zero is delayed, not eliminated.  Inverting
#: a pivot block with smallest eigenvalue lam puts errors ~ eps * scale / lam
#: into the Schur complement above it.  Equal-potential cells make blocks
#: exactly singular at some energies (E = 2 or 12 under a 0/10 potential),
#: leaving lam at the tie guard, and a 1e-12 floor then let flipped pivot
#: signs through; with lam > sqrt(eps) * scale the error stays below it.
PIVOT_TOL = 1e-8

#: Most elements a (rows, triangles) array of a merge holds, whatever the
#: level or grid size: rows go in passes of at most BUDGET // 9, cells in
#: subtrees whose first merge has at most BUDGET // rows blocks.  A merge
#: holds about 14 such arrays (see :func:`_merge`); a pass of 2640 rows
#: on level-4 triangles peaks at 2.69e6 bytes traced.  A larger budget
#: makes fewer, longer numpy calls but raises peak memory; the trials of a
#: counter-sized curve are rows of one pass, not threads, so the calls
#: need not be long enough to overlap.
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

#: The children that share inner corner s (row 3 + s of the front), and the
#: inner corners child t meets: child t's coupling to s is its entry 3 + s.
_PAIRS = ((0, 1), (0, 2), (1, 2))

#: The adj(A) entries that :func:`_merge` last reads for y_s of column k.
_LAST = {(1, 0): ((0, 0),), (2, 0): ((0, 1), (0, 2)), (2, 1): ((1, 1),),
         (2, 2): ((1, 2), (2, 2))}

#: No delayed rows (see :class:`_State`).
_NO_ROWS = (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0),
            np.zeros((0, 3)))


class _State(NamedTuple):
    """A pass's triangles at one level, the frontal matrices of multifrontal
    LDL^T with their delayed pivots (Duff & Reid, ACM TOMS 9 (1983) 302).
    An array of one row is the same in every row."""
    negatives: np.ndarray  # the negative directions eliminated, per row
    entries: list  # six (rows, width) arrays, the corner Schur complements
    index: np.ndarray | None  # (rows, triangles) flat index into entries, or None
    corners: np.ndarray  # (triangles, 3) corner rows
    delayed: tuple  # rows as (row, triangle, value, coupling to its 3 corners)


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
    ``value[:, i]`` and ``coupling[:, i]`` in the 3 columns ``at[:, i]``:
    lower triangles, the only entries eigh and eigvalsh read (UPLO 'L')."""
    pairs, s = base.shape[:2]
    band, pair = s + np.arange(value.shape[1]), np.arange(pairs)[:, None, None]
    block = np.zeros((pairs, s + len(band), s + len(band)))
    block[:, :s, :s] = base
    block[pair, band[:, None], at] = coupling
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


def _unit_cells(corners):
    """The state of the unit cells with rows ``corners`` (count, 3), the same
    in every row: a cell's block is its 3 edges, and each diagonal entry is
    added whole when its vertex is eliminated."""
    zero, edge = np.zeros((1, len(corners))), np.full((1, len(corners)), -1.0)
    return _State(np.zeros(1, np.int64), [zero] * 3 + [edge] * 3, None, corners, _NO_ROWS)


def _pivots(inner, diag, weights, shift):
    """Yield the (rows, m) terms diag - s * weights at the inner corners
    ``inner`` (m, 3), or (operators, m, 3), of m merges, one at a time: a
    row is one (operator, energy) pair, ``diag`` and ``weights`` are
    (operators, 1, n) and ``shift`` (operators, energies, 1)."""
    op = np.arange(len(diag))[:, None]
    for v in np.moveaxis(inner, -1, 0):
        yield (diag[op, 0, v][:, None] - shift * weights[op, 0, v][:, None]).reshape(
            -1, v.shape[-1])


def _cross(x, y, z, s, op=np.subtract):
    """op(x * y, z * s), written over the larger of the two products."""
    a, b = x * y, z * s
    return op(a, b, out=a if a.size >= b.size else b)


def _merge(state, pivots, floor, copies=1):
    """The state of the parents of every triple of sibling triangles of
    ``state``: their 3 inner corners eliminated, a child entry gathered
    through the state's index where it is read.

    ``pivots`` yields the (rows, m) diagonal terms of the inner corners (see
    :func:`_pivots`), made the blocks' diagonals in place.  The negatives of
    a parent's eliminated directions count ``copies`` (rows, m) times in
    its row's (see :func:`_first_merge`), and the parents' entries have no
    index.  Each temporary goes after its last use: besides its input a
    merge holds about 14 (rows, m) arrays, 17 where many blocks are delayed.

    A pivot block's eigen-direction within ``floor`` of zero is not
    eliminated but delayed: kept as a row (row, triangle, value, coupling
    to the triangle's 3 corners) of the parent's pivot block, next to the
    parent's inner corners.  The delayed rows of a triangle are mutually
    uncoupled.  A delayed row whose coupling is within the floor too is
    rounding away from an eigen-direction of the whole matrix, so its sign
    is counted where it appears.
    """
    drow, dkid, dvalue, dlink = state.delayed  # the children's delayed rows

    def child(t, j):  # entry j (see _ENTRIES) of child t, (rows, m) or (1, m)
        x, index = state.entries[j], state.index
        return x[:, t::3] if index is None else x.take(index[:, t::3])

    # the pivot block [[p, u, v], [u, q, w], [v, w, r]] on the inner corners
    # (see _PAIRS): child t couples two of them by its entry 5 - t
    p, q, r = pivots
    for s, (t, j) in zip((p, q, r), _PAIRS):
        s += child(t, j) + child(j, t)
    u, v, w = child(0, 5), child(1, 4), child(2, 3)
    # its largest row sum, its adjugate, determinant and 2x2 minor sum
    au, av, aw = np.abs(u), np.abs(v), np.abs(w)
    norm = np.maximum(np.maximum(np.abs(p) + au + av, au + np.abs(q) + aw),
                      av + aw + np.abs(r))
    bound = norm * norm * np.maximum(_CERTAIN * norm, 2.0 * floor)
    del au, av, aw, norm
    j33, j44, j55 = _cross(q, r, w, w), _cross(p, r, v, v), _cross(p, q, u, u)
    j34, j35, j45 = _cross(v, w, u, r), _cross(u, w, q, v), _cross(u, v, p, w)
    det = _cross(p, j33, u, j34, np.add)
    det += v * j35
    certain = (np.abs(det) > bound) & np.isfinite(det)
    del bound
    # Descartes: sign changes of (1, trace, minors, det) count the negative
    # eigenvalues, exactly for a real-rooted cubic with det != 0
    trace, minors, i8 = p + q + r, j33 + j44 + j55, np.int8
    negatives = np.where(det > 0, np.where((trace > 0) & (minors > 0), i8(0), i8(2)),
                         np.where((trace < 0) & (minors > 0), i8(3), i8(1)))
    del trace, minors
    inv = certain / np.where(certain, det, 1.0)
    del det
    m, side = certain.shape[1], ~certain
    side[drow, dkid // 3] = True
    e, c = np.nonzero(side)
    pair = e * m + c

    def at(x):  # x is (rows, m), or (1, m) for the same in every row
        return x.take(pair if len(x) > 1 else c)

    # the delayed path's pivot blocks and inverses, gathered before they go
    sure, pivot = certain.take(pair), _symmetric(*(at(x) for x in (p, q, r, u, v, w)))
    del p, q, r, u, v, w, certain, side
    inverse = (_symmetric(*(at(x) for x in (j33, j44, j55, j34, j35, j45)))
               * at(inv)[:, None, None])
    # adj(A) times child k's couplings x_k to its inner corners i, j, one
    # entry y_s at a time: s_kk = base - x_k.y / det, s_lk = -x_l.y / det;
    # each entry of adj(A) goes after its last use (_LAST)
    adj = [[j33, j34, j35], [j34, j44, j45], [j35, j45, j55]]
    del j33, j34, j35, j44, j45, j55
    out = [None] * 6
    for k, (i, j) in enumerate(_PAIRS):
        for s in range(3) if k else (i, j):
            y = _cross(adj[s][i], child(k, 3 + i), adj[s][j], child(k, 3 + j), np.add)
            for a, b in _LAST.get((k, s), ()):
                adj[a][b] = adj[b][a] = None
            near = [l for l in _PAIRS[s] if l <= k]  # the last product goes into y
            for l in near:
                x = np.multiply(child(l, 3 + s), y, out=y if l == near[-1] else None)
                o = _ENTRIES.index((l, k))
                out[o] = x if out[o] is None else np.add(out[o], x, out=out[o])
            del y, x
        for l in range(k):
            x = out[_ENTRIES.index((l, k))]
            np.multiply(np.negative(x, out=x), inv, out=x)
        out[k] *= inv
        np.subtract(child(k, k), out[k], out=out[k])
    del adj, inv

    def parents(delayed):  # the parents' state, with their delayed rows
        return _State(state.negatives + (negatives * copies).sum(axis=1), out, None,
                      state.corners.reshape(-1, 3, 3)[:, [0, 1, 2], [0, 1, 2]], delayed)

    if not e.size:
        return parents(_NO_ROWS)
    # the children's delayed rows, each pair's together, in the corner
    # numbering of the front
    order, start, number = _rows_of(drow * m + dkid // 3, pair)
    front = np.zeros((len(order), 6))
    front[np.arange(len(order))[:, None], _SLOTS[dkid[order] % 3]] = dlink[order]
    zero = np.zeros(e.size)
    link = np.stack([at(child(0, 3)), at(child(1, 3)), zero, at(child(0, 4)), zero,
                     at(child(2, 4)), zero, at(child(1, 5)), at(child(2, 5))],
                    axis=-1).reshape(-1, 3, 3)
    owner, value, coupling = _directions(sure, pivot, inverse, link,
                                         (dvalue[order], front, start, number))
    del pivot, inverse, link, front
    # a direction above the floor is eliminated: its sign is counted and
    # x x^T / value taken off the outer corners; one within the floor is
    # counted here if it no longer couples, else delayed
    small = np.abs(value) <= floor.take(e.take(owner))
    scaled = coupling / np.where(small, np.inf, value)[:, None]
    count = np.where(sure, at(negatives), 0) + np.bincount(
        owner, weights=(value < 0.0) & ~small, minlength=e.size).astype(np.int64)
    base = (at(child(0, 0)), at(child(1, 1)), at(child(2, 2)), zero, zero, zero)
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
    return parents((e[owner], c[owner], value[~free], coupling[~free]))


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


def _first_merge(state, diag, weights, codes, shift, floor):
    """The state of a merge of the unit cells ``state``, each operator's
    distinct blocks solved once; ``state`` itself if no block repeats.

    The children of a first merge are bare unit cells, so a block depends
    on its row only through the (diagonal, weight) at its 3 inner corners:
    each operator's blocks are keyed by the ``codes`` of these (see
    :func:`_codes`), and the merge runs on each operator's distinct keys, as
    (rows, keys) arrays padded to the most keys of an operator, which go
    with each block's (rows, m) flat index in them.  Each key's negatives
    count once for every block that holds it, and its delayed rows are
    copied to each such block, in the order a merge of every block gives
    them.
    """
    if codes is None:
        return state
    kids = state.corners.reshape(-1, 3, 3)
    m, inner = len(kids), kids[:, [0, 0, 1], [1, 2, 2]]
    # codes are below n < 2^21 (MAX_LEVEL), so a key fits in 63 bits
    n = codes.shape[1]
    key = (codes[:, inner[:, 0]] * n + codes[:, inner[:, 1]]) * n + codes[:, inner[:, 2]]
    order = np.argsort(key, axis=1, kind="stable")
    key = np.take_along_axis(key, order, axis=1)
    first = np.ones(key.shape, dtype=bool)
    first[:, 1:] = key[:, 1:] != key[:, :-1]
    rank = np.cumsum(first, axis=1) - 1  # the key number of each sorted block
    width = int(rank[:, -1].max()) + 1
    if width == m:
        return state
    operators, energies = shift.shape[:2]
    # each key's blocks, ascending, start at its first sorted position; a
    # padded key holds no block and stands for the last one
    number = np.bincount((np.arange(operators)[:, None] * width + rank).ravel(),
                         minlength=operators * width).reshape(operators, width)
    start = np.cumsum(number, axis=1) - number
    op = np.arange(operators)[:, None]
    vertex = inner[order[op, np.minimum(start, m - 1)]]
    merged = _merge(_unit_cells(state.corners[:3 * width]),  # only their number is read
                    _pivots(vertex, diag, weights, shift), floor,
                    np.repeat(number, energies, axis=0))
    which = np.empty_like(rank)
    which[op, order] = rank
    # each block's entry in the flat (rows, width) arrays, and the k-th copy
    # of a delayed row goes to the k-th block of its key
    index = np.repeat(which, energies, axis=0) + width * np.arange(shift.size)[:, None]
    e, c, value, coupling = merged.delayed
    t = e // energies
    copies = number[t, c]
    row = np.repeat(np.arange(e.size), copies)
    block = order[t[row], (start[t, c] - np.cumsum(copies) + copies)[row]
                  + np.arange(row.size)]
    sort = np.argsort(e[row] * m + block, kind="stable")
    row, block = row[sort], block[sort]
    return merged._replace(index=index, corners=kids[:, [0, 1, 2], [0, 1, 2]],
                           delayed=(e[row], block, value[row], coupling[row]))


def _eliminate(corners, diag, weights, codes, shift, floor, fit=1):
    """The state of the unit cells with rows ``corners`` (3^j, 3), one
    subtree, merged until at most ``fit`` triangles are left, the first
    merge by :func:`_first_merge`.  A subtree too wide for the element
    budget is first merged as its 3 children, each until the three together
    take at most a third of the budget, so the children held while a
    sibling is merged stay small against its temporaries."""
    if shift.size * len(corners) > 3 * BUDGET:
        state = _joined([_eliminate(part, diag, weights, codes, shift, floor,
                                    BUDGET // (9 * shift.size))
                         for part in np.split(corners, 3)])
    else:
        state = _unit_cells(corners)
        if len(corners) > fit:
            state = _first_merge(state, diag, weights, codes, shift, floor)
    while len(state.corners) > fit:
        kids = state.corners.reshape(-1, 3, 3)
        state = _merge(state, _pivots(kids[:, [0, 0, 1], [1, 2, 2]], diag, weights, shift),
                       floor)
    return state


def _joined(states):
    """The states of disjoint sets of triangles, of the same rows, as one:
    each state's entries gathered through its index, and its triangles
    numbered after those of the states before it."""
    entries = [np.hstack([x if s.index is None else x.take(s.index)
                          for s, x in zip(states, xs)])
               for xs in zip(*(s.entries for s in states))]
    offset = np.cumsum([0] + [len(s.corners) for s in states])
    delayed = zip(*((e, c + t, value, coupling) for (e, c, value, coupling), t
                    in zip((s.delayed for s in states), offset)))
    return _State(sum(s.negatives for s in states), entries, None,
                  np.vstack([s.corners for s in states]),
                  tuple(np.concatenate(x) for x in delayed))


def _close(state, diag, weights, shift):
    """The counts per row of a state with no index: its negatives plus those
    of its last block, diag - s * weights plus the triangles' corner Schur
    complements on their distinct corners, bordered by the row's delayed
    rows.  A corner shared by two triangles (the halves of a ball) enters
    once; the -1 of the corners a truncated triangle drops is cut out."""
    k, (e, c, value, coupling) = shift.size, state.delayed
    top, at = np.unique(state.corners, return_inverse=True)
    size, at = len(top), at.reshape(-1, 3)
    block = np.zeros((k, size, size))
    block[:, np.arange(size), np.arange(size)] = (
        diag[..., top] - shift * weights[..., top]).reshape(k, size)
    full = _symmetric(*(np.broadcast_to(x, (k, len(at))) for x in state.entries))
    np.add.at(block, (slice(None), at[:, :, None], at[:, None]), full.reshape(k, -1, 3, 3))
    order, start, number = _rows_of(e, np.arange(k))
    counts, keep = state.negatives + np.zeros(k, dtype=np.int64), np.flatnonzero(top >= 0)
    for d, g in _split_by(number):
        rows = order[start[g, None] + np.arange(d)]
        last = _bordered(block[g], value[rows], coupling[rows], at[c[rows]])
        cut = np.concatenate([keep, size + np.arange(d)])
        counts[g] += np.count_nonzero(
            np.linalg.eigvalsh(last[:, cut][:, :, cut]) < 0.0, axis=1)
    return counts


# at extreme magnitudes (|entries| ~ 1e100) the closed-form products
# overflow; such blocks are not certified and go through eigh
@np.errstate(over="ignore", invalid="ignore")
def negative_counts(cells, diag, weights, shift):
    """Negative eigenvalues, per (operator t, shift s) pair, of the matrix
    with diagonal ``diag[t] - s * weights[t]`` and -1 on every edge of the
    unit ``cells`` (see ``LatticeRegion.cells``): ``diag`` and ``weights``
    are (operators, n), ``shift`` is (operators, shifts), and the counts
    come back in the shape of ``shift``.  Each pair is a row of a pass of
    at most BUDGET // 9 rows (whole operators, or one operator's shifts
    cut to that size), so that :func:`_eliminate` can merge each subtree
    to a triangle; a row's count does not depend on its pass.

    Each merge adds three children's 3x3 corner Schur complements, then
    eliminates the 3 inner corners and carries the 3 outer ones up; the
    corners left at the top, bordered by the delayed rows, form the last
    block.  By Sylvester's law of inertia the negative eigenvalues of the
    eliminated directions add up to those of the matrix.  A direction with
    an eigenvalue within PIVOT_TOL * max(1, max|diag - s * weights|) of
    zero is delayed to the parent's block (see :func:`_merge`).
    """
    rows = BUDGET // 9
    group = max(1, rows // max(shift.shape[1], 1))
    counts = np.empty(shift.shape, dtype=np.int64)
    for lo in range(0, len(shift), group):
        for at in range(0, shift.shape[1], rows):
            part = slice(lo, lo + group), slice(at, at + rows)
            counts[part] = _pass(cells, diag[part[0]], weights[part[0]], shift[part])
    return counts


def _pass(cells, diag, weights, shift):
    """:func:`negative_counts` of at most BUDGET // 9 rows: each tree
    eliminated to its top triangle, the trees joined and closed."""
    k = shift.size
    # d - s * w rounds monotonically in d, so over the vertices of one
    # weight w, |d - s * w| is largest at their least or greatest d
    scale = np.ones(shift.shape)
    for w in np.unique(weights):
        mine = weights == w
        for d in (np.min(diag, axis=1, where=mine, initial=np.inf),
                  np.max(diag, axis=1, where=mine, initial=-np.inf)):
            scale = np.maximum(scale, np.where(mine.any(axis=1)[:, None],
                                               np.abs(d[:, None] - shift * w), 0.0))
    floor = PIVOT_TOL * scale.reshape(k, 1)
    codes = _codes(diag, weights)
    diag, weights, shift = diag[:, None], weights[:, None], shift[..., None]
    trees = _joined([_eliminate(t, diag, weights, codes, shift, floor) for t in cells])
    return _close(trees, diag, weights, shift).reshape(shift.shape[:2])
