"""The elimination kernel on hand-built states, against dense counts."""

import numpy as np
import pytest

from gasketlab import elimination, operators
from gasketlab.lattice import build_triangle
from gasketlab.spectra import counts_from_eigenvalues, tie_guard

#: The level-1 triangle as three unit cells: outer corners 0, 1, 2 and
#: inner corners 3, 4, 5, each cell's corners in the order a merge reads.
LEVEL_ONE = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])


def _matrix(cells, diag):
    """The matrix with ``diag`` and -1 on every side of the unit ``cells``."""
    matrix = np.diag(diag)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        matrix[cells[:, a], cells[:, b]] = matrix[cells[:, b], cells[:, a]] = -1.0
    return matrix


def _dense(cells, diag, energies):
    """counts_from_eigenvalues(eigvalsh) of :func:`_matrix`."""
    return counts_from_eigenvalues(np.linalg.eigvalsh(_matrix(cells, diag)), energies)


def _rows(diag, energies):
    """One operator's diagonal, weights and shifts in the kernel's shapes, and
    the pivot floor of each (operator, energy) row."""
    shift = energies + tie_guard(energies)
    floor = elimination.PIVOT_TOL * np.maximum(
        1.0, np.abs(diag - shift[:, None]).max(axis=1))
    return (diag[None, None], np.ones((1, 1, len(diag))), shift[None, :, None],
            floor[:, None])


def _top(negatives, schur, delayed, corners, diag, shift):
    """The counts of a state merged to one triangle: its negatives plus
    those of its last block, the triangle's corner Schur complement plus
    diag - s on its ``corners``, bordered by the row's delayed rows."""
    counts = negatives.copy()
    for row, s in enumerate(shift.ravel()):
        block = elimination._symmetric(*(np.broadcast_to(x, (shift.size, 1))[row]
                                         for x in schur))
        block[0, [0, 1, 2], [0, 1, 2]] += diag[corners] - s
        mine = delayed[0] == row
        last = elimination._bordered(block, delayed[2][None, mine],
                                     delayed[3][None, mine], np.arange(3))
        counts[row] += np.count_nonzero(np.linalg.eigvalsh(last) < 0.0)
    return counts


def test_three_unit_cells_merged_once_count_as_dense():
    # the level-1 triangle, one merge, across and beyond its spectrum
    rng = np.random.default_rng(1)
    energies = np.linspace(-2.0, 12.0, 57)
    for diag in (4.0 + rng.uniform(0.0, 1.0, 6), 4.0 + rng.choice([0.0, 5.0], 6)):
        d, w, shift, floor = _rows(diag, energies)
        negatives, schur, delayed = elimination._merge(
            elimination._unit_cells(3), elimination._pivots(LEVEL_ONE[None], d, w, shift),
            elimination._NO_ROWS, floor)
        counts = _top(negatives[:, 0], schur, delayed, [0, 1, 2], diag, shift)
        assert counts.tolist() == _dense(LEVEL_ONE, diag, energies).tolist()


@pytest.mark.parametrize("inner, energy, nulls", [((1.0, 2.0, 5.0), 0.0, 1),
                                                   ((2.0, 2.0, 2.0), 3.0, 2)])
def test_a_pivot_block_singular_at_a_tie_energy_is_delayed(inner, energy, nulls):
    # the pivot block diag(inner) - s I - (J - I) is singular once at s =
    # eta for inner diagonals 1, 2, 5 (null vector (3, 2, 1), coupled -5,
    # -4, -3 to the outer corners), and twice at s = 3 + eta for 2, 2, 2
    # (it is -J); each null direction couples to the outer corners, so it
    # is delayed as a row of the last block, not eliminated
    diag = np.array([-3.0, 4.0, 9.0, *inner])
    energies = np.array([energy])
    d, w, shift, floor = _rows(diag, energies)
    negatives, schur, delayed = elimination._merge(
        elimination._unit_cells(3), elimination._pivots(LEVEL_ONE[None], d, w, shift),
        elimination._NO_ROWS, floor)
    assert len(delayed[0]) == nulls
    assert np.all(np.abs(delayed[2]) <= floor[0])
    counts = _top(negatives[:, 0], schur, delayed, [0, 1, 2], diag, shift)
    assert counts.tolist() == _dense(LEVEL_ONE, diag, energies).tolist()
    assert elimination.negative_counts(LEVEL_ONE[None], diag[None], np.ones((1, 6)),
                                       shift[..., 0]).tolist() == [counts.tolist()]


@pytest.mark.parametrize("child", range(3))
def test_a_childs_delayed_row_joins_a_singular_pivot_block(child):
    # a hand-built delayed row of one child (value 0.7 at the shift,
    # coupled to the child's 3 corners) joins the pivot block that is
    # singular at E = 0 (inner diagonals 1, 2, 5): the block goes through
    # eigh bordered by the row, and the count is that of the matrix with
    # the row as one more vertex
    diag = np.array([-3.0, 4.0, 9.0, 1.0, 2.0, 5.0])
    energies = np.array([0.0])
    d, w, shift, floor = _rows(diag, energies)
    coupling = np.array([0.4, -1.3, 0.6])
    negatives, schur, delayed = elimination._merge(
        elimination._unit_cells(3), elimination._pivots(LEVEL_ONE[None], d, w, shift),
        (np.array([0]), np.array([child]), np.array([0.7]), coupling[None]), floor)
    counts = _top(negatives[:, 0], schur, delayed, [0, 1, 2], diag, shift)
    matrix = np.pad(_matrix(LEVEL_ONE, diag), (0, 1))
    matrix[6, LEVEL_ONE[child]] = matrix[LEVEL_ONE[child], 6] = coupling
    matrix[6, 6] = 0.7 + shift.item()
    assert counts.tolist() == counts_from_eigenvalues(np.linalg.eigvalsh(matrix),
                                                      energies).tolist()


@pytest.mark.parametrize("bc", operators.BOUNDARY_CONDITIONS)
def test_a_delayed_row_is_carried_up_two_merges(bc):
    # the free level-3 triangle at E = 5: every first-merge block is
    # singular twice, 2 rows each of the 9 blocks are delayed, they are
    # carried up through the next two merges, and 3 reach the last block
    region = build_triangle(3)
    cells = region.cells[0]
    diag = operators.assemble(region, bc, np.zeros(len(region))).diagonal
    energies = np.array([5.0])
    d, w, shift, floor = _rows(diag, energies)
    kids = cells.reshape(-1, 3, 3)
    negatives, schur, delayed = elimination._first_merge(
        kids, d, w, elimination._codes(diag[None], np.ones((1, len(diag)))), shift, floor)
    assert np.bincount(delayed[1], minlength=9).tolist() == [2] * 9
    for left in (9, 3):
        kids = kids[:, [0, 1, 2], [0, 1, 2]].reshape(-1, 3, 3)
        more, schur, delayed = elimination._merge(
            schur, elimination._pivots(kids, d, w, shift), delayed, floor)
        negatives = negatives + more.sum(axis=1)
        assert len(delayed[0]) == left
    counts = _top(negatives, schur, delayed, kids[0, [0, 1, 2], [0, 1, 2]], diag, shift)
    assert counts.tolist() == _dense(cells, diag, energies).tolist() == [27]


def test_a_bordered_block_counts_as_its_symmetric_copy():
    # the border is written below the diagonal only: eigvalsh reads the
    # lower triangle, so its eigenvalues are those of the full symmetric
    # block, bit for bit
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 3, 3))
    base = base + np.swapaxes(base, 1, 2)
    at = np.stack([rng.permutation(3) for _ in range(8)]).reshape(4, 2, 3)
    block = elimination._bordered(base, rng.standard_normal((4, 2)),
                                  rng.standard_normal((4, 2, 3)), at)
    assert not np.any(np.triu(block, 1)[:, :, 3:])
    full = np.tril(block) + np.swapaxes(np.tril(block, -1), 1, 2)
    assert np.linalg.eigvalsh(block).tobytes() == np.linalg.eigvalsh(full).tobytes()
