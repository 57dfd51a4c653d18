"""The elimination kernel on hand-built states, against dense counts; its
counts pinned by a digest and its traced memory bounded."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from gasketlab import elimination, ids, operators, verification
from gasketlab.lattice import TriangleSpec, build_ball, build_triangle
from gasketlab.spectra import count_below, counts_from_eigenvalues, tie_guard

#: The level-1 triangle as three unit cells: outer corners 0, 1, 2 and
#: inner corners 3, 4, 5, each cell's corners in the order a merge reads.
LEVEL_ONE = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])

#: The inner corners 3, 4, 5 of its one merge.
INNER = np.array([[3, 4, 5]])


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
    """The diagonals ``diag`` (n,) or (operators, n), unit weights and the
    shifts in the kernel's shapes, and the pivot floor of each (operator,
    energy) row."""
    diag = np.atleast_2d(diag)
    shift = np.broadcast_to(energies + tie_guard(energies), (len(diag), len(energies)))
    floor = elimination.PIVOT_TOL * np.maximum(
        1.0, np.abs(diag[:, None] - shift[..., None]).max(axis=2))
    return (diag[:, None], np.ones((len(diag), 1, diag.shape[1])), shift[..., None],
            floor.reshape(-1, 1))


def _merged(state, d, w, shift, floor):
    """:func:`elimination._merge` of ``state`` with the pivots of its inner
    corners."""
    kids = state.corners.reshape(-1, 3, 3)
    return elimination._merge(
        state, elimination._pivots(kids[:, [0, 0, 1], [1, 2, 2]], d, w, shift), floor)


def test_three_unit_cells_merged_once_count_as_dense():
    # the level-1 triangle, one merge, across and beyond its spectrum, and
    # with inner diagonals 2, 2, 2, whose pivot block is singular at E = 3
    rng = np.random.default_rng(1)
    energies = np.linspace(-2.0, 12.0, 57)
    for diag in (4.0 + rng.uniform(0.0, 1.0, 6), 4.0 + rng.choice([0.0, 5.0], 6),
                 np.array([-3.0, 4.0, 9.0, 2.0, 2.0, 2.0])):
        d, w, shift, floor = _rows(diag, energies)
        state = _merged(elimination._unit_cells(LEVEL_ONE), d, w, shift, floor)
        counts = elimination._close(state, d, w, shift)
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
    state = _merged(elimination._unit_cells(LEVEL_ONE), d, w, shift, floor)
    rows, _, values, _ = state.delayed
    assert len(rows) == nulls
    assert np.all(np.abs(values) <= floor[0])
    counts = elimination._close(state, d, w, shift)
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
    cells = elimination._unit_cells(LEVEL_ONE)._replace(
        delayed=(np.array([0]), np.array([child]), np.array([0.7]), coupling[None]))
    counts = elimination._close(_merged(cells, d, w, shift, floor), d, w, shift)
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
    state = elimination._first_merge(
        elimination._unit_cells(cells), d, w,
        elimination._codes(diag[None], np.ones((1, len(diag)))), shift, floor)
    _, blocks, _, _ = state.delayed
    assert state.index is not None and np.bincount(blocks, minlength=9).tolist() == [2] * 9
    for left in (9, 3):
        state = _merged(state, d, w, shift, floor)
        rows, _, _, _ = state.delayed
        assert len(rows) == left
    counts = elimination._close(state, d, w, shift)
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


@pytest.mark.parametrize("level, energies, law", [
    (3, [5.0], operators.constant(0.0)),
    (4, np.arange(27.0), operators.bernoulli(0.0, 10.0, 0.5, seed=0))])
def test_a_merge_gathers_the_first_merges_entries_as_the_taken_arrays(level, energies,
                                                                      law):
    # the merge after the first one reads each child entry through the
    # first merge's index; fed the entries taken to full width instead, it
    # returns the same negatives, entries and delayed rows, bit for bit:
    # the free level-3 triangle at E = 5 carries delayed rows, and the
    # three rules on a Bernoulli level-4 triangle meet the tie energies
    region = build_triangle(level)
    values = operators.sample_potential(region, law)
    diag = np.array([operators.assemble(region, bc, values).diagonal
                     for bc in operators.BOUNDARY_CONDITIONS])
    d, w, shift, floor = _rows(diag, np.array(energies))
    state = elimination._first_merge(
        elimination._unit_cells(region.cells[0]), d, w,
        elimination._codes(diag, np.ones(diag.shape)), shift, floor)
    rows, _, _, _ = state.delayed
    assert state.index is not None and len(rows)
    lazy, taken = (_merged(s, d, w, shift, floor) for s in (state, elimination._joined([state])))
    assert lazy.negatives.tobytes() == taken.negatives.tobytes()
    assert [x.tobytes() for x in lazy.entries] == [x.tobytes() for x in taken.entries]
    assert [x.tobytes() for x in lazy.delayed] == [x.tobytes() for x in taken.delayed]
    rows, _, _, _ = lazy.delayed
    assert len(rows)


def _trials(region, spec, count, rules=operators.BOUNDARY_CONDITIONS):
    """The operator of each rule for each of ``count`` trials of ``spec``."""
    return [operators.assemble(region, bc, operators.sample_potential(region, spec, t))
            for t in range(count) for bc in rules]


@pytest.mark.parametrize("region", [build_triangle(5), build_triangle(6), build_ball(4)],
                         ids=["triangle5", "triangle6", "ball4"])
def test_a_tree_eliminated_a_third_at_a_time_counts_as_one_pass(region):
    # a driver outside the kernel, as a stream of subtrees would run it:
    # each third of a tree eliminated on its own, the three joined and
    # merged once, the trees joined and the last block closed; each rule,
    # the free operators at their tie energies 2, 5 and 6 and two Bernoulli
    # 0/10 trials at 0..26
    for law, energies in ((operators.constant(0.0), [2.0, 5.0, 6.0]),
                          (operators.bernoulli(0.0, 10.0, 0.5, seed=0), np.arange(27.0))):
        diag = np.array([ham.diagonal for ham in _trials(region, law, 2)])
        d, w, shift, floor = _rows(diag, np.array(energies))
        codes, trees = elimination._codes(diag, np.ones(diag.shape)), []
        for tree in region.cells:
            thirds = elimination._joined([elimination._eliminate(part, d, w, codes, shift,
                                                                 floor)
                                          for part in np.split(tree, 3)])
            trees.append(_merged(thirds, d, w, shift, floor))
        counts = elimination._close(elimination._joined(trees), d, w, shift)
        assert counts.tolist() == elimination.negative_counts(
            region.cells, diag, np.ones(diag.shape), shift[..., 0]).ravel().tolist()


#: The sha256 of the counts below, as the kernel gave them before its merges
#: read the first merge's entries lazily and freed each temporary after
#: its last use.
COUNTS_DIGEST = "ef06d781e8c8bd225921473cf001c294d3bc7ee5b764b0a0cca0cc04d0f7133c"


def test_counts_of_the_three_laws_keep_their_digest():
    # levels 4 and 5, each default law, 20 trials of each rule as the 60
    # rows of one call, at the 64-point global grid and the integer
    # energies 0..26, among them the tie energies 2, 5, 6, 12, 15 and 16
    digest = hashlib.sha256()
    for level in (4, 5):
        region = build_triangle(level)
        for spec in verification.default_distributions(0).values():
            grid = np.union1d(ids.global_grid(spec, 64), np.arange(27.0))
            digest.update(count_below(_trials(region, spec, 20), grid).tobytes())
    assert digest.hexdigest() == COUNTS_DIGEST


def _traced_peak(hams, grid):
    """The traced peak of one count_below call past the memory held before
    it, in units of 8 * BUDGET bytes, after a first call."""
    count_below(hams, grid)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        held = tracemalloc.get_traced_memory()[0]
        count_below(hams, grid)
        return (tracemalloc.get_traced_memory()[1] - held) / (8 * elimination.BUDGET)
    finally:
        if not tracing:
            tracemalloc.stop()


def test_the_kernel_keeps_its_traced_peak():
    # the ids-l8 call (two Bernoulli 0/10 trials on the level-8 half
    # triangle, 27-point global grid; its peak is the merge after the first
    # of each level-6 subtree, 38 rows) peaks at 8.5 units, and 60
    # operators of a level-4 triangle at a 64-point grid (2640 rows, whose
    # peak is a first merge) at 10.3; before each merge kept about half as
    # many live arrays, they peaked at 17.0 and 17.95 (4.25 and 4.49 MiB)
    spec = operators.bernoulli(0.0, 10.0, 0.5, seed=0)
    region = build_triangle(TriangleSpec(8), half_lattice=True)
    hams = _trials(region, spec, 2, ["simple"])
    assert _traced_peak(hams, ids.global_grid(spec, 27)) < 9.8
    hams = _trials(build_triangle(4), spec, 20)
    assert _traced_peak(hams, ids.global_grid(spec, 64)) < 11.8
