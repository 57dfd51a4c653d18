import ctypes
import functools
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gasketlab import decimation, elimination, operators, spectra, verification
from gasketlab.errors import CapacityError, ValidationError
from gasketlab.lattice import (TriangleSpec, build_ball, build_triangle,
                               translation_map, triangle_count)
from gasketlab.operators import assemble, bernoulli, sample_potential, uniform
from gasketlab.spectra import (count_below, counts_from_eigenvalues,
                               eigenvalues_dense)
from gasketlab.verification import (CheckRecord, compact_eigenfunction_at_six,
                                    interlacing_suite,
                                    localized_kernel_at_six, psd_suite,
                                    spectrum_containment_check,
                                    zero_extension_residual)


def _simple_triangle():
    """The level-0 triangle under the simple rule: spectrum {2, 5, 5}."""
    return assemble(build_triangle(0), "simple", np.zeros(3))


def _count(ham, grid):
    """One operator's counts through :func:`spectra.count_operators`, which
    counts an operator of at most DENSE_THRESHOLD rows from its band."""
    return spectra.count_operators(ham.region, lambda _: ham, 1, grid)[0]


def test_dense_fixture():
    assert np.allclose(eigenvalues_dense(_simple_triangle()), [2.0, 5.0, 5.0])
    region = build_triangle(2)
    free = assemble(region, "simple", np.zeros(len(region)))
    want = 4.0 * np.eye(len(region))
    i, j = region.edges.T
    want[i, j] = want[j, i] = -1.0
    assert np.array_equal(spectra.dense_array(free), want)


def test_dense_threshold_capacity(monkeypatch):
    for ham in (_simple_triangle(),
                assemble(build_triangle(3), "simple", np.zeros(42))):
        rows = ham.dimension
        monkeypatch.setattr(spectra, "DENSE_THRESHOLD", rows - 1)
        for dense in (eigenvalues_dense, spectra.dense_array):
            with pytest.raises(CapacityError):
                dense(ham)
        monkeypatch.setattr(spectra, "DENSE_THRESHOLD", rows)
        assert len(eigenvalues_dense(ham)) == rows


def test_dense_probabilistic_symmetrization():
    region = build_triangle(2)
    ham = operators.probabilistic_laplacian(region)
    sym = eigenvalues_dense(ham)
    # the walk Laplacian I - D^{-1} A, built from the edges
    adjacency = np.zeros((len(region), len(region)))
    i, j = region.edges.T
    adjacency[i, j] = adjacency[j, i] = 1.0
    walk = np.eye(len(region)) - adjacency / region.region_degree[:, None]
    direct = np.sort(np.linalg.eigvals(walk).real)
    assert np.allclose(sym, direct, atol=1e-9)


def test_count_below_fixture():
    # the level-0 triangle under the Neumann rule: spectrum {0, 3, 3}
    ham = assemble(build_triangle(0), "neumann", np.zeros(3))
    assert count_below(ham, 1.5) == 1
    assert count_below(ham, 0.0) == 1  # ties count as below
    assert count_below(ham, -1.0) == 0
    assert count_below(ham, 3.0) == 3
    assert type(count_below(ham, 1.5)) is int
    assert count_below(ham, [-1.0, 0.0, 1.5, 3.0]).tolist() == [0, 1, 1, 3]


def test_non_finite_energies_are_rejected_by_every_count():
    ham = _simple_triangle()
    for count in (count_below, _count):
        for bad in ([[1.0]], np.nan, [1.0, np.inf], [1.0, np.nan, np.inf]):
            with pytest.raises(ValidationError, match="finite scalar or 1-D"):
                count(ham, bad)


def _placements(level):
    """The standard level-``level`` triangle and its images under mirrors
    and translations, some of which straddle the axis 2p + q = 0."""
    side = 2**level
    return {"standard": TriangleSpec(level),
            "mirrored": TriangleSpec(level, mirrored=True),
            "translated": TriangleSpec(level, anchor=(3 * side, side)),
            "mirrored translated": TriangleSpec(level, anchor=(-side, 2 * side),
                                                mirrored=True),
            "straddling": TriangleSpec(level, anchor=(-side // 2, 0)),
            "mirrored straddling": TriangleSpec(level, anchor=(side // 2, 1),
                                                mirrored=True)}


@pytest.mark.parametrize("level", range(1, 6))
def test_mirrored_and_translated_triangles_count_as_the_standard_one(level):
    # the same potential on each image, vertex for vertex: every rule
    # counts the same on the band (count_operators) and on the counter
    # (count_below), and equal to the dense count eta either side of each
    # eigenvalue
    standard = build_triangle(level)
    values = sample_potential(standard, bernoulli(0.0, 10.0, 0.5, seed=level))
    counts = {}
    for name, spec in _placements(level).items():
        region = build_triangle(spec)
        placed = np.empty(len(region))
        placed[region.locate(translation_map(standard, spec))] = values
        hams = [assemble(region, bc, placed) for bc in operators.BOUNDARY_CONDITIONS]
        if name == "standard":
            eigenvalues = np.concatenate([eigenvalues_dense(ham) for ham in hams])
            energies = np.concatenate([eigenvalues,
                                       eigenvalues - 2.0 * spectra.tie_guard(eigenvalues)])
            dense = np.array([counts_from_eigenvalues(eigenvalues_dense(ham), energies)
                              for ham in hams])
        counts[name] = (spectra.count_operators(region, hams.__getitem__, len(hams),
                                                energies),
                        count_below(hams, energies))
        assert [c.tolist() for c in counts[name]] == [dense.tolist()] * 2, name
    assert len(counts) == 6


def test_count_below_simple_triangle():
    ham = assemble(build_triangle(0), "simple", np.zeros(3))
    assert count_below(ham, 4.0) == 1  # spectrum {2, 5, 5}
    assert count_below(ham, 5.0) == 3


def test_count_below_matches_dense_on_random_hamiltonians():
    rng = np.random.default_rng(13)
    for level, bc in [(4, "simple"), (5, "neumann"), (4, "dirichlet")]:
        region = build_triangle(level)
        values = sample_potential(region, bernoulli(0, 10, 0.5, seed=level))
        ham = assemble(region, bc, values)
        evals = eigenvalues_dense(ham)
        for energy in rng.uniform(-1.0, 18.0, 100):
            assert count_below(ham, energy) == counts_from_eigenvalues(
                evals, [energy])[0]


def test_count_below_probabilistic():
    ham = operators.probabilistic_laplacian(build_triangle(3))
    evals = eigenvalues_dense(ham)
    for energy in (0.1, 0.75, 1.4):
        assert count_below(ham, energy) == counts_from_eigenvalues(
            evals, [energy])[0]


def test_count_below_counts_an_eigenvalue_within_rounding_of_e_plus_eta():
    # E + eta = 1.9999999999999998, within rounding of the eigenvalue 2
    ham = _simple_triangle()
    energy = (2.0 - 1e-9) / (1.0 + 1e-9)
    assert count_below(ham, energy) == 1
    assert _count(ham, [energy]).tolist() == [1]
    assert counts_from_eigenvalues(eigenvalues_dense(ham), [energy]).tolist() == [1]
    assert count_below(ham, 3.5) == 1


def test_band_and_counter_agree_on_one_operator():
    region = build_triangle(5)  # 366 vertices: counted from the band
    values = sample_potential(region, uniform(0, 1, seed=2))
    ham = assemble(region, "simple", values)
    grid = np.linspace(-0.5, 9.5, 100)
    band = _count(ham, grid)
    assert np.array_equal(band, count_below(ham, grid))
    assert np.all(np.diff(band) >= 0)
    assert band[-1] == len(region)
    assert band[0] == 0


def test_count_operators_switches_method_by_size(monkeypatch):
    region = build_triangle(3)
    ham = assemble(region, "neumann", np.zeros(len(region)))
    calls = []

    def recording(name):
        original = getattr(spectra, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("_tridiagonal", "count_below"):
        monkeypatch.setattr(spectra, name, recording(name))
    band = _count(ham, [1.0])
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", len(region) - 1)
    counter = _count(ham, [1.0])
    assert calls == ["_tridiagonal", "count_below"]
    assert counter[0] == band[0]


def test_counting_bounds_are_the_same_through_count_below(monkeypatch):
    # with DENSE_THRESHOLD at 0 every operator of the suite is counted by
    # count_below, which must give the band's records
    spec = bernoulli(0.0, 10.0, 0.5, seed=1)
    grid = np.linspace(0.3, 17.3, 18)
    band = verification._counting_records("b", 3, spec, 2, grid)
    calls = []
    original = spectra.count_below
    monkeypatch.setattr(spectra, "count_below",
                        lambda *args: calls.append(1) or original(*args))
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 0)
    counter = verification._counting_records("b", 3, spec, 2, grid)
    # one call per structure: the whole and the truncated triangle, and
    # the 3 children of each, every (piece, sample, rule) triple an
    # operator of it
    assert len(calls) == 2 + 2
    assert [r.to_dict() for r in counter] == [r.to_dict() for r in band]


def test_verify_counting_bounds_pass():
    spec = bernoulli(0.0, 10.0, 0.5, seed=17)
    grid = np.linspace(0.0, 26.0, 40)
    records = verification._counting_records("b", 3, spec, 3, grid)
    assert records and all(r.passed for r in records)
    pair_ids = {r.check_id for r in records}
    assert pair_ids == {"bc-pair", "triple-split"}


def test_counting_suite_is_the_same_on_trial_threads(monkeypatch):
    # more trial threads than cores, switching often: the threads share the
    # regions and the grid, and the records must still come out the same
    records = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(spectra.os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus, raising=False)
            records[len(cpus)] = [r.to_dict() for r in verification.counting_suite(
                levels=(4,), seeds=6)]
    finally:
        sys.setswitchinterval(interval)
    assert len(records[1]) == (1 + 6 + 6) * (15 + 6)
    assert records[1] == records[3]


def test_verify_interlacing_bounds_pass():
    records = interlacing_suite(50, 10, seed=1)
    assert records and all(r.passed for r in records)
    assert {r.check_id for r in records} == {
        "projection-interlacing", "rank-perturbation",
        "subspace-upper", "subspace-lower"}


def test_rank_zero_perturbation_changes_nothing():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((30, 30))
    h = (h + h.T) / 2
    evals = np.linalg.eigvalsh(h)
    energies = rng.uniform(-5, 5, 100)
    assert np.array_equal(counts_from_eigenvalues(evals, energies),
                          counts_from_eigenvalues(np.linalg.eigvalsh(h), energies))


def test_verify_psd_product_bounds_pass():
    records = psd_suite(40, 20, seed=2)
    assert records and all(r.passed for r in records)


def test_psd_product_identity_and_scaling():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((20, 20))
    b = g @ g.T / 20
    wb = np.linalg.eigvalsh(b)
    assert np.allclose(np.linalg.eigvalsh(np.eye(20) @ b), wb, atol=1e-10)
    assert np.allclose(np.sort(np.linalg.eigvals(2.0 * np.eye(20) @ b).real),
                       2.0 * wb, atol=1e-9)


def test_compact_eigenfunctions_exist_and_extend():
    basis = compact_eigenfunction_at_six(3)
    assert len(basis) >= 1
    region = build_ball(3)
    free = spectra.dense_array(assemble(region, "simple", np.zeros(len(region))))
    shifted = free - 6.0 * np.eye(len(region))
    for vec in basis[:3]:
        assert np.linalg.norm(shifted @ vec) <= 1e-8
        assert zero_extension_residual(3, vec) <= 1e-8
    # orthonormal family
    gram = np.array([[a @ b for a in basis] for b in basis])
    assert np.allclose(gram, np.eye(len(basis)), atol=1e-10)


def test_constant_vector_is_not_in_the_kernel():
    region = build_ball(3)
    free = spectra.dense_array(assemble(region, "simple", np.zeros(len(region))))
    shifted = free - 6.0 * np.eye(len(region))
    ones = np.ones(len(region)) / np.sqrt(len(region))
    assert np.linalg.norm(shifted @ ones) > 1.0


def test_localized_kernel_is_the_alternating_hexagon():
    # derived by hand: the alternating +-1 cycle around the central hole
    # of a side-4 triangle solves (adjacency) f = -2 f and extends by zero
    vectors, region = localized_kernel_at_six(TriangleSpec(2))
    assert len(vectors) == 1
    vec = vectors[0]
    hexagon = [(2, 0), (1, 1), (0, 2), (1, 2), (2, 2), (2, 1)]
    support = np.flatnonzero(np.abs(vec) > 1e-12)
    assert np.array_equal(support, np.sort(region.locate(hexagon)))
    signs = list(np.sign(vec[region.locate(hexagon)]))
    assert signs == [signs[0], -signs[0]] * 3
    assert np.allclose(np.abs(vec[np.abs(vec) > 1e-12]), 1 / np.sqrt(6.0))


def test_containment_free_and_bernoulli():
    report = spectrum_containment_check(4, operators.constant(0.0), 1)
    assert report["containment_pass"]
    assert report["eigenvalue_max"] <= 6.0 + 1e-9
    report = spectrum_containment_check(4, bernoulli(0, 10, 0.5, seed=1), 1)
    assert report["containment_pass"]


def test_containment_interval_reports_delta():
    report = spectrum_containment_check(4, uniform(0.0, 1.0, seed=1), 2)
    assert report["containment_pass"]
    assert 0.0 <= report["proximity_delta"] <= 1.0


def test_containment_violation_equals_the_per_eigenvalue_loop():
    # the loop it replaced, kept as the oracle: 0 inside an allowed
    # interval, else the distance to the nearest end
    def loop(x, intervals):
        best = np.inf
        for lo, hi in intervals:
            if lo <= x <= hi:
                return 0.0
            best = min(best, abs(x - lo), abs(x - hi))
        return best

    for spec in (operators.constant(0.0), bernoulli(0.0, 10.0, 0.5, seed=1),
                 operators.table_cdf([(0.0, 0.3), (2.0, 0.6), (10.0, 1.0)]),
                 uniform(-3.0, 0.5, seed=2)):
        region = build_ball(4)
        evals = eigenvalues_dense(assemble(region, "simple",
                                           sample_potential(region, spec)))
        intervals, _ = verification._allowed_intervals(spec)
        # shifted copies put eigenvalues outside every interval, on both sides
        for values in (evals, evals - 0.75, evals + 3.25):
            got = verification.containment_violation(values, intervals)
            want = max(loop(x, intervals) for x in values)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def _dense_nearest(values, points):
    """The points x values matrix formula that nearest_distance replaced."""
    return np.min(np.abs(points[:, None] - values[None, :]), axis=1)


def test_nearest_distance_equals_the_dense_matrix_formula():
    rng = np.random.default_rng(7)
    values = np.sort(np.concatenate([rng.uniform(0.0, 6.0, 300), [2.0, 2.0, 5.0]]))
    # targets below the lowest and above the highest value, on values,
    # halfway between neighbours and at random
    points = np.concatenate([[-1e9, -3.0, values[0], values[-1], 7.5, 1e9],
                             values, (values[1:] + values[:-1]) / 2,
                             rng.uniform(-1.0, 7.0, 500)])
    for vals in (values, values[:1], values[-2:]):
        got = verification.nearest_distance(vals, points)
        assert got.tobytes() == _dense_nearest(vals, points).tobytes()


def test_containment_delta_and_set_distance_equal_the_dense_formulas():
    # the containment delta on its own targets
    spec, depth = uniform(0.0, 1.0, seed=1), 2
    region = build_ball(4)
    evals = eigenvalues_dense(assemble(region, "simple",
                                       sample_potential(region, spec)))
    free = decimation.free_spectrum_approx(depth, julia_samples=0).combinatorial()
    targets = (free[:, None] + np.linspace(0.0, 1.0, 21)[None, :]).ravel()
    assert targets.min() < evals[0] and targets.max() > evals[-1]
    report = spectrum_containment_check(4, spec, depth)
    assert report["proximity_delta"] == float(np.max(_dense_nearest(evals, targets)))
    # decimate --compare-dense: both directions of the set distance
    dense = eigenvalues_dense(operators.probabilistic_laplacian(build_triangle(3)))
    points = np.sort(-decimation.neumann_spectrum(3).points)
    gaps = np.abs(dense[:, None] - points[None, :])
    for got, want in ((verification.nearest_distance(points, dense),
                       np.min(gaps, axis=1)),
                      (verification.nearest_distance(dense, points),
                       np.min(gaps, axis=0))):
        assert got.tobytes() == want.tobytes()


def test_check_record_serialization():
    records = [CheckRecord("demo", "x", 1.0, 2.0),
               CheckRecord("demo", "y", 3.0, 2.0)]
    assert records[0].passed and not records[1].passed
    assert [r.to_dict()["passed"] for r in records] == [True, False]


# ---------------------------------------------------------------------------
# the hierarchical counter against the dense oracle

ORACLE_ENERGIES = np.arange(-1.0, 27.0)  # includes 2, 5, 6, 12 and 15
PROB_ENERGIES = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
ORACLE_POTENTIALS = {"constant": operators.constant(0.0),
                     "bernoulli": bernoulli(0.0, 10.0, 0.5, seed=3),
                     "uniform": uniform(0.0, 1.0, seed=4)}


def _oracle_regions(level):
    regions = {"full": build_triangle(level),
               "mirrored": build_triangle(TriangleSpec(level, mirrored=True)),
               "half": build_triangle(level, half_lattice=True),
               "ball": build_ball(level)}
    if level > 0:
        regions["truncated"] = build_triangle(TriangleSpec(level, truncated=True))
    return regions


@functools.lru_cache(maxsize=None)
def _oracle_operators(level):
    """(region kind, potential, boundary rule, operator, eigvalsh spectrum)
    of every oracle operator at one level; the count_below and band oracle
    tests share the solves."""
    cases = []
    for name, region in _oracle_regions(level).items():
        for law, spec in ORACLE_POTENTIALS.items():
            values = sample_potential(region, spec)
            for bc in operators.BOUNDARY_CONDITIONS:
                ham = assemble(region, bc, values)
                cases.append((name, law, bc, ham, eigenvalues_dense(ham)))
        ham = operators.probabilistic_laplacian(region)
        cases.append((name, "prob", "", ham, eigenvalues_dense(ham)))
    return cases


def _mismatches(ham, energies, values=None):
    """(E, array call, scalar call, dense) wherever the three disagree.  A
    built region is counted by the elimination alone, so reaching the band
    count fails."""
    if values is None:
        values = eigenvalues_dense(ham)
    dense = counts_from_eigenvalues(values, energies)

    def band(*_):
        raise AssertionError("count_below reached the band count")

    with mock.patch.object(spectra, "_tridiagonal", band):
        batch = count_below(ham, np.asarray(energies))
        single = [count_below(ham, e) for e in energies]
    return [(e, b, c, d) for e, b, c, d in zip(energies, batch, single, dense)
            if not b == c == d]


@pytest.mark.parametrize("level", range(7))
def test_count_below_matches_dense_on_every_region_kind(level):
    # at E = 2, 5, 6, 12 and 15 blocks of equal-potential cells are exactly
    # singular, and E = 4 is a double eigenvalue of the level-6 truncated
    # free Neumann triangle (dense count 457)
    bad = []
    for name, potential, bc, ham, values in _oracle_operators(level):
        energies = PROB_ENERGIES if potential == "prob" else ORACLE_ENERGIES
        bad += [(name, potential, bc, *m)
                for m in _mismatches(ham, energies, values)]
    assert bad == []


#: Potential atoms plus Neumann eigenvalues of small free triangles and the
#: integers 0..6: energies where sub-triangle blocks go singular.
TIE_ENERGIES = sorted({float(a + c) for a in (0.0, 10.0) for c in np.concatenate(
    [np.arange(7.0)] + [decimation.neumann_spectrum(k).combinatorial()
                        for k in range(1, 4)])})


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(level=st.integers(0, 4),
       kind=st.sampled_from(["full", "mirrored", "half", "ball", "truncated"]),
       bc=st.sampled_from(operators.BOUNDARY_CONDITIONS),
       seed=st.integers(0, 2**32 - 1),
       energies=st.lists(st.sampled_from(TIE_ENERGIES), min_size=1,
                         max_size=8))
def test_count_below_matches_dense_at_tie_energies(level, kind, bc, seed,
                                                   energies):
    assume(level > 0 or kind != "truncated")
    region = _oracle_regions(level)[kind]
    values = np.random.default_rng(seed).choice([0.0, 10.0], len(region))
    assert _mismatches(assemble(region, bc, values), energies) == []


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(level=st.integers(1, 4),
       kind=st.sampled_from(["full", "mirrored", "half", "ball", "truncated"]),
       seed=st.integers(0, 2**32 - 1),
       energies=st.lists(st.sampled_from(TIE_ENERGIES), min_size=1, max_size=8))
def test_boundary_rules_order_the_counts(level, kind, seed, energies):
    # neumann <= simple <= dirichlet as quadratic forms, so by min-max
    # N_dirichlet(E) <= N_simple(E) <= N_neumann(E), on the band and the
    # counter alike, with every count non-decreasing in E and in [0, n]
    region = _oracle_regions(level)[kind]
    values = np.random.default_rng(seed).choice([0.0, 10.0], len(region))
    hams = [assemble(region, bc, values) for bc in ("dirichlet", "simple", "neumann")]
    energies = np.sort(energies)
    for counts in (spectra.count_operators(region, hams.__getitem__, 3, energies),
                   count_below(hams, energies)):
        assert np.all(counts[:-1] <= counts[1:]), counts
        assert np.all(np.diff(counts, axis=1) >= 0), counts
        assert 0 <= counts.min() and counts.max() <= len(region)


# the band count of count_operators against eigvalsh

DENSE_ENERGIES = sorted(set(ORACLE_ENERGIES) | set(TIE_ENERGIES) | set(PROB_ENERGIES))


@pytest.mark.parametrize("level", range(1, 7))
def test_dense_counts_match_eigvalsh_on_every_region_kind(level):
    # at the tie energies whole clusters of eigenvalues sit exactly at E
    bad = [(name, potential, bc, e, b, d)
           for name, potential, bc, ham, values in _oracle_operators(level)
           for e, b, d in zip(DENSE_ENERGIES, _count(ham, DENSE_ENERGIES),
                              counts_from_eigenvalues(values, DENSE_ENERGIES))
           if b != d]
    assert bad == []


def test_dense_counts_match_eigvalsh_at_every_free_eigenvalue():
    # each energy is within 5e-10 of an eigenvalue, inside the tie guard
    free = [case for case in _oracle_operators(6) if case[1] in ("constant", "prob")]
    energies = np.unique(np.round(np.concatenate([c[4] for c in free]), 9))
    assert len(energies) > 1000
    bad = [(name, potential, bc, int(np.count_nonzero(b != d)))
           for name, potential, bc, ham, values in free
           for b, d in [(_count(ham, energies),
                         counts_from_eigenvalues(values, energies))]
           if np.any(b != d)]
    assert bad == []


@pytest.mark.parametrize("level", [0, 3, 6])
def test_dense_counts_reduce_a_ball_as_its_two_triangles(level):
    # each triangle is reduced on its own, with the origin, the one vertex
    # they share, as row 0 of both bands
    region = build_ball(level)
    ham = assemble(region, "simple",
                   sample_potential(region, uniform(0.0, 1.0, seed=5)))
    origin = ham.diagonal[region.locate([(0, 0)])[0]]
    assert np.count_nonzero(ham.diagonal == origin) == 1
    bands, reduce = [], spectra._tridiagonal

    def recording(band, *work):
        bands.append(band.copy())
        return reduce(band, *work)

    with mock.patch.object(spectra, "_tridiagonal", recording):
        _count(ham, [1.0])
    assert [b.shape[1] for b in bands] == [triangle_count(level)] * 2
    assert [b[-1, 0] for b in bands] == [origin] * 2


def test_dense_counts_refuse_a_reduction_that_moves_the_corner():
    # the join of a ball's two forms holds only while the origin's row is
    # never rotated
    region = build_ball(3)
    ham = assemble(region, "simple", np.zeros(len(region)))
    reduce = spectra._tridiagonal

    def moved(band, *work):
        d, e = reduce(band, *work)
        d[0] = np.nextafter(d[0], np.inf)
        return d, e

    with mock.patch.object(spectra, "_tridiagonal", moved):
        with pytest.raises(np.linalg.LinAlgError):
            _count(ham, [1.0])


@pytest.mark.parametrize("level", [3, 5])
def test_eigenvalues_dense_equal_eigvalsh_on_a_copy(level):
    # the in-place solve sees the same matrix as scipy's own copy: every
    # region kind, rule and law, and the probabilistic Laplacian
    from scipy import linalg

    bad = [(name, potential, bc)
           for name, potential, bc, ham, values in _oracle_operators(level)
           if values.tobytes() != linalg.eigvalsh(spectra.dense_array(ham)).tobytes()]
    assert bad == []


def test_eigenvalues_dense_hold_one_array():
    # scipy copies a C-ordered array before LAPACK overwrites it; the
    # solve in place holds the operator's one n x n array and its workspace
    import tracemalloc

    region = build_ball(5)
    ham = assemble(region, "simple", sample_potential(region, uniform(0.0, 1.0)))
    eigenvalues_dense(_simple_triangle())  # imports outside the trace
    tracemalloc.start()
    try:
        eigenvalues_dense(ham)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ham.dimension ** 2 * 8


def test_lapack_routines_come_from_numpy_with_one_integer_type():
    # every routine resolves on the LAPACK numpy.linalg links, all taking
    # one integer type; a routine it lacks is an ImportError naming it
    dtypes = {spectra._lapack(name, nargs)[1]
              for name, nargs in (("dsbtrd", 12), ("dlaebz", 20), ("dsyevr", 21))}
    assert len(dtypes) == 1 and dtypes <= {np.int64, np.intc}
    with pytest.raises(ImportError, match="dnosuch: tried scipy_dnosuch_64_"):
        spectra._lapack("dnosuch", 1)


def test_dense_solve_errors(monkeypatch):
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectra._eigvalsh(np.asfortranarray(np.diag([1.0, np.nan])))

    def fails(*args):  # INFO is the last argument
        ctypes.c_int64.from_address(args[-1]).value = 1

    monkeypatch.setattr(spectra, "_lapack", lambda name, nargs: (fails, np.int64))
    with pytest.raises(np.linalg.LinAlgError, match="dsyevr failed with INFO = 1"):
        eigenvalues_dense(_simple_triangle())


def _tree_bands(ham):
    """The band of each tree of the operator's region, in LAPACK storage."""
    region = ham.region
    return [spectra._sweep_band(ham, spectra._sweep(region, cells))[1]
            for cells in region.cells]


@pytest.mark.parametrize("level", range(1, 7))
def test_band_counts_equal_eigvals_banded_counts(level):
    # the Sturm count of each tree's band against every eigenvalue of the
    # same band, at the dense energies and at a tie on each of those
    # eigenvalues
    from scipy import linalg

    bad = []
    for name, potential, bc, ham, _ in _oracle_operators(level):
        for tree, band in enumerate(_tree_bands(ham)):
            values = linalg.eigvals_banded(band)
            energies = np.concatenate([DENSE_ENERGIES, values])
            counts = spectra._sturm_counts(*spectra._tridiagonal(band),
                                           energies + spectra.tie_guard(energies))
            if not np.array_equal(counts, counts_from_eigenvalues(values, energies)):
                bad.append((name, potential, bc, tree))
    assert bad == []


def test_band_counts_of_small_and_non_finite_bands():
    # a pivot exactly zero, at an eigenvalue of a diagonal, counts as <= s
    for band, shifted, expected in (
            (np.array([[3.0, -1.0, 2.5, -1.0]]),  # bandwidth 0
             [-1.5, -1.0, 0.0, 2.5, 3.0, 4.0], [0, 2, 2, 3, 4, 4]),
            (np.array([[7.0]]), [6.0, 7.0, 8.0], [0, 1, 1]),  # n = 1
            (np.array([[0.0], [-2.0]]),  # n = 1 in bandwidth-1 storage
             [-3.0, -2.0, 0.0], [0, 1, 1]),
            (np.array([[0.0, -1.0], [2.0, 2.0]]), [], [])):  # no energies
        counts = spectra._sturm_counts(*spectra._tridiagonal(band.copy()),
                                       np.array(shifted))
        assert counts.tolist() == expected
    with pytest.raises(ValueError):
        spectra._tridiagonal(np.array([[0.0, -1.0], [2.0, np.nan]]))


def test_band_solve_releases_the_interpreter_lock():
    # the main thread stamps the clock while a worker reduces the band of
    # a level-6 ball's tree and counts its tridiagonal form at many
    # energies; a step that held the lock would stall it for the whole of
    # that step
    region = build_ball(6)
    band = _tree_bands(assemble(region, "simple", np.zeros(len(region))))[0]
    energies = np.linspace(-1.0, 26.0, 8192)
    # load the bindings first
    spectra._sturm_counts(*spectra._tridiagonal(band.copy(order="F")), energies[:2])
    ratios = {"dsbtrd": [], "dlaebz": []}
    for _ in range(3):
        work, window = band.copy(order="F"), []

        def solve():
            window.append(time.perf_counter())
            d, e = spectra._tridiagonal(work)
            window.append(time.perf_counter())
            spectra._sturm_counts(d, e, energies)
            window.append(time.perf_counter())

        worker = threading.Thread(target=solve)
        # only gaps above 0.1 ms are kept, so the loop stores little
        gaps, last = [], time.perf_counter()
        deadline = last + 60.0
        worker.start()
        while worker.is_alive() and last < deadline:
            now = time.perf_counter()
            if now - last > 1e-4:
                gaps.append((last, now))
            last = now
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        for name, start, end in (("dsbtrd", *window[:2]), ("dlaebz", *window[1:])):
            longest = max((min(b, end) - max(a, start) for a, b in gaps), default=0.0)
            ratios[name].append(longest / (end - start))
    assert all(min(r) < 0.25 for r in ratios.values()), ratios


def test_delayed_pivots_match_dense_at_tie_energies(monkeypatch):
    # every count at the tie energies equals the eigvalsh count, with no
    # window left out around nearby eigenvalues; the cases delay pivots
    delayed = []
    merge = elimination._merge

    def recording(state, *args):
        rows, _, _, _ = state.delayed
        delayed.append(len(rows))
        return merge(state, *args)

    monkeypatch.setattr(elimination, "_merge", recording)
    energies = sorted(set(TIE_ENERGIES) | {12.0, 15.0})
    bad = [(level, name, potential, bc, *m)
           for level in (5, 6)
           for name, potential, bc, ham, values in _oracle_operators(level)
           if potential in ("constant", "bernoulli")
           for m in _mismatches(ham, energies, values)]
    assert bad == []
    assert sum(delayed) > 100


def test_count_below_separates_an_eigenvalue_from_a_pair_just_above():
    # 2e-10 below an eigenvalue, with a pair 5.6e-9 above it: both lie
    # within the pivot floor of the shift, and a count at a shift nudged
    # past the pair would give 84
    region = build_triangle(6)
    ham = assemble(region, "neumann", np.zeros(len(region)))
    assert count_below(ham, 0.637247428) == 82


def _recording_passes(monkeypatch):
    """The (operators, shifts) shape of each elimination pass, from now on."""
    passes, one_pass = [], elimination._pass

    def recording(cells, diag, weights, shift):
        passes.append(shift.shape)
        return one_pass(cells, diag, weights, shift)

    monkeypatch.setattr(elimination, "_pass", recording)
    return passes


def test_array_call_is_one_pass_like_scalar_calls(monkeypatch):
    # the ids-l8 operator (9843 rows): at 8 of the energies 0..26 some pivot
    # blocks are singular, and every energy the Gershgorin bounds leave
    # open still takes one elimination pass
    region = build_triangle(TriangleSpec(8), half_lattice=True)
    values = sample_potential(region, bernoulli(0.0, 10.0, 0.5, seed=0), 0)
    ham = assemble(region, "simple", values)
    energies = np.arange(27.0)
    single = [count_below(ham, e) for e in energies]
    passes = _recording_passes(monkeypatch)
    assert count_below(ham, energies).tolist() == single
    # every eigenvalue is at most 4 + 10 + 4 = 18 (Gershgorin), so the
    # energies 19..26 are counted n without a row of the pass
    assert passes == [(1, 19)]
    # the band counts 5850 up to 13 + 100 eta and 5851 from 13 + 1000 eta:
    # one eigenvalue lies between 1.4e-6 and 1.4e-5 above 13
    assert single[13] == 5850


def test_free_counts_at_five_and_six_keep_the_top_block_small(monkeypatch):
    # the localized eigenfunctions at E = 5 and 6 grow like 3^level; their
    # near-null directions are counted where they stop coupling, so at most
    # 3 delayed rows per energy reach the top block of a triangle (366
    # would at level 7 if they were all carried up)
    region = build_triangle(7)
    left = []
    eliminate = elimination._eliminate

    def recording(*args):
        state = eliminate(*args)
        if len(args) == 6:  # a whole tree, merged to its top triangle
            rows, _, _, _ = state.delayed
            left.append(np.bincount(rows).max(initial=0))
        return state

    monkeypatch.setattr(elimination, "_eliminate", recording)
    energies = [5.0, 6.0]
    for bc in operators.BOUNDARY_CONDITIONS:
        ham = assemble(region, bc, np.zeros(len(region)))
        assert count_below(ham, energies).tolist() == _count(ham, energies).tolist()
    assert len(left) == 3 and max(left) <= 3


def _gershgorin_bounds(ham):
    """The Gershgorin interval of the operator's pencil."""
    degree = ham.region.region_degree
    if not ham.symmetric:
        return 0.0, 2.0
    return (ham.diagonal - degree).min(), (ham.diagonal + degree).max()


@pytest.mark.parametrize("bc", [*operators.BOUNDARY_CONDITIONS, "prob"])
def test_counts_at_the_gershgorin_bounds_equal_the_band(bc, monkeypatch):
    # just inside, on and just outside each bound, by 1e-3 down to two tie
    # guards, and across the whole interval; the free Neumann operator has
    # its eigenvalue 0 on the lower bound
    region = build_triangle(4)
    passes = []
    one_pass = elimination._pass

    def recording(cells, diag, weights, shift):
        passes.append(shift)
        return one_pass(cells, diag, weights, shift)

    monkeypatch.setattr(elimination, "_pass", recording)
    if bc == "prob":
        hams = [operators.probabilistic_laplacian(region)]
    else:
        hams = [assemble(region, bc, values) for values in (
            np.zeros(len(region)),
            sample_potential(region, bernoulli(0.0, 10.0, 0.5, seed=2)))]
    # (one step of 1e-9 outside a bound would put E + eta on an eigenvalue
    # that lies on it, where no count is stable)
    steps = np.array([1e-3, 1e-6, 1e-8, 5e-9, 3e-9, 2e-9, 0.0])
    for ham in hams:
        lo, hi = _gershgorin_bounds(ham)
        energies = np.concatenate([lo + (1.0 + abs(lo)) * np.concatenate([-steps, steps]),
                                   hi + (1.0 + abs(hi)) * np.concatenate([-steps, steps]),
                                   np.linspace(lo - 1.0, hi + 1.0, 41)])
        passes.clear()
        counts = count_below(ham, energies)
        assert counts.tolist() == _count(ham, energies).tolist()
        assert counts.tolist() == [count_below(ham, e) for e in energies]
        # 1e-3 outside either bound is decided without elimination
        eliminated = np.concatenate([p.ravel() for p in passes])
        outside = [lo - 1e-3 * (1.0 + abs(lo)), hi + 1e-3 * (1.0 + abs(hi))]
        shifted = np.add(outside, spectra.tie_guard(np.array(outside)))
        assert not np.isin(shifted, eliminated).any()
        assert eliminated.size >= 14


def test_a_list_with_different_key_sets_counts_as_its_single_calls():
    # the first merge solves each operator's distinct blocks once: here 8,
    # 1, up to 27 and a few keys a call, padded to the most, under four
    # pivot floors; the tie energies delay pivots of repeated blocks
    region = build_triangle(7)
    table = operators.table_cdf([(0.0, 0.3), (1.0, 0.6), (10.0, 1.0)], seed=5)
    hams = [assemble(region, "simple",
                     sample_potential(region, bernoulli(0.0, 10.0, 0.5, seed=1))),
            assemble(region, "neumann", np.zeros(len(region))),
            assemble(region, "dirichlet", sample_potential(region, table)),
            operators.probabilistic_laplacian(region)]
    edges = np.concatenate([_gershgorin_bounds(ham) for ham in hams])
    energies = np.concatenate([[2.0, 5.0, 6.0, 12.0, 15.0, 16.0, 0.75, 1.25, 1.5],
                               edges])
    stacked = count_below(hams, energies)
    for ham, row in zip(hams, stacked):
        assert row.tolist() == count_below(ham, energies).tolist()
        assert row.tolist() == _count(ham, energies).tolist()


LIST_REGIONS = {"ball7": lambda: build_ball(7),
                "half8": lambda: build_triangle(8, half_lattice=True),
                "truncated5": lambda: build_triangle(TriangleSpec(5, truncated=True)),
                "mirrored5": lambda: build_triangle(TriangleSpec(5, mirrored=True))}


@pytest.mark.parametrize("kind", LIST_REGIONS)
def test_a_list_of_operators_counts_as_its_single_calls(kind):
    # 6563, 9843, 363 and 366 rows: three trials of each boundary rule are
    # rows of one pass, and each row equals the operator's own count
    region = LIST_REGIONS[kind]()
    energies = np.concatenate([np.arange(27.0), [0.3, 2.5, 17.999]])
    spec = bernoulli(0.0, 10.0, 0.5, seed=7)
    trials = [sample_potential(region, spec, t) for t in range(3)]
    for bc in operators.BOUNDARY_CONDITIONS:
        hams = [assemble(region, bc, values) for values in trials]
        single = np.array([count_below(ham, energies) for ham in hams])
        passes = []
        one_pass = elimination._pass

        def recording(cells, diag, weights, shift):
            passes.append(shift.shape)
            return one_pass(cells, diag, weights, shift)

        with mock.patch.object(elimination, "_pass", recording):
            stacked = count_below(hams, energies)
        assert np.array_equal(stacked, single)
        assert len(passes) == 1 and passes[0][0] == 3
    assert count_below(hams, 1.0).shape == (3, 1)
    with pytest.raises(ValidationError):
        count_below([hams[0], assemble(build_triangle(3), "simple", np.zeros(42))], 1.0)


def test_a_list_of_more_rows_than_a_pass_counts_as_its_single_calls(monkeypatch):
    # 120 operators (three rules and the probabilistic Laplacian) at the
    # 37 integer and half-integer energies in the Gershgorin interval
    # [0, 18] are more rows than a pass holds: the kernel cuts them into
    # passes of whole operators, and each row equals the operator's own
    # count and its dense count, tie energies included
    region = build_triangle(4)
    spec = bernoulli(0.0, 10.0, 0.5, seed=11)
    hams = [assemble(region, operators.BOUNDARY_CONDITIONS[t % 3],
                     sample_potential(region, spec, t)) for t in range(119)]
    hams.append(operators.probabilistic_laplacian(region))
    energies = np.arange(-4.0, 28.0, 0.5)
    single = [count_below(ham, energies).tolist() for ham in hams]
    passes = _recording_passes(monkeypatch)
    stacked = count_below(hams, energies)
    rows = elimination.BUDGET // 9
    assert passes == [(rows // 37, 37), (120 - rows // 37, 37)]
    assert stacked.tolist() == single
    assert stacked.tolist() == [
        counts_from_eigenvalues(eigenvalues_dense(ham), energies).tolist() for ham in hams]


def test_more_energies_than_a_pass_count_as_the_dense_counts(monkeypatch):
    # one operator at 4608 energies, every 1/256 of [0, 18), integers and
    # half-integers among them: the kernel cuts its shifts into passes
    region = build_triangle(2)
    ham = assemble(region, "simple",
                   sample_potential(region, bernoulli(0.0, 10.0, 0.5, seed=4)))
    energies = np.arange(0.0, 18.0, 1.0 / 256)
    passes = _recording_passes(monkeypatch)
    counts = count_below(ham, energies)
    rows = elimination.BUDGET // 9
    assert passes[0] == (1, rows) and len(passes) == 2 and passes[1][1] <= rows
    assert counts.tolist() == counts_from_eigenvalues(eigenvalues_dense(ham),
                                                      energies).tolist()


def test_an_empty_list_has_no_rows_of_counts():
    # as count_operators counts zero operators
    energies = np.arange(5.0)
    assert count_below([], energies).shape == (0, 5)
    assert count_below([], energies).dtype == np.int64
    assert count_below([], 1.0).shape == (0, 1)
    assert np.array_equal(count_below([], energies),
                          spectra.count_operators(build_triangle(1), None, 0, energies))
    with pytest.raises(ValidationError):
        count_below([], [np.nan])


# one call per structure: count_operators against per-operator counts

#: The laws each region kind's operators are sampled from: with the rules
#: rotated by kind, every (law, rule) pair is counted at every level.
ENTRY_LAWS = (bernoulli(0.0, 10.0, 0.5, seed=8), uniform(0.0, 1.0, seed=9),
              operators.table_cdf([(0.0, 0.3), (1.0, 0.6), (10.0, 1.0)], seed=10))


def _refuse(name):
    def refuse(*_):
        raise AssertionError(f"{name} reached")
    return refuse


@pytest.mark.parametrize("level", range(7))
def test_count_operators_equals_per_operator_counts(level, monkeypatch):
    # band-sized calls never reach the counter, counter-sized ones (with the
    # threshold at 0) never reach the band, and on 1, 2 and 3 trial threads
    # both give every operator's own count; level 6 keeps the two region
    # kinds of `ids`, whose band counts take most of the time
    energies = np.union1d(np.arange(-1.0, 27.0, 0.5), PROB_ENERGIES)
    regions = _oracle_regions(level)
    if level == 6:
        regions = {name: regions[name] for name in ("half", "ball")}
    for kind, (name, region) in enumerate(regions.items()):
        hams = [assemble(region, operators.BOUNDARY_CONDITIONS[(law + kind) % 3],
                         sample_potential(region, spec))
                for law, spec in enumerate(ENTRY_LAWS)]
        hams.append(operators.probabilistic_laplacian(region))
        single = np.array([_count(ham, energies) for ham in hams])
        threads = 1 + kind % 3
        cpus = set(range(threads))
        with monkeypatch.context() as patch:
            patch.setattr(spectra.os, "sched_getaffinity", lambda pid: cpus,
                          raising=False)
            patch.setattr(spectra, "count_below", _refuse("count_below"))
            patch.setattr(elimination, "negative_counts", _refuse("negative_counts"))
            band = spectra.count_operators(region, hams.__getitem__, len(hams),
                                           energies)
        with monkeypatch.context() as patch:
            patch.setattr(spectra.os, "sched_getaffinity", lambda pid: cpus,
                          raising=False)
            patch.setattr(spectra, "_tridiagonal", _refuse("_tridiagonal"))
            patch.setattr(spectra, "DENSE_THRESHOLD", 0)
            counter = spectra.count_operators(region, hams.__getitem__, len(hams),
                                              energies)
        assert band.tolist() == single.tolist(), (name, threads)
        assert counter.tolist() == single.tolist(), (name, threads)
    with pytest.raises(ValidationError):
        spectra.count_operators(build_triangle(1), lambda _: hams[0], 1, energies)


@pytest.mark.parametrize("kind", ["triangle", "ball"])
def test_band_counts_decided_by_the_bounds_equal_the_sturm_counts(kind, monkeypatch):
    # energies within a few tie guards of each operator's Gershgorin bounds,
    # on both sides of the two guards past which the band skips the Sturm
    # count: the skipped counts equal the counts of the form itself
    region = build_triangle(4) if kind == "triangle" else build_ball(4)
    hams = [assemble(region, bc, values)
            for bc in operators.BOUNDARY_CONDITIONS
            for values in (np.zeros(len(region)),
                           sample_potential(region, ENTRY_LAWS[0]))]
    hams.append(operators.probabilistic_laplacian(region))
    steps = np.linspace(-4.0, 4.0, 33)
    skipped = 0
    for ham in hams:
        lo, hi = _gershgorin_bounds(ham)
        energies = np.concatenate([lo + spectra.tie_guard(lo) * (steps - 1.0),
                                   hi + spectra.tie_guard(hi) * (steps + 1.0)])
        sturm = spectra._sturm_counts
        counted = []
        monkeypatch.setattr(spectra, "_sturm_counts", lambda d, e, s, *work: (
            counted.append(len(s)) or sturm(d, e, s, *work)))
        decided = _count(ham, energies)
        monkeypatch.setattr(spectra, "_gershgorin", lambda *args: (
            np.zeros(len(energies), dtype=bool),) * 2)
        every = _count(ham, energies)
        monkeypatch.undo()
        assert decided.tolist() == every.tolist()
        assert counted[0] < len(energies) == counted[1]
        skipped += len(energies) - counted[0]
    assert skipped >= 10 * len(hams)


@pytest.mark.parametrize("scale", [1e150, 1e155, 1e300])
def test_band_counts_of_a_huge_potential_equal_the_dense_counts(scale):
    # the Sturm count reads e^2, which would overflow past about 1e154
    for region in (build_triangle(3), build_ball(3)):
        values = sample_potential(region, uniform(0.0, 1.0, seed=0, scale=scale))
        ham = assemble(region, "simple", values)
        energies = np.linspace(-0.1, 1.1, 25) * scale
        assert (_count(ham, energies).tolist()
                == counts_from_eigenvalues(eigenvalues_dense(ham), energies).tolist())
