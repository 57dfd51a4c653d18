import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gasketlab import decimation, operators, spectra
from gasketlab.errors import CapacityError, ValidationError
from gasketlab.lattice import TriangleSpec, build_ball, build_triangle
from gasketlab.operators import assemble, bernoulli, sample_potential, uniform
from gasketlab.spectra import (CheckRecord, compact_eigenfunction_at_six,
                               count_below, counting_curve,
                               counts_from_eigenvalues, eigenvalues_dense,
                               localized_kernel_at_six, records_to_json,
                               spectrum_containment_check,
                               verify_counting_bounds,
                               verify_interlacing_bounds,
                               verify_psd_product_bounds,
                               zero_extension_residual)


def test_dense_fixture():
    assert np.allclose(eigenvalues_dense(np.diag([3.0, 1.0, 2.0])),
                       [1.0, 2.0, 3.0])
    region = build_triangle(2)
    free = assemble(region, "simple", np.zeros(len(region)))
    assert np.array_equal(eigenvalues_dense(operators.laplacian(region, "simple")),
                          eigenvalues_dense(free))
    with pytest.raises(ValidationError):
        eigenvalues_dense(np.ones((2, 3)))


def test_dense_threshold_capacity():
    with pytest.raises(CapacityError):
        eigenvalues_dense(np.eye(5), threshold=4)


def test_dense_probabilistic_symmetrization():
    region = build_triangle(2)
    ham = operators.probabilistic_laplacian(region)
    sym = eigenvalues_dense(ham)
    direct = np.sort(np.linalg.eigvals(ham.matrix.toarray()).real)
    assert np.allclose(sym, direct, atol=1e-9)


def test_count_below_fixture():
    diag = np.diag([1.0, 2.0, 3.0])
    assert count_below(diag, 2.5) == 2
    assert count_below(diag, 2.0) == 2  # ties count as below
    assert count_below(diag, 0.0) == 0
    assert count_below(diag, 3.0) == 3
    assert type(count_below(diag, 2.5)) is int
    assert count_below(diag, [0.0, 2.0, 2.5, 3.0]).tolist() == [0, 2, 2, 3]
    for bad in ([[1.0]], np.nan, [1.0, np.inf]):
        with pytest.raises(ValidationError):
            count_below(diag, bad)


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


def test_count_below_near_tie_retries():
    # E + eta lands within pivot tolerance of an eigenvalue
    eta = spectra.tie_guard(1.0)
    diag = np.diag([1.0 + eta, 2.0])
    assert count_below(diag, 1.0) in (0, 1)
    assert count_below(diag, 1.5) == 1


def test_counting_curve_methods_agree():
    region = build_triangle(5)  # 366 vertices
    values = sample_potential(region, uniform(0, 1, seed=2))
    ham = assemble(region, "simple", values)
    grid = np.linspace(-0.5, 9.5, 100)
    dense = counting_curve(ham, grid, method="dense")
    inertia = counting_curve(ham, grid, method="inertia")
    assert np.array_equal(dense.counts, inertia.counts)
    assert np.all(np.diff(dense.counts) >= 0)
    assert dense.counts[-1] == len(region)
    assert dense.counts[0] == 0


def test_counting_curve_auto_switches():
    region = build_triangle(3)
    ham = assemble(region, "neumann", np.zeros(len(region)))
    small = counting_curve(ham, [1.0], threshold=10, method="auto")
    big = counting_curve(ham, [1.0], threshold=4096, method="auto")
    assert small.counts[0] == big.counts[0]


def test_counting_curve_csv(tmp_path):
    curve = counting_curve(np.diag([1.0, 2.0]), [0.5, 1.5, 2.5])
    path = tmp_path / "counts.csv"
    curve.to_csv(path)
    assert path.read_text().splitlines() == ["E,count", "0.5,0", "1.5,1", "2.5,2"]


def test_verify_counting_bounds_pass():
    spec = bernoulli(0.0, 10.0, 0.5, seed=17)
    grid = np.linspace(0.0, 26.0, 40)
    records = verify_counting_bounds(3, spec, 3, grid)
    assert records and all(r.passed for r in records)
    pair_ids = {r.check_id for r in records}
    assert pair_ids == {"bc-pair", "triple-split"}


def test_verify_interlacing_bounds_pass():
    records = verify_interlacing_bounds(50, 10, seed=1)
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
    records = verify_psd_product_bounds(40, 20, seed=2)
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
    shifted = operators.laplacian(region, "simple") - 6.0 * np.eye(len(region))
    for vec in basis[:3]:
        assert np.linalg.norm(shifted @ vec) <= 1e-8
        assert zero_extension_residual(3, vec) <= 1e-8
    # orthonormal family
    gram = np.array([[a @ b for a in basis] for b in basis])
    assert np.allclose(gram, np.eye(len(basis)), atol=1e-10)


def test_constant_vector_is_not_in_the_kernel():
    region = build_ball(3)
    shifted = operators.laplacian(region, "simple") - 6.0 * np.eye(len(region))
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


def test_check_record_serialization(tmp_path):
    records = [CheckRecord("demo", "x", 1.0, 2.0),
               CheckRecord("demo", "y", 3.0, 2.0)]
    assert records[0].passed and not records[1].passed
    path = tmp_path / "records.json"
    records_to_json(records, path)
    loaded = json.loads(path.read_text())
    assert loaded[0]["passed"] is True
    assert loaded[1]["passed"] is False


# ---------------------------------------------------------------------------
# the hierarchical counter against the dense oracle

ORACLE_ENERGIES = np.arange(-1.0, 27.0)  # includes 2, 5, 6, 12 and 15
PROB_ENERGIES = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
ORACLE_POTENTIALS = (operators.constant(0.0), bernoulli(0.0, 10.0, 0.5, seed=3),
                     uniform(0.0, 1.0, seed=4))


def _oracle_regions(level):
    regions = {"full": build_triangle(level),
               "mirrored": build_triangle(TriangleSpec(level, mirrored=True)),
               "half": build_triangle(level, half_lattice=True),
               "ball": build_ball(level)}
    if level > 0:
        regions["truncated"] = build_triangle(TriangleSpec(level, truncated=True))
    return regions


def _mismatches(ham, energies):
    """(E, array call, scalar call, dense) wherever the three disagree.  The
    dense counts that breakdowns fall back on reuse the oracle's solve."""
    values = eigenvalues_dense(ham)
    dense = counts_from_eigenvalues(values, energies)
    with mock.patch.object(spectra, "eigenvalues_dense", lambda _: values):
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
    for name, region in _oracle_regions(level).items():
        for spec in ORACLE_POTENTIALS:
            values = sample_potential(region, spec)
            for bc in operators.BOUNDARY_CONDITIONS:
                bad += [(name, spec.distribution[0], bc, *m) for m in
                        _mismatches(assemble(region, bc, values),
                                    ORACLE_ENERGIES)]
        bad += [(name, "prob", *m) for m in _mismatches(
            operators.probabilistic_laplacian(region), PROB_ENERGIES)]
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


def test_shift_ladder_matches_dense_away_from_nearby_eigenvalues(monkeypatch):
    # with DENSE_THRESHOLD at 0 every breakdown walks the shift ladder (the
    # oracle's eigenvalues_dense keeps its own default threshold); the
    # ladder may count eigenvalues up to 1e-5 (1 + |E|) above E, so the
    # energies with one there are left out
    monkeypatch.setattr(spectra, "DENSE_THRESHOLD", 0)
    broken = []
    negative_counts = spectra._negative_counts

    def recording(cells, diag, weights, shift):
        counts, flags = negative_counts(cells, diag, weights, shift)
        broken.append(np.count_nonzero(flags))
        return counts, flags

    monkeypatch.setattr(spectra, "_negative_counts", recording)
    energies = np.array(sorted(set(TIE_ENERGIES) | {12.0, 15.0}))
    reach = energies + 1e-5 * (1.0 + np.abs(energies))
    bad = []
    for level in (5, 6):
        for name, region in _oracle_regions(level).items():
            for spec in ORACLE_POTENTIALS[:2]:
                values = sample_potential(region, spec)
                for bc in operators.BOUNDARY_CONDITIONS:
                    ham = assemble(region, bc, values)
                    spectrum = eigenvalues_dense(ham)
                    dense = counts_from_eigenvalues(spectrum, energies)
                    clear = np.searchsorted(spectrum, reach, side="right") == dense
                    ladder = count_below(ham, energies)
                    bad += [(level, name, spec.distribution[0], bc, e, c, d)
                            for e, c, d in zip(energies[clear], ladder[clear],
                                               dense[clear]) if c != d]
    assert bad == []
    assert sum(broken) > 100


def test_breakdown_counts_densely_below_the_dense_threshold():
    # 2e-10 below an eigenvalue, with a pair 5.6e-9 above it: the pivot
    # floor breaks the elimination, and a shifted retry would count the
    # pair as well (84)
    region = build_triangle(6)
    ham = assemble(region, "neumann", np.zeros(len(region)))
    assert count_below(ham, 0.637247428) == 82


def test_array_call_walks_the_retry_ladder_like_scalar_calls(monkeypatch):
    # the ids-l8 operator (9843 rows, above DENSE_THRESHOLD): at E = 5 and
    # 15 equal-potential blocks break down, and only those energies are
    # counted again at the next shift
    region = build_triangle(TriangleSpec(8), half_lattice=True)
    values = sample_potential(region, bernoulli(0.0, 10.0, 0.5, seed=0), 0)
    ham = assemble(region, "simple", values)
    energies = np.array([4.5, 5.0, 15.0])
    single = [count_below(ham, e) for e in energies]
    shifts = []
    negative_counts = spectra._negative_counts

    def recording(cells, diag, weights, shift):
        shifts.append(shift)
        return negative_counts(cells, diag, weights, shift)

    monkeypatch.setattr(spectra, "_negative_counts", recording)
    assert count_below(ham, energies).tolist() == single
    assert len(shifts) > 1 and len(shifts[1]) < len(energies)
