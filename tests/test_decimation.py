import math

import mpmath
import numpy as np
import pytest

from gasketlab import operators, spectra
from gasketlab.decimation import (BOTTOM, DEDUP_TOL, DecimationSpectrum, R,
                                  _preimages, branch_iteration_bounds,
                                  dirichlet_ground, f, free_spectrum_approx,
                                  iterate_f, iteration_sum, lower_branch,
                                  neumann_counts, neumann_gap, neumann_spectrum)
from gasketlab.errors import CapacityError, ValidationError
from gasketlab.lattice import TriangleSpec, build_triangle


def test_polynomial_values():
    assert R(0.0) == 0.0
    assert R(-0.75) == -1.5
    assert f(0.0) == 0.0


def test_branch_point_values():
    assert f(-0.75) == pytest.approx((-5.0 + math.sqrt(13.0)) / 8.0, abs=1e-15)
    assert f(-0.5) == pytest.approx((-5.0 + math.sqrt(17.0)) / 8.0, abs=1e-15)


def test_branch_inverse_identity():
    xs = np.linspace(-25.0 / 16.0, 0.0, 400)
    assert np.max(np.abs(R(f(xs)) - xs)) <= 1e-12
    assert np.max(np.abs(R(lower_branch(xs)) - xs)) <= 1e-12


def test_branch_monotone_and_domain():
    xs = np.linspace(-25.0 / 16.0, 0.0, 100)
    assert np.all(np.diff(f(xs)) > 0)
    with pytest.raises(ValidationError):
        f(-1.6)


def test_neumann_spectrum_base_level():
    points = neumann_spectrum(1).points
    assert np.allclose(points, [-1.5, -0.75, 0.0], atol=1e-15)


def test_neumann_spectrum_level_two_second_largest():
    spectrum = neumann_spectrum(2)
    assert spectrum.points[-2] == pytest.approx(f(-0.75), abs=1e-15)
    assert len(spectrum) == 6


def test_generation_roundtrip():
    # the generation is the minimal preimage depth over {0, -3/4}
    for level in (2, 3, 4, 5):
        spectrum = neumann_spectrum(level)
        for point, gen in zip(spectrum.points, spectrum.generations):
            if point == BOTTOM:
                continue
            orbit = [point]
            for _ in range(gen):
                orbit.append(R(orbit[-1]))
            at_base = [min(abs(y), abs(y + 0.75)) <= 1e-12 for y in orbit]
            assert at_base[-1] and not any(at_base[:-1]), (level, point, gen)


@pytest.mark.parametrize(
    "level", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
def test_neumann_counts_equal_dense_multiplicities(level):
    values, mult = neumann_counts(level)
    assert np.all(np.diff(values) > 0)
    assert np.array_equal(values, -neumann_spectrum(level).points[::-1])
    evals = spectra.eigenvalues_dense(
        operators.probabilistic_laplacian(build_triangle(level)))
    nearest = np.argmin(np.abs(evals[:, None] - values[None, :]), axis=1)
    assert np.max(np.abs(evals - values[nearest])) <= 1e-9
    assert np.array_equal(np.bincount(nearest, minlength=len(values)), mult)


def test_multiplicities_sum_to_the_vertex_count():
    for level in range(1, 15):
        assert neumann_counts(level)[1].sum() == (3 ** (level + 1) + 3) // 2


@pytest.mark.parametrize("level", [8, pytest.param(10, marks=pytest.mark.slow)])
def test_count_below_equals_exact_free_counts(level):
    # every distinct eigenvalue of the free probabilistic Laplacian is a
    # tie energy: at level 8, 384 of them, 3/2 with multiplicity 3282
    ham = operators.probabilistic_laplacian(build_triangle(level))
    values, mult = neumann_counts(level)
    assert np.array_equal(spectra.count_below(ham, values), np.cumsum(mult))


@pytest.mark.slow
def test_count_below_equals_exact_free_counts_at_level_12():
    # 797,163 rows; 3/2 has multiplicity 265,722.  The points are matched to
    # 1e-12: a loose match (np.isclose's default rtol) takes in neighbours
    ham = operators.probabilistic_laplacian(build_triangle(12))
    values, mult = neumann_counts(12)
    cumulative = np.cumsum(mult)
    targets = np.array([0.75, 1.25, 1.5])
    index = [np.flatnonzero(np.abs(values - x) <= 1e-12) for x in targets]
    assert all(len(i) == 1 for i in index)
    expected = cumulative[np.concatenate(index)]
    assert np.array_equal(spectra.count_below(ham, targets), expected)
    assert expected[-1] == ham.dimension


def test_points_live_in_the_normalized_band():
    for level in (1, 3, 5, 8):
        points = neumann_spectrum(level).points
        assert points.min() >= -1.5 - 1e-12 and points.max() <= 1e-12


def test_spectrum_matches_dense_sets():
    for level in (1, 2, 3):
        region = build_triangle(level)
        dense = spectra.eigenvalues_dense(
            operators.probabilistic_laplacian(region))
        points = np.sort(-neumann_spectrum(level).points)
        gaps = np.abs(dense[:, None] - points[None, :])
        hausdorff = max(np.max(np.min(gaps, axis=1)), np.max(np.min(gaps, axis=0)))
        assert hausdorff <= 1e-9


def test_neumann_gap_values_and_bounds():
    assert neumann_gap(1) == 0.75
    assert neumann_gap(2) == pytest.approx((5.0 - math.sqrt(13.0)) / 8.0, abs=1e-15)
    for level in range(1, 11):
        gap = neumann_gap(level)
        assert 15.0 / 4.0 * 5.0 ** (-level) <= gap <= 15.0 * 5.0 ** (-level)


def test_dirichlet_ground_values_and_bounds():
    assert dirichlet_ground(1) == 2.0
    assert dirichlet_ground(2) == pytest.approx((5.0 - math.sqrt(17.0)) / 2.0,
                                                abs=1e-15)
    for level in range(1, 11):
        value = dirichlet_ground(level)
        assert 10.0 * 5.0 ** (-level) <= value <= 40.0 * 5.0 ** (-level)


def test_decay_ratios_approach_one_fifth():
    for fn in (neumann_gap, dirichlet_ground):
        ratio = fn(11) / fn(10)
        assert abs(ratio - 0.2) <= 1e-6


def test_ground_formula_matches_dense():
    for level in (1, 2, 3):
        region = build_triangle(TriangleSpec(level, truncated=True))
        ham = operators.assemble(region, "simple", np.zeros(len(region)))
        dense = spectra.eigenvalues_dense(ham)[0]
        assert abs(dense - dirichlet_ground(level)) <= 1e-9


def test_iterate_f_matches_forty_digit_iteration():
    # the rationalized branch is stable: double precision holds to a few ulps
    for x in (-0.75, -0.5, -1.0, -1e-3):
        with mpmath.mp.workdps(40):
            y = mpmath.mpf(x)
            for n in range(61):
                assert iterate_f(x, n) == pytest.approx(float(y), rel=1e-14)
                y = 2 * y / (5 + mpmath.sqrt(25 + 16 * y))
    assert iterate_f(-0.75, 0) == -0.75


def test_iteration_sum():
    assert iteration_sum(1) == 1.0
    assert iteration_sum(60) <= 75.0 / 32.0
    assert iteration_sum(60) == pytest.approx(75.0 / 32.0, abs=1e-9)


def test_branch_iteration_bounds():
    report = branch_iteration_bounds(30, np.linspace(-1.0, 0.0, 100))
    assert report["passed"]
    base = branch_iteration_bounds(30, [-0.75])
    assert base["passed"]
    zero = branch_iteration_bounds(10, [0.0])
    assert zero["passed"] and zero["worst_upper_margin"] == 0.0
    with pytest.raises(ValidationError):
        branch_iteration_bounds(10, [-2.0])
    with pytest.raises(ValidationError):
        branch_iteration_bounds(61, [0.0])


def test_free_spectrum_depth_zero():
    comb = free_spectrum_approx(0, julia_samples=0).combinatorial()
    assert np.any(np.abs(comb - 6.0) <= 1e-12)
    assert np.any(np.abs(comb - 3.0) <= 1e-12)


def test_free_spectrum_stays_in_band():
    spectrum = free_spectrum_approx(3, julia_samples=2000, seed=1)
    comb = spectrum.combinatorial()
    assert comb.min() >= -1e-12 and comb.max() <= 6.0 + 1e-12
    again = free_spectrum_approx(3, julia_samples=2000, seed=1)
    assert np.array_equal(spectrum.points, again.points)


def test_free_spectrum_julia_orbits_draw_one_philox_stream():
    # the 40 steps read one contiguous stream keyed (seed, 1), as 40 calls
    # of random(julia_samples) on one numpy generator do
    n = 10_001
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 1], dtype=np.uint64)))
    z = np.full(n, BOTTOM)
    for _ in range(40):
        z = np.where(rng.random(n) < 0.5, f(z), lower_branch(z))
    layers = [np.array([-0.75])]
    for _ in range(3):
        layers.append(_preimages(layers[-1]))
    points = np.concatenate(layers + [[BOTTOM], z])
    gens = np.concatenate([np.full(len(x), g) for g, x in enumerate(layers)]
                          + [[0], np.full(n, -1)])
    order = np.argsort(points, kind="stable")
    points, gens = points[order], gens[order]
    keep = np.concatenate([[True], np.diff(points) > DEDUP_TOL])
    expected = DecimationSpectrum(points[keep], gens[keep])
    spectrum = free_spectrum_approx(3, julia_samples=n)
    assert spectrum.points.tobytes() == expected.points.tobytes()
    assert np.array_equal(spectrum.generations, expected.generations)


def test_free_spectrum_keeps_julia_points_apart_by_the_dedup_tolerance():
    # 16 explicit points and 2000 Julia samples, none within 1e-12 of
    # another: a coarser dedup (1e-9 keeps 1999, 1e-3 keeps 64) drops some
    spectrum = free_spectrum_approx(3, julia_samples=2000, seed=1)
    assert len(spectrum) == 2016
    assert np.count_nonzero(spectrum.generations == -1) == 2000
    assert np.all(np.diff(spectrum.points) > 1e-12)


def test_free_spectrum_rejects_a_negative_depth():
    with pytest.raises(ValidationError):
        free_spectrum_approx(-1, julia_samples=0)


def test_free_spectrum_points_near_ball_eigenvalues():
    # every explicit point should be close to a free-ball eigenvalue
    from gasketlab.lattice import build_ball

    ball = build_ball(6)
    ham = operators.assemble(ball, "simple", np.zeros(len(ball)))
    evals = spectra.eigenvalues_dense(ham)
    comb = free_spectrum_approx(3, julia_samples=0).combinatorial()
    delta = np.max(np.min(np.abs(comb[:, None] - evals[None, :]), axis=1))
    assert delta <= 0.1


def test_csv_export(tmp_path):
    spectrum = neumann_spectrum(2)
    path = tmp_path / "spectrum.csv"
    spectrum.to_csv(path, scale="comb")
    lines = path.read_text().splitlines()
    assert lines[0] == "value,generation,scale"
    assert len(lines) == 1 + len(spectrum)
    assert all(line.endswith(",comb") for line in lines[1:])
    with pytest.raises(ValidationError):
        spectrum.to_csv(path, scale="other")


def test_level_validation():
    with pytest.raises(ValidationError):
        neumann_spectrum(0)
    with pytest.raises(ValidationError):
        neumann_counts(0)
    with pytest.raises(ValidationError):
        neumann_gap(0)
    with pytest.raises(ValidationError):
        dirichlet_ground(0)
    with pytest.raises(ValidationError):
        free_spectrum_approx(-1)
    with pytest.raises(CapacityError):  # too large, not malformed
        free_spectrum_approx(21)
    for seed in (-1, 2**64):  # a generator key word is below 2^64
        with pytest.raises(ValidationError, match="seed"):
            free_spectrum_approx(1, seed=seed)
