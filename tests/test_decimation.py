import math

import numpy as np
import pytest

from gasketlab import operators, spectra
from gasketlab.decimation import (R, branch_iteration_bounds, dirichlet_ground,
                                  f, free_spectrum_approx, iterate_f,
                                  iteration_sum, lower_branch, neumann_gap,
                                  neumann_spectrum)
from gasketlab.errors import ValidationError
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
    for level in (2, 3, 4, 5):
        spectrum = neumann_spectrum(level)
        for point, gen in zip(spectrum.points, spectrum.generations):
            if abs(point + 1.5) <= 1e-12:
                continue
            y = point
            for _ in range(gen):
                y = R(y)
            assert min(abs(y), abs(y + 0.75)) <= 1e-12


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


def test_high_precision_iteration_agrees_with_double():
    # the rationalized branch is stable, so both paths should agree closely
    for x in (-0.75, -0.5, -1.0):
        low = x
        for _ in range(15):
            low = f(low)
        assert iterate_f(x, 15) == pytest.approx(low, rel=1e-12)
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
        neumann_gap(0)
    with pytest.raises(ValidationError):
        dirichlet_ground(0)
    with pytest.raises(ValidationError):
        free_spectrum_approx(21)
