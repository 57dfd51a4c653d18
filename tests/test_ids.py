import numpy as np
import pytest

from gasketlab import decimation, ids, lattice, operators, spectra
from gasketlab.errors import InsufficientDataError, ValidationError
from gasketlab.ids import (IdsCurve, bc_independence_report, estimate_ids,
                           exponential_tail_fit, free_ids_exponent,
                           lifshitz_fit, read_curve_csv, temple_check,
                           temple_lower_bound)
from gasketlab.lattice import build_ball, build_triangle
from gasketlab.operators import bernoulli, constant, uniform


def synthetic_curve(energies, means, trials=1):
    energies = np.asarray(energies, dtype=float)
    means = np.asarray(means, dtype=float)
    return IdsCurve(energies, means, np.zeros_like(means), trials, region_size=0)


def test_estimate_ids_monotone_and_bounded():
    spec = bernoulli(0, 10, 0.5, seed=1)
    grid = ids.global_grid(spec, 40)
    curve = estimate_ids(3, "simple", spec, 8, grid)
    assert np.all(np.diff(curve.mean_counts) >= -1e-15)
    assert curve.mean_counts.min() >= 0.0
    assert curve.mean_counts.max() <= 1.0
    assert np.all(curve.std_errors >= 0.0)
    assert curve.region_size == 42


def test_curve_saturates_above_the_row_sum_bound():
    spec = bernoulli(0, 10, 0.5, seed=2)
    _, hi = spec.support()
    curve = estimate_ids(3, "dirichlet", spec, 2, [16.0 + hi])
    assert curve.mean_counts[-1] == 1.0


def test_global_grid_covers_a_negative_potential():
    # the spectrum of -Laplacian + V starts at or above inf V
    spec = uniform(-5, -1, seed=4)
    grid = ids.global_grid(spec, 5)
    assert grid[0] == -5.0
    for bc in ("simple", "neumann", "dirichlet"):
        curve = estimate_ids(4, bc, spec, 2, grid)
        assert curve.mean_counts[0] == 0.0 and curve.mean_counts[-1] == 1.0
    # a support that starts at 0 or above keeps its grid from 0, and -0
    # is not below 0
    assert str(ids.global_grid(constant(-0.0), 3)[0]) == "0.0"


def test_a_huge_potential_curve_equals_the_dense_counts():
    # band counts of a potential past about 1e154 must not overflow
    spec = uniform(0.0, 1.0, seed=0, scale=1e200)
    grid = ids.global_grid(spec, 5)
    curve = estimate_ids(3, "simple", spec, 2, grid, region_kind="full")
    region = build_ball(3)
    dense = [spectra.counts_from_eigenvalues(spectra.eigenvalues_dense(
        operators.assemble(region, "simple", operators.sample_potential(region, spec, t))),
        grid) for t in range(2)]
    assert curve.mean_counts.tolist() == (np.array(dense) / len(region)).mean(axis=0).tolist()


def test_free_curve_jumps_inside_the_scale_band():
    # combinatorial Neumann eigenvalues sit within [2s, 4s] of the
    # degree-normalized decimation values, index by index
    region = build_triangle(3)
    comb = spectra.eigenvalues_dense(
        operators.assemble(region, "neumann", np.zeros(len(region))))
    prob = spectra.eigenvalues_dense(operators.probabilistic_laplacian(region))
    ratio = comb[1:] / prob[1:]
    assert ratio.min() >= 2.0 - 1e-9 and ratio.max() <= 4.0 + 1e-9
    # and the curve only jumps at those eigenvalues
    curve = estimate_ids(3, "neumann", constant(0.0), 1,
                         np.linspace(0, 8, 200))
    jumps = curve.energies[np.nonzero(np.diff(curve.mean_counts))[0]]
    for e in jumps:
        assert np.min(np.abs(comb - e)) <= 8.0 / 199


def test_half_and_full_regions():
    spec = uniform(0, 1, seed=3)
    grid = ids.global_grid(spec, 24)
    half = estimate_ids(3, "neumann", spec, 4, grid, region_kind="half")
    full = estimate_ids(3, "neumann", spec, 4, grid, region_kind="full")
    assert half.region_size == 42
    assert full.region_size == 83
    bound = 1.0 / half.region_size + 4.0 * (half.std_errors + full.std_errors)
    assert np.all(np.abs(half.mean_counts - full.mean_counts) <= bound + 1e-12)
    with pytest.raises(ValidationError):
        estimate_ids(3, "neumann", spec, 4, grid, region_kind="other")


def test_threaded_estimate_matches_serial(monkeypatch):
    # the level-5 ball counts by band solves that run side by side, one
    # trial thread per CPU of the affinity mask
    for level, kind, seed in ((3, "half", 4), (5, "full", 5)):
        spec = bernoulli(0, 10, 0.5, seed=seed)
        grid = ids.global_grid(spec, 16)
        curves = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(spectra.os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus, raising=False)
            curves.append(estimate_ids(level, "simple", spec, 6, grid,
                                       region_kind=kind))
        serial, threaded = curves
        assert np.array_equal(serial.mean_counts, threaded.mean_counts)
        assert np.array_equal(serial.std_errors, threaded.std_errors)


def test_trial_threads_default_to_the_cpus_the_process_may_use(monkeypatch):
    # under taskset -c 0 on a 2-core machine the affinity mask holds 1 CPU;
    # without a mask the trial threads are the CPU count, and never more
    # than the operators
    pools = []

    class Recording(spectra.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(spectra, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(spectra.os, "cpu_count", lambda: 2)
    region = build_triangle(2)
    ham = operators.assemble(region, "simple", np.zeros(len(region)))
    for cpus, count in (({0}, 3), ({0, 1, 2}, 3), ({0, 1, 2}, 2)):
        monkeypatch.setattr(spectra.os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        spectra.count_operators(region, lambda _: ham, count, [1.0])
    monkeypatch.delattr(spectra.os, "sched_getaffinity")
    spectra.count_operators(region, lambda _: ham, 3, [1.0])
    assert pools == [1, 3, 2, 2]


def test_convergence_between_levels():
    # curves at successive sizes stay uniformly close at desk scale
    spec = bernoulli(0, 10, 0.5, seed=3)
    grid = ids.global_grid(spec, 64)
    c5 = estimate_ids(5, "simple", spec, 32, grid)
    c6 = estimate_ids(6, "simple", spec, 32, grid)
    assert float(np.max(np.abs(c5.mean_counts - c6.mean_counts))) <= 0.02


def test_doubling_trials_shrinks_std_errors():
    ratios = []
    for rep in range(10):
        spec = bernoulli(0, 10, 0.5, seed=100 + rep)
        grid = ids.global_grid(spec, 16)
        base = estimate_ids(3, "neumann", spec, 8, grid)
        double = estimate_ids(3, "neumann", spec, 16, grid)
        mask = base.std_errors > 0
        ratios.append(float(np.mean(double.std_errors[mask])
                            / np.mean(base.std_errors[mask])))
    assert abs(np.mean(ratios) - 0.5) <= 0.3


def test_bc_independence_report():
    spec = uniform(0, 1, seed=5)
    report = bc_independence_report(4, spec, 6, ids.global_grid(spec, 32))
    assert report["passed"]
    assert len(report["pairs"]) == 3


def test_truncated_potential_cap():
    # the bound is half the mean of the half potential capped at
    # (c0/3) 5^-level, which is 0.1 at level 2
    assert temple_lower_bound(3, np.zeros(5)) == (0.0, True)
    value, hypothesis_ok = temple_lower_bound(2, np.array([100.0]))
    assert value == pytest.approx(0.05) and not hypothesis_ok
    value, hypothesis_ok = temple_lower_bound(2, np.array([1e-4]))
    assert value == pytest.approx(2.5e-5) and hypothesis_ok


def test_temple_bound_trivia():
    assert temple_lower_bound(3, np.zeros(42)) == (0.0, True)
    value, hypothesis_ok = temple_lower_bound(2, np.full(15, 100.0))
    assert not hypothesis_ok
    assert value == pytest.approx(0.05)


def test_temple_bound_below_dense_ground_state():
    for spec, trials in [(uniform(0, 1, seed=6), 20),
                         (bernoulli(0, 10, 0.5, seed=7), 20)]:
        for level in (2, 3):
            for trial in range(trials):
                report = temple_check(level, spec, trial)
                assert report["passed"], report


def test_lifshitz_fit_exact_synthetic():
    tau = ids.TAU
    energies = np.geomspace(1e-4, 1e-1, 60)
    curve = synthetic_curve(energies, np.exp(-energies ** -tau))
    fit = lifshitz_fit(curve, (1e-4, 1e-1))
    assert abs(fit.slope + tau) <= 1e-6
    assert fit.r_squared >= 1.0 - 1e-9


def test_lifshitz_fit_with_prefactor_offset():
    energies = np.geomspace(1e-3, 1e-1, 40)
    curve = synthetic_curve(energies, np.exp(-2.0 * energies ** -0.5))
    fit = lifshitz_fit(curve, (1e-3, 1e-1))
    assert abs(fit.slope + 0.5) <= 0.02


def test_lifshitz_fit_insufficient_data():
    energies = np.geomspace(1e-3, 1e-1, 30)
    curve = synthetic_curve(energies, np.zeros(30))
    with pytest.raises(InsufficientDataError):
        lifshitz_fit(curve, (1e-3, 1e-1))
    # every fit takes log E or E^-tau, so a window needs 0 < lo < hi
    for fit in (lifshitz_fit, free_ids_exponent, exponential_tail_fit):
        for window in ((1.0, 0.1), (0.0, 0.1)):
            with pytest.raises(ValidationError):
                fit(curve, window)


def test_a_curve_of_no_trials_is_refused_by_every_fit():
    # its minimum-count floor would divide by the trials
    energies = np.geomspace(1e-3, 1e-1, 30)
    for size in (0, 42):
        curve = IdsCurve(energies, energies, np.zeros(30), trials=0, region_size=size)
        for fit in (lifshitz_fit, free_ids_exponent, exponential_tail_fit):
            with pytest.raises(ValidationError, match="at least 1 trial, got 0"):
                fit(curve, (1e-3, 1e-1))


def test_power_law_fit_exact_synthetic():
    tau = ids.TAU
    energies = np.geomspace(1e-4, 1e-1, 50)
    curve = synthetic_curve(energies, 0.135 * energies ** tau)
    fit = free_ids_exponent(curve, (1e-4, 1e-1))
    assert abs(fit.slope - tau) <= 1e-12
    assert fit.prefactor == pytest.approx(0.135, rel=1e-12)


def test_power_law_fit_window_outside_support():
    energies = np.geomspace(1e-4, 1e-1, 50)
    curve = synthetic_curve(energies, 0.135 * energies ** ids.TAU)
    with pytest.raises(InsufficientDataError):
        free_ids_exponent(curve, (10.0, 20.0))


def test_exponential_tail_fit_recovers_parameters():
    tau = ids.TAU
    energies = np.geomspace(5e-2, 1.0, 30)
    curve = synthetic_curve(energies, np.exp(1.4 - 4.6 * energies ** -tau))
    rep = exponential_tail_fit(curve, (5e-2, 1.0))
    assert rep["m1"] == pytest.approx(1.4, abs=1e-9)
    assert rep["m2"] == pytest.approx(-4.6, abs=1e-9)


def test_min_usable_count_excludes_rare_points():
    energies = np.geomspace(1e-3, 1e-1, 30)
    means = np.full(30, 1e-9)
    curve = IdsCurve(energies, means, np.zeros(30), trials=2, region_size=42)
    # 1e-9 < 3/(2*42): every point is excluded
    with pytest.raises(InsufficientDataError):
        lifshitz_fit(curve, (1e-3, 1e-1))


def test_curve_csv_roundtrip(tmp_path):
    spec = bernoulli(0, 10, 0.5, seed=8)
    curve = estimate_ids(2, "simple", spec, 3, ids.global_grid(spec, 10))
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    loaded = read_curve_csv(path)
    assert np.array_equal(loaded.energies, curve.energies)
    assert np.array_equal(loaded.mean_counts, curve.mean_counts)
    assert np.array_equal(loaded.std_errors, curve.std_errors)
    assert loaded.trials == 3


def test_curve_sidecar_counts_the_region_without_building_it(tmp_path, monkeypatch):
    sizes = {(3, "half"): len(build_triangle(3)), (3, "full"): len(build_ball(3))}

    def refuse(*args, **kwargs):
        raise AssertionError("read_curve_csv built a region")

    for module in (ids, lattice):
        monkeypatch.setattr(module, "build_triangle", refuse)
        monkeypatch.setattr(module, "build_ball", refuse)
    path = tmp_path / "r.curve.csv"
    path.write_text("E,mean,stderr,trials\n0.5,0.25,0.01,8\n")

    def region_size(level, kind):
        (tmp_path / "r.config").write_text(
            f"bc=simple\ncommand=ids\nlevel={level}\nregion={kind}\ntrials=8\n")
        return read_curve_csv(path).region_size

    assert region_size(12, "half") == 797163
    for (level, kind), size in sizes.items():
        assert region_size(level, kind) == size
    with pytest.raises(ValidationError):
        region_size(3, "ball")
