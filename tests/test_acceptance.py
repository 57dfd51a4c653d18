"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them).  Two criteria are implemented exactly as stated but are known to be
unattainable at desk scale for quantitative reasons explained at the test
sites; they are marked strict-xfail so an unexpected pass is flagged.
"""

import time

import numpy as np
import pytest

from gasketlab import decimation, ids, operators, spectra, verification
from gasketlab.cli import main as cli_main
from gasketlab.errors import InsufficientDataError
from gasketlab.lattice import (TriangleSpec, ball_count, build_ball,
                               build_triangle, triangle_count)
from gasketlab.operators import assemble, bernoulli, constant, uniform

TAU = ids.TAU


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    return passed


def test_criterion_01_vertex_count_identity():
    start = time.time()
    ok = True
    for level in range(9):
        region = build_triangle(level)
        ok &= len(region) == (3 ** (level + 1) + 3) // 2 == triangle_count(level)
        ball = build_ball(level)
        ok &= len(ball) == 2 * triangle_count(level) - 1 == ball_count(level)
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    assert report("1 (vertex counts)", ok, f"runtime {elapsed:.2f}s")


def test_criterion_02_decimation_vs_dense():
    start = time.time()
    worst_set = 0.0
    worst_ground = 0.0
    discrepancies = []
    for level in range(1, 6):
        region = build_triangle(level)
        dense = spectra.eigenvalues_dense(
            operators.probabilistic_laplacian(region))
        points = np.sort(-decimation.neumann_spectrum(level).points)
        gaps = np.abs(dense[:, None] - points[None, :])
        hausdorff = max(float(np.max(np.min(gaps, axis=1))),
                        float(np.max(np.min(gaps, axis=0))))
        worst_set = max(worst_set, hausdorff)
        if hausdorff > 1e-9:
            discrepancies.append((level, hausdorff))
        trunc = build_triangle(TriangleSpec(level, truncated=True))
        ground = spectra.eigenvalues_dense(
            assemble(trunc, "simple", np.zeros(len(trunc))))[0]
        worst_ground = max(worst_ground,
                           abs(ground - decimation.dirichlet_ground(level)))
    exact_base = decimation.dirichlet_ground(1) == 2.0
    elapsed = time.time() - start
    ok = (worst_set <= 1e-9 and worst_ground <= 1e-9 and exact_base
          and elapsed < 120.0 and not discrepancies)
    assert report("2 (decimation vs dense)", ok,
                  f"set dist {worst_set:.2e}, ground dev {worst_ground:.2e}, "
                  f"discrepancies {discrepancies}, runtime {elapsed:.1f}s")


def test_criterion_03_gap_and_ground_constants():
    records = verification.decay_suite(max_level=10)
    failed = [r for r in records if not r.passed]
    assert report("3 (5^-level decay constants)", not failed,
                  f"{len(records)} checks, failures {[r.instance for r in failed]}")


def test_criterion_04_counting_bound_suite():
    start = time.time()
    records = verification.counting_suite(
        levels=(2, 3, 4, 5, 6), seeds=20, grid_points=64)
    failed = [r for r in records if not r.passed]
    elapsed = time.time() - start
    ok = not failed and elapsed < 600.0
    worst_pair = max(r.deviation for r in records if r.check_id == "bc-pair")
    worst_triple = max(r.deviation for r in records
                       if r.check_id == "triple-split")
    assert report("4 (counting bounds 9 and 30)", ok,
                  f"{len(records)} checks, max pair dev {worst_pair:.0f}, "
                  f"max split dev {worst_triple:.0f}, runtime {elapsed:.0f}s")


def test_criterion_05_temple_bound():
    distributions = verification.default_distributions(seed=0)
    violations = []
    for name, spec in distributions.items():
        for level in (2, 3, 4):
            for trial in range(100):
                rep = ids.temple_check(level, spec, trial)
                if not rep["passed"]:
                    violations.append((name, level, trial))
    assert report("5 (Temple lower bound)", not violations,
                  f"900 instances, violations {violations}")


def test_criterion_06_matrix_inequality_suites():
    start = time.time()
    records = []
    records += verification.interlacing_suite(dim=60, trials=200, seed=0)
    records += verification.psd_suite(dim=40, trials=100, seed=0)
    records += verification.branch_suite(n=30, samples=100)
    failed = [r for r in records if not r.passed]
    elapsed = time.time() - start
    structured = sum(r.check_id in ("subspace-upper", "subspace-lower")
                     for r in records)
    ok = not failed and structured >= 200 and elapsed < 300.0
    assert report("6 (interlacing / subspace / product / iteration)", ok,
                  f"{len(records)} checks, runtime {elapsed:.0f}s")


def test_criterion_07_compact_eigenfunctions_at_six():
    results = []
    for level in (3, 4, 5):
        basis = verification.compact_eigenfunction_at_six(level)
        nonempty = len(basis) >= 1
        residual = max(verification.zero_extension_residual(level, v)
                       for v in basis[:3]) if basis else np.inf
        translated = verification.translated_kernel_residual(level)
        results.append((level, len(basis), residual, translated))
    ok = all(dim >= 1 and res <= 1e-8 and tr <= 1e-8
             for _, dim, res, tr in results)
    assert report("7 (compact eigenfunctions at 6)", ok,
                  "; ".join(f"L={lv}: dim {d}, residual {r:.1e}, "
                            f"translated {t:.1e}" for lv, d, r, t in results))


def test_criterion_08_containment_bernoulli():
    rep = verification.spectrum_containment_check(
        6, bernoulli(0.0, 10.0, 0.5, seed=0), 3)
    ok = rep["containment_pass"]
    assert report("8a (containment, 0-10 potential)", ok,
                  f"max violation {rep['containment_max_violation']:.2e}")


@pytest.mark.xfail(
    strict=True,
    reason="finite-volume floor: with a Uniform(0,1) potential the lowest "
    "sampled eigenvalue on the level-6 ball is ~0.33-0.40 across seeds, "
    "while the depth-3 point set reaches down to 0.029; reaching within "
    "0.2 of it would need an eigenvalue below 0.23, whose probability is "
    "suppressed exponentially (the tail phenomenon itself), so delta is "
    "~0.33-0.40 and the stated bound 0.2 cannot hold at this size")
def test_criterion_08_proximity_uniform():
    rep = verification.spectrum_containment_check(6, uniform(0.0, 1.0, seed=0), 3)
    delta = rep["proximity_delta"]
    ok = delta <= 0.2
    report("8b (proximity, uniform potential)", ok, f"delta {delta:.3f}")
    assert ok


def test_criterion_09_free_power_law():
    start = time.time()
    curve = ids.estimate_ids(8, "simple", constant(0.0), 1,
                             ids.tail_grid(1e-4, 1e-1, 40))
    fit = ids.free_ids_exponent(curve, (1e-3, 5e-2))
    elapsed = time.time() - start
    ok = (abs(fit.slope - TAU) <= 0.05 and 0.10 <= fit.prefactor <= 0.17
          and elapsed < 1200.0)
    assert report("9 (free power law at size 2^8)", ok,
                  f"slope {fit.slope:.4f} (target {TAU:.4f}), prefactor "
                  f"{fit.prefactor:.4f}, runtime {elapsed:.0f}s")


@pytest.mark.xfail(
    strict=True,
    reason="no spectral weight in the stated window: eigenvalues below "
    "0.05 for the 0-10 Bernoulli potential require an all-zero cluster of "
    "40+ sites (probability ~2^-40 per placement), so all counts on "
    "[1e-3, 5e-2] are zero at size 2^8 with 8 trials and the fit has no "
    "usable points; the tail is visible on [0.3, 2] instead, where the "
    "fitted slope does land in the stated band (see the supplementary "
    "test)")
def test_criterion_10_lifshitz_tail_stated_window():
    curve = ids.estimate_ids(8, "simple", bernoulli(0.0, 10.0, 0.5, seed=0),
                             8, ids.tail_grid(1e-3, 5e-2, 24))
    total_weight = float(np.max(curve.mean_counts))
    try:
        fit = ids.lifshitz_fit(curve, (1e-3, 5e-2))
    except InsufficientDataError as exc:
        report("10 (tail exponent, stated window)", False,
               f"max mean count in window {total_weight:.2e}; {exc}")
        pytest.fail(f"window [1e-3, 5e-2] has no usable points: {exc}")
    ok = -0.85 <= fit.slope <= -0.50
    report("10 (tail exponent, stated window)", ok, f"slope {fit.slope:.4f}")
    assert ok


def test_supplementary_lifshitz_tail_visible_window():
    # Not a numbered criterion: same run as criterion 10 but fitted on the
    # energy range where the size-2^8 spectrum actually has tail weight.
    start = time.time()
    curve = ids.estimate_ids(8, "simple", bernoulli(0.0, 10.0, 0.5, seed=0),
                             8, np.geomspace(0.3, 2.0, 16))
    fit = ids.lifshitz_fit(curve, (0.3, 2.0))
    elapsed = time.time() - start
    ok = -0.85 <= fit.slope <= -0.50 and elapsed < 2400.0
    assert report("10-supplementary (tail exponent, visible window)", ok,
                  f"slope {fit.slope:.4f} (target {-TAU:.4f}) on "
                  f"{fit.n_points} points, runtime {elapsed:.0f}s")


def test_criterion_11_boundary_condition_independence():
    results = []
    for name, spec in verification.default_distributions(seed=0).items():
        rep = ids.bc_independence_report(6, spec, 8, ids.global_grid(spec, 64))
        results.append((name, rep["passed"],
                        max(p["max_excess"] for p in rep["pairs"])))
    ok = all(passed for _, passed, _ in results)
    assert report("11 (boundary-condition independence)", ok,
                  "; ".join(f"{n}: excess {e:.2e}" for n, _, e in results))


def test_criterion_12_cli_determinism(tmp_path):
    import os

    runs = {
        "ids": ["ids", "--level", "4", "--dist", "bernoulli:0,10,0.5",
                "--trials", "4", "--grid-kind", "global", "--grid-n", "24",
                "--fit", "none", "--out", "run"],
        "lattice": ["lattice", "--level", "4", "--out", "run"],
        "decimate": ["decimate", "--neumann", "--level", "4", "--out", "run"],
        "verify": ["verify", "--suite", "psd", "--dim", "20", "--trials", "5",
                   "--out", "run.json"],
    }
    ok = True
    detail = []
    for name, args in runs.items():
        outputs = []
        for rep in ("a", "b"):
            workdir = tmp_path / f"{name}_{rep}"
            workdir.mkdir()
            cwd = os.getcwd()
            os.chdir(workdir)
            try:
                assert cli_main(args) == 0
            finally:
                os.chdir(cwd)
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(workdir.iterdir())})
        same = outputs[0] == outputs[1]
        ok &= same
        detail.append(f"{name}: {'identical' if same else 'DIFFER'}")
    assert report("12 (byte-identical reruns)", ok, "; ".join(detail))
