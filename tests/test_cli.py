import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasketlab
from gasketlab import decimation, ids, spectra, verification
from gasketlab.cli import build_parser, main, parse_distribution
from gasketlab.errors import CapacityError, ValidationError


def run(args, cwd):
    import os

    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


def test_lattice_command(tmp_path):
    assert run(["lattice", "--level", "3", "--out", "t"], tmp_path) == 0
    stats = json.loads((tmp_path / "t.stats.json").read_text())
    assert stats["vertex_count"] == 42
    header = (tmp_path / "t.edges").read_text().splitlines()[0]
    assert header == "# gasket level=3 truncated=False mirrored=False"
    assert (tmp_path / "t.config").exists()


def test_lattice_truncated(tmp_path):
    assert run(["lattice", "--level", "2", "--truncated", "--out", "t"],
               tmp_path) == 0
    stats = json.loads((tmp_path / "t.stats.json").read_text())
    assert stats["vertex_count"] == 12


def test_lattice_usage_error(tmp_path):
    assert run(["lattice", "--level", "-1", "--out", "t"], tmp_path) == 2
    assert run(["lattice", "--level", "2", "--ball", "--truncated",
                "--out", "t"], tmp_path) == 2


def test_spectrum_eigenvalues(tmp_path):
    rc = run(["spectrum", "--level", "0", "--bc", "neumann",
              "--dist", "const:0", "--out", "s"], tmp_path)
    assert rc == 0
    values = np.loadtxt(tmp_path / "s.eigs.csv", skiprows=1)
    assert np.allclose(values, [0.0, 3.0, 3.0], atol=1e-12)


def test_spectrum_capacity_without_inertia(tmp_path, capsys):
    # eigenvalues of a level-8 triangle (9843 rows) are above the dense
    # threshold; a counting curve is not
    rc = run(["spectrum", "--level", "8", "--dist", "const:0", "--out", "s"],
             tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert len(err) == 1 and "--grid-n" in err[0]


def test_spectrum_counts_csv(tmp_path):
    # the level-0 triangle under the simple rule has spectrum {2, 5, 5}; a
    # descending grid is written ascending
    assert run(["spectrum", "--level", "0", "--bc", "simple", "--grid-kind", "lin",
                "--grid-lo", "5.5", "--grid-hi", "1.5", "--grid-n", "3",
                "--out", "c"], tmp_path) == 0
    assert (tmp_path / "c.counts.csv").read_text().splitlines() == [
        "E,count", "1.5,0", "3.5,1", "5.5,3"]


def test_verify_counting_capacity(tmp_path, capsys):
    # level 13 is above the lattice guardrail MAX_LEVEL
    rc = run(["verify", "--suite", "counting", "--levels", "13", "--out", "v"],
             tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("capacity error:")


@pytest.mark.parametrize("suite", ["containment", "kernel6"])
def test_verify_dense_suites_capacity(tmp_path, capsys, monkeypatch, suite):
    # a level-9 ball has 59051 rows, 26 GiB as a dense array: the capacity
    # guard must reject it before any dense array is built
    def refuse(ham, i, j):
        raise AssertionError("dense array built past the capacity guard")

    monkeypatch.setattr(spectra, "_edge_values", refuse)
    rc = run(["verify", "--suite", suite, "--levels", "9", "--out", "v"],
             tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("capacity error:")
    # no count would serve these suites, so the advice is not to count
    assert "need a dense solve" in err[0]
    assert "balls up to level 6" in err[0]
    assert "count_below" not in err[0]


def test_spectrum_counting_with_inertia(tmp_path):
    # 9843 rows, above DENSE_THRESHOLD: the curve comes from the counter
    rc = run(["spectrum", "--level", "8", "--dist", "const:0",
              "--grid-kind", "lin", "--grid-lo", "0.3", "--grid-hi", "9.3",
              "--grid-n", "10", "--out", "s"], tmp_path)
    assert rc == 0
    rows = np.loadtxt(tmp_path / "s.counts.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(rows[:, 1]) >= 0)
    assert rows[-1, 1] == 9843


def test_decimate_compare_dense(tmp_path):
    rc = run(["decimate", "--neumann", "--level", "3", "--compare-dense",
              "--out", "d"], tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "d.compare.json").read_text())
    assert report["set_distance"] <= 1e-9


def test_decimate_free_band(tmp_path):
    rc = run(["decimate", "--free", "--depth", "3", "--scale", "comb",
              "--out", "d"], tmp_path)
    assert rc == 0
    rows = (tmp_path / "d.spectrum.csv").read_text().splitlines()[1:]
    values = np.array([float(r.split(",")[0]) for r in rows])
    assert values.min() >= -1e-12 and values.max() <= 6.0 + 1e-12


def test_decimate_free_takes_any_seed(tmp_path):
    # every seed below 2^64, as potential seeds; a negative one is a usage
    # error
    for seed in ("0", "7", str(2**64 - 1)):
        assert run(["decimate", "--free", "--depth", "1", "--seed", seed,
                    "--out", "d"], tmp_path) == 0


@pytest.mark.parametrize("args", [
    ["ids", "--level", "2", "--dist", "bernoulli:0,10,0.5", "--trials", "1",
     "--seed", str(2**64)],
    ["spectrum", "--level", "2", "--dist", "uniform:0,1", "--seed", str(2**64)],
    ["spectrum", "--level", "2", "--trial", str(2**64 + 1)],
    ["decimate", "--free", "--depth", "1", "--seed", str(2**64)]])
def test_seed_or_trial_of_two_to_the_64_usage_error(tmp_path, capsys, args):
    # the generator key takes words below 2^64: a larger seed or trial would
    # alias a smaller one
    _usage_error(capsys, [*args, "--out", "o"], tmp_path)


@pytest.mark.parametrize("args", [["--free"], ["--neumann", "--level", "6"]])
def test_decimate_compare_dense_refused_before_any_work(tmp_path, capsys, args):
    _usage_error(capsys, ["decimate", *args, "--compare-dense", "--out", "d"],
                 tmp_path)


def test_decimate_level_zero_usage_error(tmp_path):
    assert run(["decimate", "--neumann", "--level", "0", "--out", "d"],
               tmp_path) == 2


def test_decimate_level_above_twenty_capacity_error(tmp_path, capsys):
    # the Neumann spectrum doubles its points every level: level 21 is
    # refused before anything is allocated or written
    rc = run(["decimate", "--neumann", "--level", "21", "--out", "d"], tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("capacity error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    with pytest.raises(CapacityError):
        decimation.neumann_counts(21)


def test_decay_suite_stops_where_five_to_the_minus_level_is_normal(tmp_path, capsys):
    # 5^-440 is a normal float and 5^-441 is not: past it the gap and the
    # ground state turn subnormal, then 0, and the bounds fail or pass falsely
    assert run(["verify", "--suite", "decay", "--max-level", "440",
                "--out", "d.json"], tmp_path) == 0
    report = json.loads((tmp_path / "d.json").read_text())
    assert report["passed"] and report["total"] == 2 * 440 + 2 * 5
    (tmp_path / "over").mkdir()
    rc = run(["verify", "--suite", "decay", "--max-level", "441", "--out", "e"],
             tmp_path / "over")
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("capacity error:")
    assert list((tmp_path / "over").iterdir()) == []


def test_decimate_free_depth_above_twenty_capacity_error(tmp_path, capsys):
    # the same size guard as --neumann --level 21, and the same exit code
    rc = run(["decimate", "--free", "--depth", "21", "--out", "d"], tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("capacity error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    with pytest.raises(CapacityError):
        decimation.free_spectrum_approx(21)


def test_decimate_negative_depth_usage_error(tmp_path, capsys):
    _usage_error(capsys, ["decimate", "--free", "--depth", "-3", "--out", "d"],
                 tmp_path)


def test_containment_negative_depth_usage_error(tmp_path, capsys):
    _usage_error(capsys, ["verify", "--suite", "containment", "--levels", "3",
                          "--depth", "-1", "--out", "v.json"], tmp_path)


def test_verify_psd(tmp_path):
    rc = run(["verify", "--suite", "psd", "--dim", "40", "--trials", "25",
              "--out", "r.json"], tmp_path)
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["passed"] and report["failed"] == 0


def test_verify_branch(tmp_path):
    rc = run(["verify", "--suite", "branch", "--n", "30", "--out", "r.json"],
             tmp_path)
    assert rc == 0


def test_verify_counting_small(tmp_path):
    rc = run(["verify", "--suite", "counting", "--levels", "2", "--seeds", "2",
              "--grid-n", "16", "--out", "r.json"], tmp_path)
    assert rc == 0


def test_all_suites_take_no_options():
    # "all" runs every suite at its own sizes, so an option would be dropped
    with pytest.raises(ValidationError, match="'all' takes no options"):
        verification.run_suite("all", levels=(9,), dim=3)


def test_ids_with_power_fit(tmp_path):
    rc = run(["ids", "--level", "5", "--dist", "const:0", "--trials", "1",
              "--grid-n", "24", "--grid-lo", "1e-3", "--grid-hi", "0.5",
              "--fit", "power", "--window", "1e-2,0.5", "--out", "i"],
             tmp_path)
    assert rc == 0
    fit = json.loads((tmp_path / "i.fit.json").read_text())
    assert fit["kind"] == "power"
    assert 0.3 <= fit["slope"] <= 1.1


def test_ids_missing_distribution(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["ids", "--level", "3", "--trials", "2", "--out", "i"], tmp_path)
    assert err.value.code == 2


def test_ids_insufficient_data_exit(tmp_path):
    rc = run(["ids", "--level", "3", "--dist", "bernoulli:0,10,0.5",
              "--trials", "2", "--grid-lo", "1e-4", "--grid-hi", "1e-3",
              "--grid-n", "8", "--fit", "lifshitz", "--window", "1e-4,1e-3",
              "--out", "i"], tmp_path)
    assert rc == 1


def test_fit_command_roundtrip(tmp_path):
    rc = run(["ids", "--level", "4", "--dist", "const:0", "--trials", "1",
              "--grid-n", "30", "--grid-lo", "1e-3", "--grid-hi", "1.0",
              "--out", "i"], tmp_path)
    assert rc == 0
    rc = run(["fit", "--curve", "i.curve.csv", "--kind", "power",
              "--window", "1e-2,1.0", "--out", "f.json"], tmp_path)
    assert rc == 0
    assert json.loads((tmp_path / "f.json").read_text())["n_points"] >= 5


def test_ids_run_replays_from_its_config(tmp_path):
    assert run(["ids", "--level", "3", "--dist", "bernoulli:0,10,0.5",
                "--trials", "3", "--grid-kind", "global", "--grid-n", "12",
                "--out", "r"], tmp_path) == 0
    assert "command=ids\n" in (tmp_path / "r.config").read_text()
    assert run(["ids", "--config", "r.config", "--out", "r2"], tmp_path) == 0
    assert ((tmp_path / "r2.curve.csv").read_bytes()
            == (tmp_path / "r.curve.csv").read_bytes())
    assert ((tmp_path / "r2.config").read_text().replace("out=r2", "out=r")
            == (tmp_path / "r.config").read_text())
    # --threads was not given, so the snapshot does not name it
    assert "threads=" not in (tmp_path / "r.config").read_text()


def test_ids_snapshot_with_threads_replays(tmp_path):
    # earlier versions wrote the resolved trial threads; --threads is now
    # ignored, so such a snapshot replays to the same data files
    args = ["--level", "5", "--region", "full", "--dist", "bernoulli:0,10,0.5",
            "--trials", "3", "--grid-kind", "global", "--grid-n", "12"]
    assert run(["ids", *args, "--out", "r"], tmp_path) == 0
    old = (tmp_path / "r.config").read_text().replace("out=r\n",
                                                      "out=r\nthreads=7\n")
    assert "threads=7" in old
    (tmp_path / "old.config").write_text(old)
    assert run(["ids", "--config", "old.config", "--out", "r2"], tmp_path) == 0
    assert ((tmp_path / "r2.curve.csv").read_bytes()
            == (tmp_path / "r.curve.csv").read_bytes())
    assert "threads=7\n" in (tmp_path / "r2.config").read_text()


@pytest.mark.parametrize("args", [
    ["--level", "2", "--trials", "1000000000000", "--grid-n", "2"],
    ["--level", "2", "--grid-n", "100000000000000"],
    ["--level", "8", "--trials", "100000000000000"]])
def test_ids_too_many_trials_or_energies_capacity_error(tmp_path, capsys, args):
    # the counts (or the grid) are allocated before any work, and a size
    # that cannot be held is a capacity error, not a traceback or a hang
    start = time.perf_counter()
    rc = run(["ids", "--dist", "const:0", *args, "--out", "h"], tmp_path)
    assert time.perf_counter() - start < 30.0
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("capacity error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_ids_max_level_is_the_guardrail(tmp_path, capsys):
    rc = run(["ids", "--level", "3", "--max-level", "2", "--dist", "const:0",
              "--trials", "1", "--out", "i"], tmp_path)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 3
    assert len(err) == 1 and err[0].startswith("capacity error:")
    assert run(["ids", "--level", "3", "--max-level", "3", "--dist", "const:0",
                "--trials", "1", "--out", "i"], tmp_path) == 0


def test_config_file_with_override(tmp_path):
    (tmp_path / "run.cfg").write_text("level=3\nout=fromcfg\n")
    rc = run(["lattice", "--config", "run.cfg"], tmp_path)
    assert rc == 0
    assert (tmp_path / "fromcfg.stats.json").exists()
    rc = run(["lattice", "--config", "run.cfg", "--out", "cli_wins"], tmp_path)
    assert rc == 0
    assert (tmp_path / "cli_wins.stats.json").exists()


def test_parse_distribution_errors():
    with pytest.raises(ValidationError):
        parse_distribution("bernoulli:1,2", 0, 1.0)
    with pytest.raises(ValidationError):
        parse_distribution("weird:1", 0, 1.0)
    spec = parse_distribution("table:0:0.5,10:1", 0, 1.0)
    assert (spec.values, spec.masses) == ((0.0, 10.0), (0.5, 1.0))


def _on_cpus(monkeypatch, cpus):
    """Let the process run on ``cpus`` CPUs: the band's trial threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def test_ball_curve_is_byte_identical_for_any_threads(tmp_path, monkeypatch):
    curves = []
    for cpus in (1, 3):
        _on_cpus(monkeypatch, cpus)
        (tmp_path / str(cpus)).mkdir()
        assert run(["ids", "--level", "5", "--region", "full", "--dist",
                    "bernoulli:0,10,0.5", "--grid-kind", "global",
                    "--out", "run"], tmp_path / str(cpus)) == 0
        curves.append((tmp_path / str(cpus) / "run.curve.csv").read_bytes())
    assert curves[0] == curves[1]


def test_counter_curve_is_byte_identical_for_any_threads(tmp_path):
    # 9843 rows, above DENSE_THRESHOLD: the trials are rows of one pass, and
    # --threads, which is ignored, changes no data file
    curves = []
    for threads in ("1", "4"):
        (tmp_path / threads).mkdir()
        assert run(["ids", "--level", "8", "--dist", "bernoulli:0,10,0.5",
                    "--bc", "simple", "--grid-kind", "global", "--grid-n", "27",
                    "--trials", "3", "--threads", threads, "--out", "run"],
                   tmp_path / threads) == 0
        curves.append((tmp_path / threads / "run.curve.csv").read_bytes())
    assert curves[0] == curves[1]


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["ids", "--level", "3", "--dist", "bernoulli:0,10,0.5",
            "--trials", "4", "--grid-kind", "global", "--grid-n", "16",
            "--out", "run"]
    assert run(args, a) == 0
    assert run(args, b) == 0
    assert (a / "run.curve.csv").read_bytes() == (b / "run.curve.csv").read_bytes()
    assert (a / "run.config").read_bytes() == (b / "run.config").read_bytes()


def _usage_error(capsys, args, cwd):
    rc = run(args, cwd)
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:")
    assert sorted(p.name for p in cwd.iterdir()) == []


def test_ids_bad_window_usage_error(tmp_path, capsys):
    # a window that is not a finite 0 < lo < hi fails before the curve is
    # counted: every fit takes log E or E^-tau
    for window in ("abc", "1,nan", "2,0.3", "nan,1", "0,1", "-2,3"):
        _usage_error(capsys, ["ids", "--level", "2", "--dist", "const:0",
                              "--trials", "1", "--fit", "power",
                              f"--window={window}", "--out", "i"], tmp_path)


def test_fit_window_at_zero_usage_error(tmp_path, capsys):
    # a window reaching E = 0 or below fails before the curve is read or
    # fitted, for every kind of fit
    curve = tmp_path / "c.curve.csv"
    curve.write_text("E,mean,stderr,trials\n" + "".join(
        f"{e},{e / 2},0,1\n" for e in np.linspace(-2.0, 3.0, 11)))
    (tmp_path / "out").mkdir()
    for kind in ("power", "lifshitz", "exp"):
        for window in ("0,1", "-2,3"):
            _usage_error(capsys, ["fit", "--curve", str(curve), "--kind", kind,
                                  f"--window={window}", "--out", "f.json"],
                         tmp_path / "out")


def test_fit_missing_curve_usage_error(tmp_path, capsys):
    _usage_error(capsys, ["fit", "--curve", "missing.csv", "--out", "f.json"],
                 tmp_path)


@pytest.mark.parametrize("rows", ["", "1,2\n"])
def test_fit_on_a_malformed_curve_usage_error(tmp_path, capsys, rows):
    # a curve with no rows, or fewer than its four columns, is one error
    # line and no warning or traceback
    curve = tmp_path / "bad.curve.csv"
    curve.write_text("E,mean,stderr,trials\n" + rows)
    (tmp_path / "out").mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _usage_error(capsys, ["fit", "--curve", str(curve), "--out", "f.json"],
                     tmp_path / "out")
    with pytest.raises(ValueError, match="E,mean,stderr,trials"):
        ids.read_curve_csv(curve)


@pytest.mark.parametrize("source", ["column", "sidecar"])
def test_fit_on_a_curve_of_no_trials_usage_error(tmp_path, capsys, source):
    # trials come from the .config sidecar, else from the trials column;
    # no trials from either is one error line, where a sidecar's ended in
    # a ZeroDivisionError and a column's fitted without a word
    column = 0 if source == "column" else 4
    curve = tmp_path / "z.curve.csv"
    curve.write_text("E,mean,stderr,trials\n" + "".join(
        f"{e},{e / 4},0,{column}\n" for e in np.linspace(0.1, 2.0, 12)))
    if source == "sidecar":
        (tmp_path / "z.config").write_text("command=ids\ntrials=0\nlevel=4\nregion=half\n")
    (tmp_path / "out").mkdir()
    _usage_error(capsys, ["fit", "--curve", str(curve), "--kind", "power",
                          "--window", "0.1,2", "--out", "f.json"], tmp_path / "out")
    with pytest.raises(ValueError, match="at least 1 trial, got 0"):
        ids.read_curve_csv(curve)


def test_counting_suite_below_level_two_names_it(tmp_path, capsys):
    # the truncated children of a level-1 triangle are empty level-0 ones
    rc = run(["verify", "--suite", "counting", "--levels", "3", "1", "--out", "o"],
             tmp_path)
    assert rc == 2 and list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == "error: counting checks need levels >= 2, got 1\n"


def test_kernel6_suite_below_level_two_names_it(tmp_path, capsys):
    # a level-1 ball has no strict interior; the level is refused before
    # the level-3 ball is solved
    rc = run(["verify", "--suite", "kernel6", "--levels", "3", "1", "--out", "o"],
             tmp_path)
    assert rc == 2 and list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == "error: kernel6 checks need levels >= 2, got 1\n"


def test_threads_below_one_usage_error(tmp_path, capsys):
    # --threads is ignored but still validated, as snapshots carry it
    _usage_error(capsys, ["ids", "--level", "2", "--dist", "const:0", "--trials",
                          "2", "--threads", "0", "--out", "o"], tmp_path)


def test_counting_report_is_byte_identical_for_any_threads(tmp_path,
                                                           monkeypatch):
    reports = []
    for cpus in (1, 3):
        _on_cpus(monkeypatch, cpus)
        (tmp_path / str(cpus)).mkdir()
        assert run(["verify", "--suite", "counting", "--levels", "3", "4",
                    "--seeds", "4", "--out", "v.json"], tmp_path / str(cpus)) == 0
        reports.append((tmp_path / str(cpus) / "v.json").read_bytes())
    assert reports[0] == reports[1]


def test_ids_empty_grid_usage_error(tmp_path, capsys):
    _usage_error(capsys, ["ids", "--level", "2", "--dist", "const:0",
                          "--trials", "1", "--grid-n", "0", "--out", "i"],
                 tmp_path)


@pytest.mark.parametrize("flags", [["--dist", "const:nan"],
                                   ["--dist", "uniform:0,inf"],
                                   ["--dist", "const:1", "--pot-scale", "nan"],
                                   ["--dist", "const:1", "--pot-scale", "inf"]])
def test_non_finite_potential_usage_error(tmp_path, capsys, flags):
    _usage_error(capsys, ["spectrum", "--level", "2", *flags, "--out", "s"],
                 tmp_path)


@pytest.mark.parametrize("args", [
    ["--config", "missing.cfg", "lattice", "--level", "2"],
    ["spectrum", "--level", "2", "--grid-n", "3", "--grid-lo", "0"],
    ["spectrum", "--level", "2", "--grid-kind", "lin", "--grid-n", "3",
     "--grid-hi", "nan"],
    ["verify", "--suite", "psd", "--dim", "0"],
    ["verify", "--suite", "interlacing", "--dim", "3"],
    ["verify", "--suite", "psd", "--seed", "-1"],
    # finite parameters whose scaled support or width overflows
    ["ids", "--level", "3", "--dist", "const:1e308", "--pot-scale", "10",
     "--grid-kind", "global"],
    ["ids", "--level", "3", "--dist", "uniform:-1e308,1e308", "--grid-kind", "lin"],
    ["spectrum", "--level", "3", "--dist", "const:1e308", "--pot-scale", "10"],
    # the free probabilistic operator reads neither a boundary rule nor a trial
    ["spectrum", "--level", "2", "--prob", "--bc", "simple"],
    ["spectrum", "--level", "2", "--prob", "--trial", "1"]])
def test_bad_input_usage_error(tmp_path, capsys, args):
    _usage_error(capsys, [*args, "--out", "o"], tmp_path)


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "counting", "--levels", "2", "--grid-n", "0"],
    ["verify", "--suite", "counting", "--levels", "2", "--seeds", "0"],
    ["verify", "--suite", "counting", "--levels", "2", "--seeds", "-2"],
    ["verify", "--suite", "temple", "--levels", "2", "--seeds", "0"],
    ["verify", "--suite", "interlacing", "--trials", "0"],
    ["verify", "--suite", "decay", "--max-level", "0"],
    ["verify", "--suite", "branch", "--samples", "0"],
    ["verify", "--suite", "branch", "--n", "0"],
    ["spectrum", "--level", "2", "--grid-n", "-3"],
    ["ids", "--level", "2", "--dist", "const:0", "--trials", "0"],
    # a negative seed or trial index would alias one near 2^64
    ["spectrum", "--level", "2", "--seed", "-1"],
    ["spectrum", "--level", "2", "--trial", "-1"],
    ["ids", "--level", "2", "--dist", "const:0", "--trials", "1", "--seed", "-1"],
    ["decimate", "--free", "--depth", "1", "--seed", "-1"],
    # a negative guardrail is malformed, not a capacity error
    ["lattice", "--level", "3", "--max-level", "-1"],
    ["spectrum", "--level", "3", "--max-level", "-1"],
    ["ids", "--level", "3", "--dist", "const:0", "--max-level", "-1"]])
def test_size_below_its_least_value_usage_error(tmp_path, capsys, args):
    # each would check or compute nothing, alias another run, or end in a
    # traceback
    _usage_error(capsys, [*args, "--out", "o"], tmp_path)


@pytest.mark.parametrize("levels", [["0"], ["3", "0"], ["-1"]])
@pytest.mark.parametrize("suite", ["counting", "temple", "containment"])
def test_levels_below_one_name_the_option(tmp_path, capsys, suite, levels):
    # a level-0 triangle has no children to split into: the message names
    # the option and its least value, not an internal piece level
    rc = run(["verify", "--suite", suite, "--levels", *levels, "--seeds", "1",
              "--out", "o"], tmp_path)
    assert rc == 2 and list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err == (
        f"error: --levels must be at least 1, got {min(map(int, levels))}\n")


@pytest.mark.parametrize("args", [
    ["lattice", "--level", "1"],
    ["ids", "--level", "3", "--dist", "const:0", "--trials", "1"]])
def test_out_in_a_missing_directory_usage_error(tmp_path, capsys, monkeypatch,
                                                args):
    # rejected before any work: ids would otherwise compute the whole curve
    def refuse(*args, **kwargs):
        raise AssertionError("the curve was computed")

    monkeypatch.setattr(ids, "estimate_ids", refuse)
    _usage_error(capsys, [*args, "--out", os.path.join("nodir", "x")], tmp_path)


def test_fit_on_a_saved_curve_matches_the_ids_fit(tmp_path):
    # the reloaded curve takes trials, level and region from run.config, so
    # the same points pass the minimum-count floor
    assert run(["ids", "--level", "4", "--dist", "bernoulli:0,10,0.5",
                "--trials", "8", "--grid-lo", "0.3", "--grid-hi", "2",
                "--grid-n", "16", "--fit", "lifshitz", "--window", "0.3,2",
                "--out", "run"], tmp_path) == 0
    assert run(["fit", "--curve", "run.curve.csv", "--kind", "lifshitz",
                "--window", "0.3,2", "--out", "f.json"], tmp_path) == 0
    in_memory = json.loads((tmp_path / "run.fit.json").read_text())
    reloaded = json.loads((tmp_path / "f.json").read_text())
    assert reloaded == in_memory


INERTIA_GRID = ["--grid-kind", "lin", "--grid-lo", "0.3", "--grid-hi", "7.3",
                "--grid-n", "4"]


@pytest.mark.parametrize("args", [
    pytest.param(None, id="parser"),
    # 9843 rows, above DENSE_THRESHOLD: counted by the counter
    pytest.param(["ids", "--level", "8", "--dist", "bernoulli:0,10,0.5",
                  "--trials", "2", *INERTIA_GRID], id="ids-inertia"),
    pytest.param(["spectrum", "--level", "8", *INERTIA_GRID], id="spectrum-inertia"),
    pytest.param(["spectrum", "--level", "3", "--dist", "const:0"], id="spectrum-dense"),
    pytest.param(["spectrum", "--level", "4", "--prob", *INERTIA_GRID],
                 id="spectrum-prob-dense"),
    pytest.param(["ids", "--level", "4", "--region", "full", "--dist",
                  "uniform:0,1", "--trials", "2", *INERTIA_GRID], id="ids-dense"),
    # dense eigenvalue solves
    pytest.param(["verify", "--suite", "temple", "--levels", "2"], id="verify-temple"),
    # the kernel residuals sum over the region's edges
    pytest.param(["verify", "--suite", "kernel6", "--levels", "3"], id="verify-kernel6"),
])
def test_scipy_modules_load_only_where_needed(tmp_path, args):
    # with scipy installed, no scipy module loads: not scipy.sparse (about
    # 0.2 s of start-up), nor scipy.linalg (about 27 MiB of peak RSS and
    # 0.3 s), as counts and dense solves call the LAPACK numpy links; a
    # module that imported scipy only where it can would pass the test
    # below, which blocks it, but not this one
    call = f"main({args!r} + ['--out', 'o'])" if args else "0"
    code = ("import sys\nfrom gasketlab.cli import build_parser, main\n"
            f"build_parser()\nrc = {call}\n"
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    src = os.path.dirname(os.path.dirname(gasketlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1:] == ["0 []"], done.stderr


#: One call of every subcommand and its documented exit code: 1 for
#: ``verify --suite all``, whose containment record at radius 2^6 fails.
NO_SCIPY_CALLS = [
    (["lattice", "--level", "3"], 0),
    (["spectrum", "--level", "3", "--export-matrix"], 0),
    # 9843 rows, above DENSE_THRESHOLD: counted by the counter
    (["spectrum", "--level", "8", "--prob", *INERTIA_GRID], 0),
    (["ids", "--level", "4", "--dist", "uniform:0,1", "--trials", "2",
      "--grid-kind", "lin", "--grid-lo", "0.3", "--grid-hi", "7.3",
      "--grid-n", "12"], 0),
    (["verify", "--suite", "all"], 1),
    (["decimate", "--neumann", "--level", "3", "--compare-dense"], 0),
    (["decimate", "--free"], 0),
    (["fit", "--curve", "o.curve.csv", "--kind", "power", "--window", "0.3,7.3"], 0),
]


def test_every_subcommand_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: in a process where importing
    # scipy fails, every subcommand exits with its documented code, and the
    # quadratic form sums on the operator's arrays
    code = ("import sys\nsys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from gasketlab import lattice, operators\n"
            "from gasketlab.cli import main\n"
            f"print([main(args + ['--out', 'o']) for args, _ in {NO_SCIPY_CALLS!r}])\n"
            "ham = operators.probabilistic_laplacian(lattice.build_triangle(1))\n"
            "print(operators.quadratic_form(ham, np.ones(ham.dimension)))\n")
    src = os.path.dirname(os.path.dirname(gasketlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.stdout.splitlines()[-2:] == [
        str([rc for _, rc in NO_SCIPY_CALLS]), "0.0"], done.stderr


NUMBERS = ["-1", "0", "0.5", "3", "nan", "inf", "-inf", "1e308", "x", ""]
#: Values to try for every option that takes one; no run they make builds
#: a region above level 3 or at level 13.
FUZZ_VALUES = {
    "--level": ["-1", "0", "1", "2", "3", "13", "x", "nan"],
    "--max-level": ["-1", "0", "2", "3", "x"],
    "--bc": ["simple", "neumann", "dirichlet", "robin"],
    "--dist": ["const:0", "bernoulli:0,10,0.5", "uniform:0,1", "uniform:1,0",
               "table:0:0.5,1:1", "bernoulli:0,nan,0.5", "const:x",
               "bogus:1", "uniform:0,inf", "const:1e308",
               "uniform:-1e308,1e308"],
    "--pot-scale": NUMBERS, "--grid-lo": NUMBERS, "--grid-hi": NUMBERS,
    "--grid-n": ["-1", "0", "1", "3", "x"],
    "--grid-kind": ["geom", "lin", "global", "log"],
    "--trials": ["-1", "0", "1", "2", "x"],
    "--trial": ["-1", "0", "1", "x"],
    "--threads": ["-1", "0", "1", "2", "x"],
    "--seed": ["-1", "0", "7", "x"],
    "--region": ["half", "full", "ball"],
    "--window": ["1e-3,5e-2", "0.3,2", "2,0.3", "abc", "nan,1", "1"],
    "--fit": ["none", "power", "lifshitz", "exp"],
    "--kind": ["power", "lifshitz", "exp", "bogus"],
    "--depth": ["-1", "0", "1", "2", "x"],
    "--scale": ["prob", "comb", "x"],
    "--suite": ["psd", "branch", "interlacing", "bogus"],
    "--levels": ["-1", "0", "2", "3", "x"],
    "--seeds": ["-1", "0", "1", "x"],
    "--dim": ["-1", "0", "1", "3", "x"],
    "--n": ["-1", "0", "3", "x"], "--samples": ["-1", "0", "3", "x"],
    "--curve": ["missing.curve.csv", "."],
    "--config": ["missing.cfg", "."],
    # every run ends in --out run, which wins
    "--out": ["run", "other"],
}
#: Per command: arguments that keep a run small.
FUZZ_BASE = {
    "lattice": ["--level", "2"],
    "spectrum": ["--level", "2"],
    "ids": ["--level", "2", "--dist", "const:0", "--trials", "2", "--grid-n", "3"],
    "decimate": ["--neumann", "--level", "2", "--depth", "1"],
    "fit": ["--curve", "missing.curve.csv"],
    "verify": ["--suite", "psd", "--dim", "3", "--trials", "2"],
    "bogus": [],
}


def _parser_options():
    """Per subcommand (and "bogus", which has none), every option the parser
    declares, the top-level ones included, mapped to whether it takes a
    value."""
    parser = build_parser()

    def options(p):
        return {a.option_strings[-1]: a.nargs != 0 for a in p._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction)}

    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    top = options(parser)
    return {"bogus": top, **{name: {**top, **options(p)}
                             for name, p in sub.choices.items()}}


PARSER_OPTIONS = _parser_options()


def test_fuzz_covers_every_parser_option():
    assert sorted(FUZZ_BASE) == sorted(PARSER_OPTIONS)
    valued = {flag for options in PARSER_OPTIONS.values()
              for flag, takes_value in options.items() if takes_value}
    assert sorted(valued - set(FUZZ_VALUES)) == []  # options never fuzzed
    assert sorted(set(FUZZ_VALUES) - valued) == []  # values for no option


def _fuzz_option(options):
    def option(flag):
        if not options.get(flag):  # a switch, or --bogus
            return st.just([flag])
        return st.sampled_from(FUZZ_VALUES[flag]).map(lambda v: [flag, v])

    return st.sampled_from(sorted(options) + ["--bogus"]).flatmap(option)


fuzz_argv = st.sampled_from(sorted(FUZZ_BASE)).flatmap(
    lambda command: st.lists(_fuzz_option(PARSER_OPTIONS[command]),
                             max_size=4).map(
        lambda options: [command, *FUZZ_BASE[command],
                         *(token for option in options for token in option),
                         "--out", "run"]))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(argv=fuzz_argv)
def test_cli_fuzz_exits_with_a_documented_code(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as cwd, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = run(argv, cwd)
        except SystemExit as exc:  # argparse: usage errors and --help
            rc = exc.code
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
