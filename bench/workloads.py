"""The benchmark workloads: CLI calls, their unit of work, and output checks.

Each workload is a closed loop of ``gasketlab`` CLI calls made with the
shipped defaults: no ``--threads``, no thread environment variables.  The
workload seed reaches the program only as ``--seed``.  A check returns
``(work units, problems)`` for one call; an empty problem list means the
call's outputs passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Callable, NamedTuple


class Call(NamedTuple):
    argv: tuple[str, ...]
    out: str            # output prefix, relative to the pass directory
    exit_code: int      # the documented exit code for this call
    check: Callable[[str], tuple[int, list[str]]]


class Workload(NamedTuple):
    name: str
    calls: tuple[Call, ...]
    unit: str           # what one unit of work_per_s is on this workload
    alias: str          # the workload-specific name of work_per_s
    uses_counter: bool  # False: a traced pass must make no count_below call
    extra_check: Callable[[int], list[str]] | None = None  # seed -> problems


def _check_ids_curve(support_max: float, trials: int, grid_n: int):
    """Any seed: the IDS curve is monotone in E, lies in [0, 1], and is 1 at
    every E >= 16 + support max.  Work: one count per (trial, energy)."""

    def check(prefix):
        with open(prefix + ".curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        energies = [float(r["E"]) for r in rows]
        means = [float(r["mean"]) for r in rows]
        problems = []
        if len(rows) != grid_n:
            problems.append(f"{len(rows)} curve rows, expected {grid_n}")
        if any(int(r["trials"]) != trials for r in rows):
            problems.append(f"trials column differs from {trials}")
        if any(not 0.0 <= m <= 1.0 for m in means):
            problems.append("IDS value outside [0, 1]")
        if any(b < a for a, b in zip(means, means[1:])):
            problems.append("IDS curve not monotone in E")
        top = [m for e, m in zip(energies, means) if e >= 16.0 + support_max]
        if not top or any(m != 1.0 for m in top):
            problems.append(f"IDS is not 1 at every E >= {16.0 + support_max}")
        return len(rows) * trials, problems

    return check


def _check_verify(expected_failures: tuple[str, ...]):
    """The failing records must be exactly ``expected_failures`` (one record
    per check id).  Work: one verification record."""

    def check(path):
        with open(path) as fh:
            records = json.load(fh)["records"]
        failing = sorted(r["check_id"] for r in records if not r["passed"])
        problems = []
        if failing != sorted(expected_failures):
            problems.append(f"failing records {failing}, expected "
                            f"{sorted(expected_failures)}")
        return len(records), problems

    return check


# The trial counts are the smallest that keep a pass short and still run
# trials concurrently at the default --threads (trials > 1).
IDS_L8_TRIALS = 2
IDS_L6_BALL_TRIALS = 4
IDS_L6_BALL_GRID_N = 33   # the CLI's default --grid-n


def ball_count_check(seed: int) -> list[str]:
    """``count_below`` equals the dense count at a few grid energies on trial
    0 of the ``ids-l6-ball`` operator."""
    from gasketlab import cli, ids, lattice, operators, spectra

    spec = cli.parse_distribution("uniform:0,1", seed, 1.0)
    region = lattice.build_ball(6)
    ham = operators.assemble(region, operators.SIMPLE,
                             operators.sample_potential(region, spec, 0))
    energies = ids.global_grid(spec, IDS_L6_BALL_GRID_N)[[2, 6, 10, 14]]
    dense = spectra.counts_from_eigenvalues(spectra.eigenvalues_dense(ham),
                                            energies)
    inertia = [spectra.count_below(ham, e) for e in energies]
    return [f"count_below({e:.6g}) = {c}, dense count {d}"
            for e, c, d in zip(energies, inertia, dense) if c != d]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ids-l8",
            (Call(("ids", "--level", "8", "--dist", "bernoulli:0,10,0.5",
                   "--bc", "simple", "--region", "half",
                   "--grid-kind", "global", "--grid-n", "27",
                   "--trials", str(IDS_L8_TRIALS)),
                  "ids", 0,
                  _check_ids_curve(10.0, IDS_L8_TRIALS, 27)),),
            "counting evaluation (trial, energy)", "counts_per_s", True),
        Workload(
            "ids-l6-ball",
            (Call(("ids", "--level", "6", "--region", "full",
                   "--dist", "uniform:0,1", "--grid-kind", "global",
                   "--trials", str(IDS_L6_BALL_TRIALS)),
                  "ids", 0,
                  _check_ids_curve(1.0, IDS_L6_BALL_TRIALS,
                                   IDS_L6_BALL_GRID_N)),),
            "counting evaluation (trial, energy)", "counts_per_s", False,
            ball_count_check),
        Workload(
            "verify",
            (Call(("verify", "--suite", "all"), "all.json", 1,
                  _check_verify(("containment-proximity",))),
             Call(("verify", "--suite", "counting", "--levels", "4", "5"),
                  "counting.json", 0, _check_verify(()))),
            "verification record", "checks_per_s", False),
    )
}


def data_files(directory: str) -> list[str]:
    """The data files a pass wrote.  ``.config`` snapshots are left out:
    they record the resolved --threads, which follows the machine."""
    return sorted(name for name in os.listdir(directory)
                  if not name.endswith(".config"))


def file_digest(path: str) -> str:
    """sha256 of a data file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def reference_digest(path: str) -> str:
    """The digest compared with the seed-0 references.

    A verification report is digested with its deviations rounded to 9
    decimals: their last bits follow the BLAS thread count (6 of the 498
    records of ``verify --suite all`` change between one and two OpenBLAS
    threads), while check ids, instances, bounds and pass flags do not.
    Every other file is digested byte for byte.
    """
    if not path.endswith(".json"):
        return file_digest(path)
    with open(path) as fh:
        report = json.load(fh)
    if "records" not in report:
        return file_digest(path)
    for record in report["records"]:
        record["deviation"] = round(record["deviation"], 9)
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
