"""One benchmark process: set up, run passes of one workload, check them.

``run.py`` starts this script with the package's ``src`` on PYTHONPATH.
With ``--probe`` it only sets up (imports numpy, scipy and gasketlab and
builds the CLI parser) and prints the moment it was ready.  Otherwise it
runs passes of one workload for ``--seconds``: a pass makes the workload's
CLI calls in-process through ``gasketlab.cli.main``, in a fresh directory.
Between two untraced passes it times one more set-up-only process.
Outputs are checked outside the timed region.  The last line of standard
output is one JSON object with the measurements.

With ``--trace 1`` the passes alternate untraced and traced; the per-layer
metrics come from the traced passes, and an ``ids`` workload adds one
``--threads 1`` pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Pass:
    """One pass of a workload: its timings, work, digests and problems."""

    wall: float
    cpu: float
    units: int
    ops: list        # (operation, problems)
    digests: dict    # data file -> sha256 of its bytes
    reference_digests: dict  # data file -> workloads.reference_digest
    threads: int | None


def run_pass(cli, workload, seed, directory, extra=()) -> Pass:
    """Make the workload's CLI calls in a fresh ``directory``, then check
    the outputs and remove the directory."""
    from workloads import data_files, file_digest, reference_digest

    os.makedirs(directory)
    wall = cpu = 0.0
    codes = []
    here = os.getcwd()
    os.chdir(directory)
    try:
        for call in workload.calls:
            argv = [*call.argv, "--seed", str(seed), "--out", call.out, *extra]
            cpu_before = _cpu_seconds()
            start = time.perf_counter()
            codes.append(_invoke(cli, argv))
            wall += time.perf_counter() - start
            cpu += _cpu_seconds() - cpu_before
    finally:
        os.chdir(here)

    units = 0
    ops = []
    for call, code in zip(workload.calls, codes):
        problems = []
        if code != call.exit_code:
            problems.append(f"exit code {code}, expected {call.exit_code}")
        try:
            n, found = call.check(os.path.join(directory, call.out))
            units += n
            problems += found
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        ops.append((" ".join(call.argv), problems))
    paths = [os.path.join(directory, name) for name in data_files(directory)]
    digests = {os.path.basename(p): file_digest(p) for p in paths}
    references = {os.path.basename(p): reference_digest(p) for p in paths}
    threads = _resolved_threads(
        os.path.join(directory, workload.calls[0].out + ".config"))
    shutil.rmtree(directory)
    return Pass(wall, cpu, units, ops, digests, references, threads)


def _invoke(cli, argv):
    """Exit code of one CLI call; an escaped exception is reported as such."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # the call failed; record it and go on
        traceback.print_exc()
        return "exception"


def _resolved_threads(config_path: str):
    try:
        with open(config_path) as fh:
            for line in fh:
                key, _, value = line.rstrip("\n").partition("=")
                if key == "threads":
                    return int(value)
    except (OSError, ValueError):
        pass
    return None


def machine_facts(threads) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "GASKET_THREADS"},
        "resolved_threads": threads,
    }


def source_lines(root: str) -> dict[str, int]:
    from spans import LAYERS

    out = {}
    for layer in LAYERS:
        with open(os.path.join(root, "src", "gasketlab", layer + ".py")) as fh:
            out[f"src.{layer}_lines"] = sum(1 for _ in fh)
    return out


def setup_probe() -> float:
    """Seconds from starting a ``--probe`` process of this script until it
    is ready."""
    started = time.monotonic()
    done = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--probe"], stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["ready"] - started


def measure(cli, workload, seed, seconds, workdir):
    """Untraced passes for ``seconds``, with a set-up probe between two
    passes: each end-to-end metric's values and the probes' set-up times."""
    passes, setups = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if passes:
            setups.append(setup_probe())
        passes.append(run_pass(cli, workload, seed,
                               os.path.join(workdir, f"pass{len(passes)}")))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    series = {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "work_per_s": [p.units / p.wall for p in passes],
        "peak_rss_mb": [peak_rss_mb],
    }
    return passes, series, setups


def measure_traced(cli, workload, seed, seconds, workdir):
    """Untraced and traced passes in turn for ``seconds``, then an ids
    workload's ``--threads 1`` pass: the per-layer metrics."""
    from spans import Tracer, installed_wrappers, layer_metrics

    plain, traced, layers, ops = [], [], [], []
    spans = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(cli, workload, seed,
                              os.path.join(workdir, f"plain{len(plain)}")))
        tracer = Tracer()
        with tracer:
            traced.append(run_pass(
                cli, workload, seed,
                os.path.join(workdir, f"traced{len(traced)}")))
        leaked = installed_wrappers()
        ops.append(("no wrapper left installed",
                    [f"still wrapped: {leaked}"] if leaked else []))
        ops.append(("traced data files identical to untraced",
                    [] if traced[-1].digests == plain[-1].digests
                    else ["traced pass wrote different data files"]))
        layers.append(layer_metrics(tracer.spans))
        spans = tracer.spans
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    metrics["trace_overhead"] = (statistics.median(p.wall for p in traced)
                                 / statistics.median(p.wall for p in plain))
    if not workload.uses_counter:
        calls = max(m["spectra.count_below_calls"] for m in layers)
        ops.append(("count_below bypassed",
                    [f"{calls} count_below calls"] if calls else []))
    serial = 0.0
    if any(call.argv[0] == "ids" for call in workload.calls):
        single = run_pass(cli, workload, seed, os.path.join(workdir, "serial"),
                          extra=("--threads", "1"))
        serial = single.wall
        ops += single.ops
        ops.append(("--threads 1 data files identical to default",
                    [] if single.digests == plain[-1].digests
                    else ["--threads 1 pass wrote different data files"]))
    metrics["ids.serial_wall_s"] = serial
    return plain + traced, metrics, ops, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (set-up cost is part of the measurement)
    import scipy  # noqa: F401
    from gasketlab import cli

    cli.build_parser()
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    from workloads import WORKLOADS

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = WORKLOADS[args.workload]
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "reference_digests.json")) as fh:
        reference = json.load(fh)[workload.name]

    if args.trace:
        passes, metrics, ops, spans = measure_traced(
            cli, workload, args.seed, args.seconds, args.workdir)
        metrics.update(source_lines(root))
        with open(args.spans, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        setups = []
    else:
        passes, metrics, setups = measure(cli, workload, args.seed,
                                          args.seconds, args.workdir)
        ops = []
    for p in passes:
        ops += p.ops
        if args.seed == 0:
            ops.append(("data files match the seed-0 references",
                        [] if p.reference_digests == reference
                        else [f"digests {p.reference_digests}"]))
    if workload.extra_check is not None:
        ops.append((workload.extra_check.__name__,
                    workload.extra_check(args.seed)))

    print(json.dumps({
        "ready": ready,
        "setup_between": setups,
        "passes": len(passes),
        "metrics": metrics,
        "ops": ops,
        "reference_digests": passes[-1].reference_digests,
        "machine": machine_facts(passes[0].threads),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
