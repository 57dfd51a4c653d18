"""Run one gasketlab benchmark workload and print its metrics.

    python3 bench/run.py --workload ids-l8 --seed 0 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory.  The workload runs in one fresh process
(``worker.py``) with the CLI's shipped defaults: nothing here sets
``--threads``, ``GASKET_THREADS`` or a BLAS thread variable.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over the workload process and several set-up-only processes, started before,
between the passes of and after the workload process, of the time from
process start until the first workload call.  ``--trace 1`` reports
the per-layer metrics of a traced run (see README.md).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record, with machine facts, quartiles and per-operation
problems, goes to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-up-only processes started before and again after the workload
#: process; the workload process starts more between its passes, so that
#: setup_s samples the machine's load all through the run.
SETUP_PROBES = 4


def time_limit(seconds: float) -> float:
    """Seconds by which every process this script starts must have ended:
    the measured time, one more pass started just before its end (up to
    about 50 s for a traced ids-l8 loop, plus its --threads 1 pass), and
    the set-up probes."""
    return 140.0 + 2.0 * seconds


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "work_per_s": "1/s"}


def _run_child(argv, env, deadline):
    """Last stdout line of a worker process, parsed; None on failure."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        print("error: out of time before starting a worker", file=sys.stderr)
        return None
    # A session of its own, so that a late worker is stopped together with
    # any set-up probe it started.
    child = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                              *argv], env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"error: worker {argv} did not end within {timeout:.0f} s",
              file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: worker {argv} exited with {child.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _setup_sample(argv, env, deadline):
    started = time.monotonic()
    result = _run_child(argv, env, deadline)
    return result, (None if result is None else result["ready"] - started)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gasketlab", "cli.py")):
        print(f"error: no gasketlab source under {src}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + time_limit(args.seconds)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{stem}-{os.getpid()}")
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)

    setups = []

    def probe():
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_setup_sample(["--probe"], env, deadline)[1])

    probe()
    try:
        result, seconds = _setup_sample(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir,
             "--spans", os.path.join(results_dir, stem + ".spans.jsonl")],
            env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(seconds)
    probe()
    if result is None or None in setups:
        return 1
    setups += result.pop("setup_between")

    failed_ops = [(op, problems) for op, problems in result["ops"] if problems]
    attempted, failed = len(result["ops"]), len(failed_ops)
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["metrics"].items()}
    else:
        summary = {name: _summary(values)
                   for name, values in result["metrics"].items()}
        summary["setup_s"] = _summary(setups)
        metrics = {name: {"value": summary[name]["median"],
                          "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END_UNITS}
        result["metrics"] = summary

    _print_report(args, result, attempted, failed_ops)
    with open(os.path.join(results_dir, stem + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "seconds": args.seconds, **result},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _summary(values) -> dict:
    """Median and quartiles of the values of one metric within a run."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "decimation.s":
        return "s"
    if name.endswith("_lines"):
        return "lines"
    if name in ("ids.trial_concurrency", "trace_overhead"):
        return "ratio"
    return "count"


def _print_report(args, result, attempted, failed_ops) -> None:
    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    if args.trace:
        for name, value in result["metrics"].items():
            print(f"  {name:32s} {value:14.6g} {_layer_unit(name)}")
    else:
        for name, unit in END_TO_END_UNITS.items():
            m = result["metrics"][name]
            label = name if name != "work_per_s" else (
                f"work_per_s ({workload.alias}: {workload.unit})")
            print(f"  {label:24s} median {m['median']:.6g} {unit}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    print(f"  fail_ratio {len(failed_ops)}/{attempted}")
    for op, problems in failed_ops:
        print(f"  FAILED {op}: {'; '.join(problems)}")


if __name__ == "__main__":
    sys.exit(main())
