"""Command-line front end.

Subcommands: lattice, spectrum, ids, verify, decimate, fit.  Every run is
deterministic given its resolved configuration, which is written next to
each output (flat key=value text); data files carry no timestamps, so
repeating a run reproduces them byte for byte.  Exit codes: 0 success,
1 verification/data failure, 2 usage error, 3 capacity.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import decimation, ids, lattice, operators, spectra, verification
from .errors import CapacityError, InsufficientDataError, ValidationError

USAGE_ERROR = 2
CAPACITY_ERROR = 3
CHECK_FAILED = 1


def parse_distribution(text: str, seed: int, scale: float) -> operators.PotentialSpec:
    """Parse const:c | bernoulli:a,b,p | uniform:a,b | table:v:c,v:c,..."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "const":
            return operators.constant(float(rest), seed=seed, scale=scale)
        if kind == "bernoulli":
            a, b, p = (float(x) for x in rest.split(","))
            return operators.bernoulli(a, b, p, seed=seed, scale=scale)
        if kind == "uniform":
            a, b = (float(x) for x in rest.split(","))
            return operators.uniform(a, b, seed=seed, scale=scale)
        if kind == "table":
            rows = [tuple(float(x) for x in pair.split(":"))
                    for pair in rest.split(",")]
            return operators.table_cdf(rows, seed=seed, scale=scale)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad distribution {text!r}: {exc}") from exc
    raise ValidationError(f"unknown distribution kind {kind!r}")


def _write_config(args: argparse.Namespace, path: str) -> None:
    # an unset option (None) is left out, so a replay leaves it unset
    items = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func", "config") and v is not None}
    with open(path, "w") as fh:
        for key, value in items.items():
            if isinstance(value, (list, tuple)):
                value = " ".join(str(x) for x in value)
            fh.write(f"{key}={value}\n")


def _write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _region_from_args(args):
    if args.ball:
        if args.truncated or args.mirrored or args.half_lattice:
            raise ValidationError(
                "--ball cannot be combined with triangle modifiers")
        return lattice.build_ball(args.level, max_level=args.max_level)
    spec = lattice.TriangleSpec(args.level, truncated=args.truncated,
                                mirrored=args.mirrored)
    return lattice.build_triangle(spec, half_lattice=args.half_lattice,
                                  max_level=args.max_level)


def _parse_window(text):
    try:
        lo, hi = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValidationError(
            f"bad --window {text!r}: expected lo,hi") from exc
    if not (0.0 < lo < hi and math.isfinite(hi)):  # the fits take log E
        raise ValidationError(
            f"bad --window {text!r}: expected finite 0 < lo < hi")
    return lo, hi


def _parse_grid(args, potential):
    if args.grid_kind == "global":
        return ids.global_grid(potential, args.grid_n)
    lo, hi = args.grid_lo, args.grid_hi
    if not (math.isfinite(lo) and math.isfinite(hi)) or (
            args.grid_kind == "geom" and min(lo, hi) <= 0):
        raise ValidationError(
            f"bad --grid-lo/--grid-hi {lo}, {hi} for a {args.grid_kind} grid")
    if args.grid_kind == "geom":
        return ids.tail_grid(lo, hi, args.grid_n)
    return np.linspace(lo, hi, args.grid_n)


def cmd_lattice(args) -> int:
    region = _region_from_args(args)
    region.export_edge_list(args.out + ".edges")
    _write_json(region.stats(), args.out + ".stats.json")
    _write_config(args, args.out + ".config")
    print(f"{len(region)} vertices, {len(region.edges)} edges "
          f"-> {args.out}.edges")
    return 0


def cmd_spectrum(args) -> int:
    if args.prob and (args.bc != operators.NEUMANN or args.trial != 0):
        raise ValidationError("--prob is the free Neumann operator: it reads "
                              "no --bc other than neumann and no --trial but 0")
    region = _region_from_args(args)
    potential = parse_distribution(args.dist, args.seed, args.pot_scale)
    if args.prob:
        ham = operators.probabilistic_laplacian(region)
    else:
        values = operators.sample_potential(region, potential, args.trial)
        ham = operators.assemble(region, args.bc, values)
    if args.grid_n > 0:
        grid = np.sort(_parse_grid(args, potential))
        counts = spectra.count_operators(region, lambda _: ham, 1, grid)[0]
        with open(args.out + ".counts.csv", "w") as fh:
            fh.write("E,count\n")
            for e, c in zip(grid, counts):
                fh.write(f"{e:.17g},{c}\n")
        print(f"counting curve on {len(grid)} energies -> {args.out}.counts.csv")
    else:
        if ham.dimension > spectra.DENSE_THRESHOLD:
            raise CapacityError(
                f"dimension {ham.dimension} exceeds the dense threshold "
                f"{spectra.DENSE_THRESHOLD}; pass --grid-n for a counting curve")
        eigs = spectra.eigenvalues_dense(ham)
        with open(args.out + ".eigs.csv", "w") as fh:
            fh.write("value\n")
            for v in eigs:
                fh.write(f"{v:.17g}\n")
        print(f"{len(eigs)} eigenvalues -> {args.out}.eigs.csv")
    if args.export_matrix:
        ham.export_coordinate_text(args.out + ".matrix.txt")
    _write_config(args, args.out + ".config")
    return 0


def cmd_ids(args) -> int:
    potential = parse_distribution(args.dist, args.seed, args.pot_scale)
    window = _parse_window(args.window) if args.fit != "none" else None
    grid = _parse_grid(args, potential)
    if args.trials is None:
        args.trials = 8 if args.level >= 8 else 32
    curve = ids.estimate_ids(args.level, args.bc, potential, args.trials,
                             grid, region_kind=args.region,
                             max_level=args.max_level)
    curve.to_csv(args.out + ".curve.csv")
    _write_config(args, args.out + ".config")
    print(f"IDS curve ({args.trials} trials, |region|={curve.region_size}) "
          f"-> {args.out}.curve.csv")
    if not curve.mean_counts.any():
        print(f"every count is 0: no trial has an eigenvalue at or below the "
              f"grid's top energy {curve.energies[-1]:.6g}")
    if args.fit != "none":
        report = _fit_curve(curve, args.fit, window)
        _write_json(report, args.out + ".fit.json")
        print(f"{args.fit} fit: slope={report['slope']:.5f} "
              f"(target {report['target']:.5f}) -> {args.out}.fit.json")
    return 0


def _fit_curve(curve, kind, window) -> dict:
    """Report a fit of ``kind``, one of the parser's choices: power, lifshitz, exp."""
    if kind == "power":
        fit = ids.free_ids_exponent(curve, window)
        return {"kind": "power", "window": list(fit.window),
                "slope": fit.slope, "prefactor": fit.prefactor,
                "intercept": math.log(fit.prefactor),
                "r_squared": fit.r_squared, "n_points": fit.n_points,
                "target": fit.target,
                "pass": bool(abs(fit.slope - fit.target) <= 0.05)}
    if kind == "lifshitz":
        fit = ids.lifshitz_fit(curve, window)
        return {"kind": "lifshitz", "window": list(fit.window),
                "slope": fit.slope, "intercept": fit.intercept,
                "r_squared": fit.r_squared, "n_points": fit.n_points,
                "target": fit.target,
                "pass": bool(-0.85 <= fit.slope <= -0.50)}
    rep = ids.exponential_tail_fit(curve, window)
    rep.update({"kind": "exp", "window": list(window),
                "slope": rep["m2"], "target": float("nan"),
                "pass": True})
    return rep


def cmd_fit(args) -> int:
    window = _parse_window(args.window)
    try:
        curve = ids.read_curve_csv(args.curve)
    except (OSError, ValueError) as exc:
        raise ValidationError(
            f"cannot read --curve {args.curve!r}: {exc}") from exc
    report = _fit_curve(curve, args.kind, window)
    _write_json(report, args.out)
    _write_config(args, args.out + ".config")
    print(f"{args.kind} fit on {report['n_points']} points: "
          f"slope={report['slope']:.5f} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    kwargs = ({} if args.suite == "all"
              else verification.SUITE_TABLE[args.suite].options(args))
    records = verification.run_suite(args.suite, seed=args.seed, **kwargs)
    passed = all(r.passed for r in records)
    report = {"suite": args.suite, "passed": passed,
              "total": len(records),
              "failed": sum(not r.passed for r in records),
              "records": [r.to_dict() for r in records]}
    _write_json(report, args.out)
    _write_config(args, args.out + ".config")
    print(f"suite {args.suite}: {report['total'] - report['failed']}"
          f"/{report['total']} checks passed -> {args.out}")
    return 0 if passed else CHECK_FAILED


def cmd_decimate(args) -> int:
    if args.compare_dense and (args.free or args.level > 5):
        raise ValidationError(
            "--compare-dense needs the triangle spectrum with level <= 5")
    if args.free:
        spectrum = decimation.free_spectrum_approx(args.depth, seed=args.seed)
    else:
        spectrum = decimation.neumann_spectrum(args.level)
    spectrum.to_csv(args.out + ".spectrum.csv", scale=args.scale)
    _write_config(args, args.out + ".config")
    print(f"{len(spectrum)} spectrum points -> {args.out}.spectrum.csv")
    code = 0
    if args.compare_dense:
        region = lattice.build_triangle(args.level)
        dense = spectra.eigenvalues_dense(
            operators.probabilistic_laplacian(region))
        points = np.sort(-spectrum.points)
        distance = max(
            float(np.max(verification.nearest_distance(points, dense))),
            float(np.max(verification.nearest_distance(dense, points))))
        report = {"level": args.level, "set_distance": distance,
                  "pass": bool(distance <= 1e-9)}
        _write_json(report, args.out + ".compare.json")
        print(f"set distance to dense spectrum: {distance:.3e}")
        if not report["pass"]:
            code = CHECK_FAILED
    return code


SEED_HELP = "master seed; every random stream derives from it"


def _add_common(p):
    p.add_argument("--out", default="gasket_run", help="output path prefix")


def _add_region(p):
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--max-level", type=int, default=lattice.MAX_LEVEL)
    p.add_argument("--truncated", action="store_true")
    p.add_argument("--mirrored", action="store_true")
    p.add_argument("--ball", action="store_true")
    p.add_argument("--half-lattice", action="store_true")


def _add_grid(p, kind="geom", lo=1e-4, hi=1e-1, n=33):
    p.add_argument("--grid-kind", choices=("geom", "lin", "global"), default=kind)
    p.add_argument("--grid-lo", type=float, default=lo)
    p.add_argument("--grid-hi", type=float, default=hi)
    p.add_argument("--grid-n", type=int, default=n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasketlab",
        description="Sierpinski gasket spectra and density of states")
    parser.add_argument("--config", default=None,
                        help="flat key=value file; command-line flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    window = argparse.ArgumentParser(add_help=False)  # ids and fit take it
    window.add_argument("--window", default="1e-3,5e-2", help="fit window lo,hi")

    p = sub.add_parser("lattice", help="build and export a region")
    _add_region(p)
    _add_common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("spectrum", help="eigenvalues or counting curve")
    _add_region(p)
    p.add_argument("--bc", choices=operators.BOUNDARY_CONDITIONS,
                   default=operators.NEUMANN)
    p.add_argument("--dist", default="const:0")
    p.add_argument("--pot-scale", type=float, default=1.0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--prob", action="store_true",
                   help="degree-normalized free operator instead of H")
    p.add_argument("--export-matrix", action="store_true")
    _add_grid(p, n=0)
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("ids", help="Monte-Carlo density of states", parents=[window])
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--bc", choices=operators.BOUNDARY_CONDITIONS,
                   default=operators.SIMPLE)
    p.add_argument("--dist", required=True)
    p.add_argument("--pot-scale", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=None,
                   help="default 32, or 8 from level 8 up")
    p.add_argument("--region", choices=("half", "full"), default="half")
    p.add_argument("--fit", choices=("none", "power", "lifshitz", "exp"),
                   default="none")
    p.add_argument("--threads", type=int, default=None,
                   help="ignored, so that older snapshots replay: the trials "
                        "run on the CPUs the process may run on; limit them "
                        "with taskset")
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.add_argument("--max-level", type=int, default=lattice.MAX_LEVEL)
    _add_grid(p)
    _add_common(p)
    p.set_defaults(func=cmd_ids)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=verification.SUITES, required=True)
    p.add_argument("--levels", type=int, nargs="+", default=[4])
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--grid-n", type=int, default=64)
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    p.add_argument("--max-level", type=int, default=lattice.MAX_LEVEL,
                   help="deepest level of the decay suite")
    _add_common(p)
    p.set_defaults(func=cmd_verify, out="verify_report.json")

    p = sub.add_parser("decimate", help="exact spectra by preimage iteration")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--neumann", action="store_true")
    group.add_argument("--free", action="store_true")
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--scale", choices=("prob", "comb"), default="prob")
    p.add_argument("--compare-dense", action="store_true")
    p.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    _add_common(p)
    p.set_defaults(func=cmd_decimate)

    p = sub.add_parser("fit", help="fit a stored IDS curve", parents=[window])
    p.add_argument("--curve", required=True)
    p.add_argument("--kind", choices=("power", "lifshitz", "exp"),
                   default="power")
    _add_common(p)
    p.set_defaults(func=cmd_fit, out="fit_report.json")

    return parser


def _config_tokens(path: str) -> list[str]:
    """The flags a key=value file stands for.  Its ``command`` line, which
    every written snapshot has, is skipped: the subcommand comes from the
    command line."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            key, sep, value = (x.strip() for x in line.partition("="))
            if (not sep or key.startswith("#") or key == "command"
                    or value.lower() == "false"):
                continue
            tokens.append("--" + key.replace("_", "-"))
            if value.lower() != "true":
                tokens.extend(value.split())
    return tokens


#: Per subcommand, the least value of each size or index option: a smaller
#: size leaves nothing to compute or check, and a seed or trial index is a
#: generator key word in [0, 2^64) (the upper end is checked with the key).
#: ``spectrum --grid-n 0`` lists the eigenvalues instead of a counting
#: curve.  ``verify --levels`` starts at 1, as a level-0 region is one
#: 3-vertex cell; the counting suite, which splits truncated triangles into
#: truncated halves, refuses levels below 2 itself.  No level is below 0.
_LEAST = {
    "lattice": {"max_level": 0},
    "spectrum": {"grid_n": 0, "seed": 0, "trial": 0, "max_level": 0},
    "ids": {"grid_n": 1, "trials": 1, "threads": 1, "seed": 0, "max_level": 0},
    "verify": {"grid_n": 1, "seeds": 1, "trials": 1, "n": 1, "samples": 1,
               "max_level": 1, "levels": 1, "seed": 0},
    "decimate": {"seed": 0},
}


def _check_sizes(args) -> None:
    """Reject a size option, or any value of a list option, below its
    ``_LEAST`` value."""
    for name, least in _LEAST.get(args.command, {}).items():
        value = getattr(args, name)
        if isinstance(value, list):
            value = min(value)
        if value is not None and value < least:
            raise ValidationError(f"--{name.replace('_', '-')} must be at least "
                                  f"{least}, got {value}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--config" in argv:
        at = argv.index("--config")
        if at + 1 >= len(argv):
            print("error: --config needs a path", file=sys.stderr)
            return USAGE_ERROR
        config_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2:]
        if argv:
            try:
                argv = [argv[0]] + _config_tokens(config_path) + argv[1:]
            except (OSError, ValueError) as exc:
                print(f"error: cannot read --config {config_path!r}: {exc}",
                      file=sys.stderr)
                return USAGE_ERROR
    parser = build_parser()
    args = parser.parse_args(argv)
    folder = os.path.dirname(args.out)
    try:
        if folder and not os.path.isdir(folder):
            raise ValidationError(f"--out {args.out!r}: no directory {folder!r}")
        _check_sizes(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return CAPACITY_ERROR
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
