"""Command-line entry points: gen, exact, simulate, experiment, verify."""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from ._flat import check_scale
from .chains import build_generator, spectrum, transition_matrix
from .config import _TASK_KINDS, validate_config
from .crw import exact_occupancy_density
from .errors import CoalesceError, ConfigError, ParameterOutOfRange
from .graphs import (
    DegreeDistribution,
    make_transitive,
    read_graph,
    sample_configuration_model,
    write_graph,
)
from .io import format_cell, make_dir, write_csv, write_json
from .meeting import pairwise_meeting_times
from .runner import resolve_threads, run_experiment
from .seeding import derive_rng
from .verify import SUITE_HEADER, exact_suite, paper_suite, statistical_suite


def _flag(flag: str, convert):
    """An argparse type: a value that ``convert`` cannot read is a
    ConfigError naming the flag, which ``main`` reports in one line."""

    def parse(text):
        try:
            return convert(text)
        except (ValueError, ParameterOutOfRange) as exc:
            raise ConfigError(flag, f"cannot read {text!r} ({exc})") from None

    return parse


def _threads(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise ValueError("must be at least 1")
    return threads


_THREADS_HELP = ("processes to run on: this one and N - 1 pool workers "
                 "(default: COALESCE_THREADS, else 1)")


def _parse_degrees(text: str) -> DegreeDistribution:
    pairs = []
    for part in text.split(","):
        deg, prob = part.split(":")
        pairs.append((int(deg), float(prob)))
    return DegreeDistribution.from_pairs(pairs)


def _load_cli_graph(args):
    if args.graph:
        return read_graph(args.graph)
    if args.family:
        return make_transitive(args.family, *args.params)
    raise ConfigError("graph", "pass --graph FILE or --family NAME --params ...")


def _cmd_gen(args) -> int:
    if args.family:
        g = make_transitive(args.family, *args.params)
    elif args.cm_degrees:
        rng = derive_rng(args.seed, "graph_gen", 0)
        g = sample_configuration_model(
            args.cm_degrees, args.n, rng, require_connected=args.require_connected
        )
    else:
        raise ConfigError("gen", "pass --family or --cm-degrees")
    write_graph(g, args.out)
    print(f"wrote {args.out}: n={g.n} edges={g.edge_total}")
    return 0


def _cmd_exact(args) -> int:
    g = _load_cli_graph(args)
    c = build_generator(g, args.convention)
    what = args.what
    if what == "spectrum":
        ev = spectrum(c).eigenvalues
        header = ["index", "eigenvalue"]
        rows = [(i, float(v)) for i, v in enumerate(ev)]
    elif what == "meeting":
        prof = pairwise_meeting_times(c)
        header = ["x", "y", "e_meet"]
        rows = [
            (x, y, float(prof.pairwise[x, y]))
            for x in range(c.n)
            for y in range(c.n)
        ]
    elif what == "occupancy":
        dens = exact_occupancy_density(c, args.t)
        header = ["vertex", "p_t"]
        rows = [(v, float(p)) for v, p in enumerate(dens)]
    elif what == "transition":
        mat = transition_matrix(c, args.t)
        header = ["x", "y", "p_t"]
        rows = [(x, y, float(mat[x, y])) for x in range(c.n) for y in range(c.n)]
    else:
        raise ConfigError("exact", f"unknown quantity {what!r}")
    if args.out:
        write_csv(args.out, header, rows)
        print(f"wrote {args.out} ({len(rows)} rows)")
    else:
        print(",".join(header))
        for row in rows[:50]:
            print(",".join(format_cell(v) for v in row))
        if len(rows) > 50:
            print(f"... {len(rows) - 50} more rows (use --out)")
    return 0


def _cmd_simulate(args) -> int:
    graph_spec = (
        {"path": args.graph}
        if args.graph
        else {"family": args.family, "params": args.params}
    )
    task: dict = {"task": args.task}
    if args.sites:
        task["sites"] = args.sites
    config = validate_config(
        {
            "schema": 1,
            "graph": graph_spec,
            "rate_convention": args.convention,
            "times": args.times or [1.0],
            "replicates": args.reps,
            "master_seed": args.seed,
            "outputs": args.out,
            "tasks": [task],
        }
    )
    manifest = run_experiment(config, threads=args.threads)
    print(f"wrote {args.out}: {[r['file'] for r in manifest['results']]}")
    return 0


def _cmd_experiment(args) -> int:
    manifest = run_experiment(args.config, threads=args.threads)
    out = manifest["config"]["outputs"]
    for rec in manifest["results"]:
        print(f"{rec['task']}: {rec['file']} rows={rec['rows']} sha256={rec['sha256'][:12]}")
    print(f"manifest: {os.path.join(out, 'manifest.json')}")
    return 0


def _cmd_verify(args) -> int:
    threads = resolve_threads(args.threads)
    if args.out:
        # before the suite runs, so a bad path fails at once
        make_dir(args.out)
    if args.suite == "exact":
        rows, ok = exact_suite(args.seed)
        predictions = None
    elif args.suite == "statistical":
        rows, ok = statistical_suite(args.seed, threads=threads, scale=args.scale)
        predictions = None
    elif args.suite == "paper":
        rows, ok, predictions = paper_suite(args.seed, threads=threads, scale=args.scale)
    else:
        raise ConfigError("verify", f"unknown suite {args.suite!r}")
    for check, quantity, value, sigma, threshold, row_ok in rows:
        status = "pass" if row_ok else "FAIL"
        print(f"{status}  {check:28s} {quantity:22s} value={value:.6g} sigma={sigma:.3g} "
              f"thr={threshold:g}")
    if args.out:
        path = os.path.join(args.out, f"{args.suite}.csv")
        write_csv(path, SUITE_HEADER, rows)
        print(f"wrote {path}")
        if predictions is not None:
            write_json(os.path.join(args.out, "paper_predictions.json"), predictions)
    print("suite:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalesce",
        description="Coalescing random walk and voter model laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--family", choices=["cycle", "torus", "complete", "hypercube"])
    p.add_argument("--params", nargs="*", default=[], type=_flag("--params", int))
    p.add_argument("--cm-degrees", help="degree:prob[,degree:prob...]",
                   type=_flag("--cm-degrees", _parse_degrees))
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--require-connected", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("exact", help="exact chain functionals as CSV")
    p.add_argument("what", choices=["spectrum", "meeting", "occupancy", "transition"])
    p.add_argument("--graph")
    p.add_argument("--family", choices=["cycle", "torus", "complete", "hypercube"])
    p.add_argument("--params", nargs="*", default=[], type=_flag("--params", int))
    p.add_argument("--convention", default="per_edge_unit",
                   choices=["per_edge_unit", "total_unit"])
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("simulate", help="Monte Carlo tasks to CSV")
    p.add_argument("--task", required=True, choices=_TASK_KINDS)
    p.add_argument("--graph")
    p.add_argument("--family", choices=["cycle", "torus", "complete", "hypercube"])
    p.add_argument("--params", nargs="*", default=[], type=_flag("--params", int))
    p.add_argument("--convention", default="per_edge_unit",
                   choices=["per_edge_unit", "total_unit"])
    p.add_argument("--times", type=_flag("--times", lambda s: [float(t) for t in s.split(",")]))
    p.add_argument("--sites", type=_flag("--sites", lambda s: [int(v) for v in s.split(",")]))
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_flag("--threads", _threads), metavar="N",
                   help=_THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a JSON experiment config")
    p.add_argument("config")
    p.add_argument("--threads", type=_flag("--threads", _threads), metavar="N",
                   help=_THREADS_HELP)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["exact", "statistical", "paper"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_flag("--threads", _threads), metavar="N",
                   help=_THREADS_HELP)
    p.add_argument("--scale", type=_flag("--scale", lambda s: check_scale(float(s))), default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # inside the try: the flag types raise ConfigError while parsing
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CoalesceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
