"""Command line laboratory.

Subcommands:
  gen        write a complete or G(n, p) graph file
  cutparams  exact cut parameters of a graph file
  metric     build the shortest-path metric (optionally export the table)
  heur       run one heuristic on a graph file
  suite      run a verification suite described by a key=value config file
  bounds     evaluate a closed-form bound

Exit codes: 0 pass, 1 deterministic violation or bracket failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds as bounds_mod
from . import graphs as g
from . import heuristics as h
from . import lab
from . import metric as metric_mod
from .errors import RspMetricError
from .rng import Seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspmetric",
        description="Random shortest path metric laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph file")
    p_gen.add_argument("--model", choices=("complete", "er"), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    p_cut = sub.add_parser("cutparams", help="exact cut parameters of a graph file")
    p_cut.add_argument("--graph", required=True)

    p_metric = sub.add_parser("metric", help="build the shortest-path metric")
    p_metric.add_argument("--graph", required=True)
    p_metric.add_argument("--seed", type=int, default=0)
    p_metric.add_argument("--export", default=None)

    p_heur = sub.add_parser("heur", help="run one heuristic")
    p_heur.add_argument(
        "heuristic",
        choices=("greedy-matching", "nn", "insertion", "two-opt", "kmedian"),
    )
    p_heur.add_argument("--graph", required=True)
    p_heur.add_argument("--seed", type=int, default=0)
    p_heur.add_argument("--rule", choices=h.INSERTION_RULES, default="nearest")
    p_heur.add_argument("--k", type=int, default=None)
    p_heur.add_argument("--start", type=int, default=1)
    p_heur.add_argument("--init", choices=h.TWO_OPT_INITS, default="identity")
    p_heur.add_argument("--format", choices=("json", "csv"), default="json")

    p_suite = sub.add_parser("suite", help="run a verification suite")
    p_suite.add_argument("name", choices=lab.SUITES)
    p_suite.add_argument("--config", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate a closed-form bound")
    bounds_sub = p_bounds.add_subparsers(dest="bounds_command", required=True)
    p_eval = bounds_sub.add_parser("eval", help="evaluate one formula")
    p_eval.add_argument("formula", choices=sorted(bounds_mod.FORMULAS))
    p_eval.add_argument("--params", default="", help="comma separated k=v pairs")

    return parser


def _load_instance(path: str, seed: int):
    """Metric from a graph file: stored weights if present, else drawn from the seed."""
    loaded = g.read_graph(path)
    if isinstance(loaded, g.WeightedGraph):
        wg = loaded
    else:
        wg = g.draw_weights(loaded, Seed(seed))
    return wg, metric_mod.build_metric(wg)


def _emit(result: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(result, sort_keys=True))
    else:
        keys = sorted(result)
        print(",".join(keys))
        print(",".join(lab._fmt_cell(result[k]) for k in keys))


def _cmd_gen(args) -> int:
    if args.model == "complete":
        graph = g.complete_graph(args.n)
    else:
        if args.p is None:
            raise ValueError("er model needs --p")
        graph = g.generate_erdos_renyi(args.n, args.p, Seed(args.seed))
    g.write_graph(args.out, graph)
    print(f"wrote {graph.n} vertices, {graph.m} edges to {args.out}")
    return 0


def _cmd_cutparams(args) -> int:
    loaded = g.read_graph(args.graph)
    graph = loaded.graph if isinstance(loaded, g.WeightedGraph) else loaded
    cut = g.cut_parameters_exact(graph)
    print(json.dumps({"alpha": cut.alpha, "beta": cut.beta}, sort_keys=True))
    return 0


def _cmd_metric(args) -> int:
    _, metric = _load_instance(args.graph, args.seed)
    if args.export:
        metric_mod.write_metric(args.export, metric)
    print(
        json.dumps(
            {
                "n": metric.n,
                "connected": metric.is_finite(),
                "diameter": metric_mod.diameter(metric) if metric.is_finite() else None,
                "exported": args.export,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_heur(args) -> int:
    _, metric = _load_instance(args.graph, args.seed)
    seed = Seed(args.seed)
    if args.heuristic == "greedy-matching":
        sol = h.greedy_matching(metric)
        result = {"cost": sol.cost, "pairs": " ".join(f"{a}-{b}" for a, b in sol.pairs)}
    elif args.heuristic == "nn":
        sol = h.nearest_neighbor_tour(metric, args.start)
        result = {"cost": sol.cost, "order": " ".join(map(str, sol.order))}
    elif args.heuristic == "insertion":
        sol = h.insertion_tour(metric, args.rule, seed.child(0, "rule"))
        result = {"cost": sol.cost, "order": " ".join(map(str, sol.order)), "rule": args.rule}
    elif args.heuristic == "two-opt":
        initial = h.nearest_neighbor_tour(metric, args.start) if args.init == "nn" else None
        trace = h.two_opt(metric, initial)
        result = {
            "cost": trace.final.cost,
            "order": " ".join(map(str, trace.final.order)),
            "iterations": trace.iterations,
            "initial_cost": trace.costs[0],
        }
    else:  # kmedian
        if args.k is None:
            raise ValueError("kmedian needs --k")
        if not 1 <= args.k <= metric.n:  # before building a k-element center tuple
            raise ValueError(f"k={args.k} out of range 1..{metric.n}")
        sol = h.trivial_kmedian(metric, h.first_k_centers(args.k))
        result = {"cost": sol.cost, "centers": " ".join(map(str, sol.centers))}
    _emit(result, args.format)
    return 0


def _cmd_suite(args) -> int:
    config = lab.parse_config_file(args.config)
    if config.suite != args.name:
        raise ValueError(f"config file says suite={config.suite}, command line says {args.name}")
    report = lab.run_suite(config)
    text = report.write()
    if config.out:
        print(f"wrote report to {config.out}; passed={report.passed}")
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _cmd_bounds(args) -> int:
    params = {}
    if args.params:
        for pair in args.params.split(","):
            if "=" not in pair:
                raise ValueError(f"bad --params entry {pair!r}")
            key, _, value = pair.partition("=")
            params[key.strip()] = value.strip()
    result = bounds_mod.evaluate(args.formula, **params)
    print(json.dumps({"formula": result.formula_id, "inputs": result.inputs,
                      "value": result.value}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "cutparams": _cmd_cutparams,
        "metric": _cmd_metric,
        "heur": _cmd_heur,
        "suite": _cmd_suite,
        "bounds": _cmd_bounds,
    }[args.command]
    try:
        return handler(args)
    except (RspMetricError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
