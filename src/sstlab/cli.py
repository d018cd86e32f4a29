"""Command-line workbench.

Reports go to standard output as JSON; SVG goes to files.  Exit codes:
0 all assertions pass, 1 assertion failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .classify import classify
from .constructions import (
    PreconditionError,
    boundary_leaf_sst4,
    cone_sweep_sst3,
    find_leaf4_args,
    sample_separated_pair,
    separated_pair_sst3,
)
from .enumeration import (
    Family,
    SizeGuardError,
    blocks,
    enumerate_ssts,
    minimum_blockers,
)
from .graph import EdgeSet, analyze_tree, is_noncrossing
from .instances import Instance, InstanceError, parse_instance
from .render import render_svg
from .scenarios import run_scenario, scenario_names

_FAMILIES = {
    "t3": Family.trees_diam_at_most(3),
    "t4": Family.trees_diam_at_most(4),
    "sst": Family.spanning_trees(),
    "sss": Family.spanning_subgraphs(),
}


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def _edges_json(edges: EdgeSet) -> list[list[int]]:
    return [[u, v] for u, v in edges]


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_classify(args) -> int:
    inst = _load_instance(args.instance)
    config = inst.config()
    b = inst.edges(args.set)
    result = classify(config, b)
    doc = {
        "is_star": result.is_star,
        "star_center": result.star_center,
        "is_comb": result.is_comb,
    }
    if result.comb is not None:
        doc["comb"] = {
            "spine": list(result.comb.spine),
            "teeth": {str(v): list(e) for v, e in result.comb.teeth},
        }
    else:
        doc["failure_reasons"] = list(result.failure_reasons)
    _emit(doc)
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args.instance)
    config = inst.config()
    trees = enumerate_ssts(config, max_diameter=args.max_diameter, force=args.force)
    _emit(
        {
            "count": len(trees),
            "max_diameter": args.max_diameter,
            "trees": [_edges_json(t) for t in trees],
        }
    )
    return 0


def _cmd_blocks(args) -> int:
    inst = _load_instance(args.instance)
    config = inst.config()
    b = inst.edges(args.set)
    report = blocks(config, b, _FAMILIES[args.family], force=args.force)
    doc = {"family": args.family, "blocks": report.blocks}
    if report.witness is not None:
        doc["witness"] = _edges_json(report.witness)
    _emit(doc)
    return 0


def _cmd_minblockers(args) -> int:
    inst = _load_instance(args.instance)
    config = inst.config()
    found = minimum_blockers(config, _FAMILIES[args.family], force=args.force)
    _emit(
        {
            "family": args.family,
            "size": found.size,
            "count": len(found.blockers),
            "blockers": [_edges_json(b) for b in found.blockers],
        }
    )
    return 0


def _cmd_construct(args) -> int:
    inst = _load_instance(args.instance)
    config = inst.config()
    avoid = inst.edges(args.set) if inst.edge_sets else EdgeSet(config.n)
    if args.mode == "perles":
        tree = cone_sweep_sst3(config, avoid)
        bound = 3
    elif args.mode == "pair":
        pair = sample_separated_pair(config, avoid, random.Random(args.seed))
        if pair is None:
            raise InstanceError(
                "no valid separated pair found for this instance and seed"
            )
        tree = separated_pair_sst3(config, avoid, pair)
        bound = 3
    else:  # leaf4
        found = find_leaf4_args(config, avoid)
        if found is None:
            raise InstanceError("no hull vertex with a free boundary edge qualifies")
        tree = boundary_leaf_sst4(config, avoid, *found)
        bound = 4
    analysis = analyze_tree(config, tree)
    _emit(
        {
            "mode": args.mode,
            "tree": _edges_json(tree),
            "diameter": analysis.diameter,
            "diameter_bound": bound,
            "noncrossing": is_noncrossing(config, tree),
            "avoids": tree.isdisjoint(avoid),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_scenario(
        args.scenario, seed=args.seed, trials=args.trials, max_n=args.max_n
    )
    _emit(report.to_dict())
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    inst = _load_instance(args.instance)
    svg = render_svg(inst, labels=args.set if args.set else None)
    Path(args.output).write_text(svg, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sstlab",
        description="Workbench for blockers of non-crossing spanning trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p, required=True):
        p.add_argument("-i", "--instance", required=required, help="instance JSON file")

    p = sub.add_parser("classify", help="star/comb classification of an edge set")
    add_instance(p)
    p.add_argument("--set", default="B", help="edge set label (default B)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="list non-crossing spanning trees")
    add_instance(p)
    p.add_argument("--max-diameter", type=int, default=None)
    p.add_argument("--force", action="store_true", help="override the size guard")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("blocks", help="does the edge set block a family?")
    add_instance(p)
    p.add_argument("--set", default="B")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("minblockers", help="all minimum blockers of a family")
    add_instance(p)
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_minblockers)

    p = sub.add_parser("construct", help="build an avoiding tree")
    p.add_argument("mode", choices=("perles", "pair", "leaf4"))
    add_instance(p)
    p.add_argument("--set", default="B", help="edge set to avoid (default B)")
    p.add_argument("--seed", type=int, default=0, help="seed for pair sampling")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="run a verification scenario")
    p.add_argument("scenario", choices=scenario_names())
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="render an instance to SVG")
    add_instance(p)
    p.add_argument("-o", "--output", required=True, help="output SVG file")
    p.add_argument(
        "--set", action="append", default=None, help="edge set label(s) to draw"
    )
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, SizeGuardError, PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
