"""Command-line entry point: run scenarios, compare them, or solve MWC files."""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigError
from .maxclique import read_dimacs, solve
from .sim import compare_scenarios, emit_metrics, load_config, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedmarket",
        description="Federated-learning market simulator with consumer alliances.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--config", required=True, help="JSON config path, or 'default'")
    scenario.add_argument("--seed", type=int, default=None, help="override the config seed")

    run_p = sub.add_parser("run", parents=[scenario], help="run one scenario and write metrics")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")

    cmp_p = sub.add_parser(
        "compare", parents=[scenario], help="run all three scenarios and report the gap"
    )
    cmp_p.add_argument("--out", default=None, help="optional directory for compare.json")

    mwc_p = sub.add_parser("solve-mwc", help="solve a weighted max-clique instance")
    mwc_p.add_argument("--graph", required=True, help="DIMACS-like graph file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)

    try:
        if args.command in ("run", "compare"):
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            # Made before the run, so an unusable path fails first.
            if args.out:
                Path(args.out).mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            trace = run_scenario(cfg)
            paths = emit_metrics(trace, args.out)
            print(f"scenario={trace.scenario} seed={trace.seed}")
            print(f"final mean val acc:  {trace.final_mean_val():.4f}")
            print(f"final mean test acc: {trace.final_mean_test():.4f}")
            print(f"alliances formed:    {len(trace.alliances)}")
            for p in paths:
                print(f"wrote {p}")
        elif args.command == "compare":
            report = compare_scenarios(cfg)
            print(f"{'scenario':<14} final mean test acc")
            for scenario, acc in report["final_mean_test_acc"].items():
                print(f"{scenario:<14} {acc:.4f}")
            print(f"restriction gap:     {report['restriction_gap']:.4f}")
            ratio = report["recovered_gap_ratio"]
            print(f"recovered gap ratio: {ratio:.4f}" if isinstance(ratio, float)
                  else f"recovered gap ratio: {ratio}")
            if args.out:
                out = Path(args.out)
                (out / "compare.json").write_text(
                    json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
                )
                print(f"wrote {out / 'compare.json'}")
        elif args.command == "solve-mwc":
            graph = read_dimacs(args.graph)
            clique, weight = solve(graph)
            print(f"clique: {' '.join(str(v + 1) for v in sorted(clique))}")
            print(f"weight: {weight}")
    except (ConfigError, FloatingPointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
