"""Command-line interface.

Every stage subcommand takes --config, --out, and optionally --seed (which
overrides the config's master seed). `run` executes the whole pipeline;
`make-toy` writes the bundled toy corpus and a ready config. Exit codes:
0 on success; 1 when a stage (or the experiment) fails, with
"[<stage>] <message>" on stderr; 2 on a config or usage error, with
"[<command>] <message>" on stderr.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiment import run_multisource_experiment
from .pipeline import STAGES, PipelineConfig, PipelineStageError, run_pipeline, run_stage
from .toydata import write_toy_corpus


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config)
    if args.seed is not None:
        raw = dict(cfg.raw)
        raw["master_seed"] = args.seed
        cfg = PipelineConfig.from_dict(raw, base_dir=Path(args.config).parent)
    return cfg


def _add_common(parser: argparse.ArgumentParser, need_config: bool = True) -> None:
    parser.add_argument("--config", required=need_config, help="pipeline config file (YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override the config master seed")
    parser.add_argument("--out", required=True, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixtask",
        description="Mixture-ratio multi-task training, ensembling, and ranking evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        _add_common(p)

    p = sub.add_parser("run", help="run every stage in order")
    _add_common(p)
    p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p = sub.add_parser("experiment-multisource",
                       help="compare single-source vs mixed-source ensembles")
    p.add_argument("--config", default=None, help="pipeline config (required for trained mode)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed of either mode; overrides the config master seed")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--mode", choices=("noise", "trained"), default="noise")
    p.add_argument("--trials", type=int, default=20, help="seeded trials (noise mode)")
    p.add_argument("--samples", type=int, default=1000, help="samples per trial (noise mode)")

    p = sub.add_parser("make-toy", help="write the bundled toy corpus and config")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "make-toy":
            config_path = write_toy_corpus(args.out, seed=args.seed)
            print(f"toy corpus written; config at {config_path}")
            return 0
        if args.command == "experiment-multisource":
            cfg = _load_config(args) if args.config else None
            report = run_multisource_experiment(
                cfg,
                args.out,
                mode=args.mode,
                n_trials=args.trials,
                master_seed=args.seed,
                n_samples=args.samples,
            )
            print(report.table())
            return 0
        cfg = _load_config(args)
        if args.command == "run":
            run_pipeline(cfg, args.out, quiet=args.quiet)
            print(f"pipeline complete; artifacts in {args.out}")
            return 0
        run_stage(args.command, cfg, args.out)
        print(f"[{args.command}] done")
        return 0
    except PipelineStageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"[{args.command}] {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
