"""Command-line entry point: staged subcommands over a JSON run config.

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .pipeline import STAGES, Workspace, load_run_config, run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reldistill",
        description=(
            "Distantly supervised relation extraction with label-propagation "
            "distillation of training examples"
        ),
    )
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        sub.add_parser(name, help=f"run the {name} stage")
    sub.add_parser("run", help="run the full pipeline (ingest through eval)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ws = Workspace(args.out, load_run_config(args.config))
        if args.command == "run":
            run_all(ws)
        else:
            STAGES[args.command](ws)
    # decode.InputError, every malformed input's class, is a ValueError
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
