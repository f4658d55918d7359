#!/usr/bin/env python3
"""Generate a synthetic benchmark corpus + KB and a ready-to-run pipeline
config pointing at it.

Usage: python3 scripts/make_benchmark.py OUT_DIR [--seed N] [--n-target N] ...
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

# the checkout's package, first, so the bare script runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reldistill.synthetic import generate_benchmark  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    # a flag left out is not passed on, so generate_benchmark's default applies
    for flag, kind in (("--n-target", int), ("--n-structured", int), ("--k-true", int),
                       ("--spurious-rate", float), ("--n-eval", int)):
        parser.add_argument(flag, type=kind, default=argparse.SUPPRESS)
    args = parser.parse_args()

    paths = generate_benchmark(**vars(args))
    # the seven input paths, the string fields of BenchmarkPaths
    inputs = {key: value for key, value in asdict(paths).items() if isinstance(value, str)}
    config = {**inputs, "variant": ["Rs", "Rt"]}
    config_path = Path(args.out_dir) / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")
    print(f"true triples: {paths.n_true_triples}")
    print(f"spurious triples: {paths.n_spurious_triples}")
    print(f"run config: {config_path}")


if __name__ == "__main__":
    main()
