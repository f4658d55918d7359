#!/usr/bin/env python3
"""Generate a synthetic benchmark corpus + KB and a ready-to-run pipeline
config pointing at it.

Usage: python3 scripts/make_benchmark.py OUT_DIR [--seed N] [--n-target N] ...
"""

import argparse
import json
import sys
from pathlib import Path

# the checkout's package, first, so the bare script runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reldistill.synthetic import generate_benchmark  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-target", type=int, default=300)
    parser.add_argument("--n-structured", type=int, default=30)
    parser.add_argument("--k-true", type=int, default=200)
    parser.add_argument("--spurious-rate", type=float, default=0.3)
    parser.add_argument("--n-eval", type=int, default=30)
    args = parser.parse_args()

    paths = generate_benchmark(
        args.out_dir,
        seed=args.seed,
        n_target=args.n_target,
        n_structured=args.n_structured,
        k_true=args.k_true,
        spurious_rate=args.spurious_rate,
        n_eval=args.n_eval,
    )
    config = {
        "structured_corpus": paths.structured_corpus,
        "target_corpus": paths.target_corpus,
        "eval_corpus": paths.eval_corpus,
        "schema": paths.schema,
        "triples": paths.triples,
        "concept_seeds": paths.concept_seeds,
        "gold": paths.gold,
        "variant": ["Rs", "Rt"],
    }
    config_path = Path(args.out_dir) / "config.json"
    config_path.write_text(json.dumps(config, indent=1) + "\n")
    print(f"true triples: {paths.n_true_triples}")
    print(f"spurious triples: {paths.n_spurious_triples}")
    print(f"run config: {config_path}")


if __name__ == "__main__":
    main()
