#!/usr/bin/env python3
"""Score the propagation-distilled pipeline against the plain
distant-supervision baselines on freshly generated benchmarks, one per RNG
seed, and print per-seed and mean micro-F1 of the method and of every
baseline. This is the reference run used to freeze the expected F1 gap
over DS_Target asserted by the acceptance tests.

Usage: python3 scripts/run_benchmark.py [--seeds 0 1 2 3 4]
                                        [--variant Rs Rt] [--n 20]
"""

import argparse
import dataclasses
import statistics
import sys
import tempfile
import time
from pathlib import Path

# the checkout's package, first, so the bare script runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reldistill import benchmark  # noqa: E402
from reldistill.evaluation import BASELINES  # noqa: E402
from reldistill.synthetic import generate_benchmark  # noqa: E402
from reldistill.training import TrainConfig  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--variant", nargs="+", default=["Rs", "Rt"])
    parser.add_argument("--n", type=int, default=20)
    args = parser.parse_args()

    config = dataclasses.replace(TrainConfig(), n=args.n, strategy="Both")
    f1s: dict[str, list[float]] = {"distilled_Both": [], **{kind: [] for kind in BASELINES}}
    start = time.perf_counter()
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            paths = generate_benchmark(tmp, seed=seed)
            art = benchmark.prepare(paths)
            f1s["distilled_Both"].append(
                benchmark.distilled_report(art, args.variant, config).micro.f1
            )
            for kind in BASELINES:
                f1s[kind].append(benchmark.baseline_report(art, kind, config).micro.f1)
        print(f"seed {seed}: " + "  ".join(f"{name} F1={v[-1]:.4f}" for name, v in f1s.items()))

    means = {name: statistics.mean(v) for name, v in f1s.items()}
    elapsed = time.perf_counter() - start
    for name, mean in means.items():
        print(f"mean {name + ' F1':<20} = {mean:.4f}")
    # the gap the acceptance test freezes is against DS_Target alone
    print(f"{'gap vs DS_Target':<25} = {means['distilled_Both'] - means['DS_Target']:.4f}")
    print(f"{'elapsed':<25} = {elapsed:.1f}s")

if __name__ == "__main__":
    main()
