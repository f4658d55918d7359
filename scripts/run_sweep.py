#!/usr/bin/env python3
"""Grid over all seven legal graph variants, the distillation strategies
each can feed and a range of top-N values on the synthetic benchmark
(`pipeline.sweep_cells`), plus the baselines; writes one CSV row per cell
with micro precision/recall/F1 once every cell has succeeded.

Usage: python3 scripts/run_sweep.py [--seed N] [--n-values 5 10 20 30]
                                    [--out results/sweep.csv]
"""

import argparse
import sys
import tempfile
from pathlib import Path

# the checkout's package, first, so the bare script runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reldistill import benchmark, pipeline  # noqa: E402
from reldistill.evaluation import BASELINES, write_sweep  # noqa: E402
from reldistill.mentions import LEGAL_VARIANTS, VariantSpec  # noqa: E402
from reldistill.synthetic import generate_benchmark  # noqa: E402
from reldistill.training import TrainConfig  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-values", type=int, nargs="+", default=[5, 10, 20, 30])
    parser.add_argument("--out", default="results/sweep.csv")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        paths = generate_benchmark(tmp, seed=args.seed)
        art = benchmark.prepare(paths)

        rows = []
        base = TrainConfig()
        for spec in sorted(map(VariantSpec, LEGAL_VARIANTS), key=lambda spec: spec.name):
            ranking = benchmark.ranking_for(art, spec.include)
            for strategy, n, m in pipeline.sweep_cells(
                ranking, art.sets, art.pool, art.eval_docs, art.gold, spec,
                args.n_values, base, art.feature_config,
            ):
                rows.append((spec.name, strategy, n, m))

        for kind in BASELINES:
            rows.append((kind, "-", 0, benchmark.baseline_report(art, kind, base).micro))

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_sweep(rows, str(out), ".6f")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
