#!/usr/bin/env python3
"""Grid over all seven legal graph variants, both distillation strategies,
and a range of top-N values on the synthetic benchmark; writes one CSV row
per cell with micro precision/recall/F1.

Usage: python3 scripts/run_sweep.py [--seed N] [--n-values 5 10 20 30]
                                    [--out results/sweep.csv]
"""

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

# the checkout's package, first, so the bare script runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reldistill import benchmark  # noqa: E402
from reldistill.evaluation import BASELINES  # noqa: E402
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
        variants = sorted(LEGAL_VARIANTS, key=lambda v: VariantSpec(frozenset(v)).name)
        for variant in variants:
            name = VariantSpec(frozenset(variant)).name
            for strategy in ("Both", "Target"):
                for n in args.n_values:
                    config = dataclasses.replace(base, n=n, strategy=strategy)
                    try:
                        report = benchmark.distilled_report(art, sorted(variant), config)
                    except ValueError as exc:
                        # e.g. Target strategy over a graph with no target
                        # mentions leaves a relation with no positives
                        print(f"{name:8s} {strategy:6s} n={n:<3d} skipped: {exc}")
                        continue
                    m = report.micro
                    rows.append((name, strategy, n, m.precision, m.recall, m.f1))
                    print(f"{name:8s} {strategy:6s} n={n:<3d} "
                          f"P={m.precision:.3f} R={m.recall:.3f} F1={m.f1:.3f}")

        for kind in BASELINES:
            report = benchmark.baseline_report(art, kind, base)
            m = report.micro
            rows.append((kind, "-", 0, m.precision, m.recall, m.f1))
            print(f"{kind:8s} {'-':6s} n=-   "
                  f"P={m.precision:.3f} R={m.recall:.3f} F1={m.f1:.3f}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("variant,strategy,n,precision,recall,f1\n")
        for name, strategy, n, p, r, f1 in rows:
            fh.write(f"{name},{strategy},{n},{p:.6f},{r:.6f},{f1:.6f}\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
