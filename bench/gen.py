"""Generate one workload's inputs with reldistill.synthetic.

Usage: python3 bench/gen.py OUT_DIR SEED SIZES_JSON

SIZES_JSON holds the keyword arguments of `generate_benchmark` besides
the directory and seed. The benchmark runs this in a child process so
that generating inputs adds nothing to its own time or peak RSS. Prints
the generated paths and triple counts as one JSON object.
"""

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reldistill.synthetic import generate_benchmark  # noqa: E402

if __name__ == "__main__":
    out_dir, seed, sizes = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    paths = generate_benchmark(out_dir, seed=seed, **sizes)
    print(json.dumps(dataclasses.asdict(paths)))
