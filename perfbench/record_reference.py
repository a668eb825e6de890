"""Record the cv-wide reference values that every cv-wide op is checked
against: the grid, the CV matrix and the selection for each fold seed of the
pool, at the benchmark grid and at the smoke grid.

The pool is the first POOL_SIZE fold seeds, counting from 0, at which some
cell beats the intercept-only corner.  On these 22 rows a small grid has no
better cell for some fold splits (the corner also wins there when the fits
are solved to tol=1e-11), and every cv-wide op checks that the corner is
beaten.

    python3 perfbench/record_reference.py

Rewrites perfbench/reference.json.  Run it only when the expected results
change on purpose, and say why in the change that commits the new file.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import CvWide, HIGHDIM, REFERENCE, _cli  # noqa: E402

POOL_SIZE = 8


def record(grid, fold_seed, work):
    config = Path(work) / "config.json"
    config.write_text(json.dumps({"blocks": [
        {part: str(HIGHDIM / ("%s.csv" % part)) for part in ("y", "x", "z")}
    ]}))
    code, err = _cli(["cv", "--config", str(config), "--grid", grid, "--k", str(CvWide.K),
                      "--seed", str(fold_seed), "--out", work])
    if code != 0:
        sys.exit("cv failed for fold seed %d: %s" % (fold_seed, err))
    with open(Path(work) / "selection.json") as fh:
        sel = json.load(fh)
    lines = (Path(work) / "cv_matrix.csv").read_text().splitlines()
    sel["cv_matrix"] = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    return {key: sel[key] for key in
            ("lambdas", "gammas", "cv_matrix", "best_lambda", "best_gamma", "cv_min")}


def main():
    doc = {"cv-wide": {}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as work:
        for grid in sorted(set(CvWide.GRID.values())):
            pool = doc["cv-wide"][grid] = {}
            fold_seed = 0
            while len(pool) < POOL_SIZE:
                ref = record(grid, fold_seed, work)
                if ref["cv_min"] < ref["cv_matrix"][0][0]:
                    pool[str(fold_seed)] = ref
                fold_seed += 1
            print("recorded grid %s for fold seeds %s" % (grid, sorted(pool, key=int)))
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
