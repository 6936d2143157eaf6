"""Merge differential: the stale-merge template on more seeds than tier-1.

    PYTHONPATH=src python3 tests/merge_differential.py

Checks 200 draws of `helpers.stale_merge_scenario` from each of the seeds 2,
3 and 21-24, 1200 draws in all (about 40 s).  On each draw, all four modes
must answer as the reference fixpoint, and each mode's final program must
chase to one instance and term map for four chase seeds, in which every
term a fact holds is its own representative
(`helpers.check_stale_merge_draws`, which tier-1 runs on seed 1).  Exits 1
at the first disagreement."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import check_stale_merge_draws  # noqa: E402

SEEDS = (2, 3, 21, 22, 23, 24)
DRAWS = 200


def main() -> int:
    for seed in SEEDS:
        try:
            merged = check_stale_merge_draws(seed, DRAWS)
        except AssertionError as e:
            print("seed %d: disagreement %s" % (seed, e))
            return 1
        print("seed %d: %d draws agree, %d merge distinct constants" % (seed, DRAWS, merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
