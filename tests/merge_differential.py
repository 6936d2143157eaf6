"""Merge differential: the stale-merge template on more seeds than tier-1.

    PYTHONPATH=src python3 tests/merge_differential.py

Checks 200 draws of `helpers.stale_merge_scenario` from each of the seeds 2,
3 and 21-24, 1200 draws in all (about 30 s).  On each draw, all four modes
must answer as the labelled-null chase (`helpers.null_chase`), and each
mode's final program must chase to one instance and term map for four
chase seeds, in which every term a fact holds is its own representative
(`helpers.check_stale_merge_draw`, which tier-1 runs on seed 1).  Prints,
per seed, how many draws it checked, how many the null chase left
unsettled (these are not checked), how many merge two named constants by
the null chase, and how many hand a class on to another member
(`UnionFind.reroot`), the path the template exists to reach.  Exits 1 at
the first disagreement, or after a seed none of whose draws reach it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import (  # noqa: E402
    check_stale_merge_draw,
    scenario_stream,
    stale_merge_scenario,
)

from chasegoal.engine import UnionFind  # noqa: E402

SEEDS = (2, 3, 21, 22, 23, 24)
DRAWS = 200


def main() -> int:
    reroots = 0
    reroot = UnionFind.reroot

    def counted(uf, root, member):
        nonlocal reroots
        reroots += 1
        reroot(uf, root, member)

    UnionFind.reroot = counted
    for seed in SEEDS:
        checked = unsettled = merged = rerooting = 0
        for drawn in scenario_stream(seed, DRAWS, draw=stale_merge_scenario):
            if drawn.answers is None:
                unsettled += 1
                continue
            checked += 1
            merged += drawn.merged
            before = reroots
            try:
                check_stale_merge_draw(drawn)
            except AssertionError as e:
                print("seed %d: disagreement %s" % (seed, e))
                return 1
            rerooting += reroots > before
        print("seed %d: %d draws agree, %d unsettled, %d merge named constants, %d hand a class on"
              % (seed, checked, unsettled, merged, rerooting))
        if not rerooting:
            print("seed %d: no draw hands a class on" % seed)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
