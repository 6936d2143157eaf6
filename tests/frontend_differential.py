"""Front-end differential: the round-trip properties on more draws than tier-1.

    PYTHONPATH=src python3 tests/frontend_differential.py

Runs each round-trip property of `tests/test_frontend.py` on 1000 draws from
each of the seeds 1 and 2, 2000 draws per grammar: rule files through
`repr` and `parse_rules`, terms, atoms and rules through `repr` and the
parsers, program dumps through `serialize_program` and `parse_program`,
and CSV tables through `csv.writer` and `parse_instance`, once as read and
once in 8-character blocks of the split reader.  Tier-1 runs the same
properties on its default example count.  Exits 1 at the first property
that fails."""

import sys
from pathlib import Path

from hypothesis import HealthCheck, seed, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_frontend  # noqa: E402

PROPERTIES = (
    test_frontend.test_rules_round_trip_through_render,
    test_frontend.test_repr_reads_back_to_an_equal_value,
    test_frontend.test_programs_round_trip_through_serialize,
    test_frontend.test_csv_tables_round_trip_through_parse_instance,
    test_frontend.test_csv_tables_round_trip_across_small_blocks,
)
SEEDS = (1, 2)
DRAWS = 1000


def main() -> int:
    for prop in PROPERTIES:
        run = settings(
            max_examples=DRAWS,
            database=None,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )(prop)
        for s in SEEDS:
            try:
                seed(s)(run)()
            except Exception as e:
                print("%s, seed %d: %s: %s" % (prop.__name__, s, type(e).__name__, e))
                return 1
            print("%s, seed %d: %d draws pass" % (prop.__name__, s, DRAWS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
