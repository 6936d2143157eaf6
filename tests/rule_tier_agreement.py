"""Rule-tier agreement: the 397-rule ontology answered in all four modes.

    PYTHONPATH=src python3 tests/rule_tier_agreement.py

Builds the ontology workload of `bench/workloads.py` at the rule tier
(LEVELS=6, CONCEPTS=12, ROLES=6, EXISTENTIALS=6, structure seed unchanged:
397 rules), set on the imported module at run time, runs `run_pipeline` in
each mode and prints the derived facts, `magic` rules and final (`desg`)
rules per mode.  It also reads every stage dump from `sk` to `desg` back
with `parse_program` and serializes it again.  Exits 1 unless the four
answer sets are equal, every dump reads back to its own text and every
demand predicate in a body of a `magic` stage is the head of some rule of
that stage.  Takes a few seconds."""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from chasegoal import (  # noqa: E402
    PipelineConfig,
    dump_stage,
    load_scenario,
    parse_program,
    run_pipeline,
    serialize_program,
)
from chasegoal.driver import MODES, STAGES  # noqa: E402
from chasegoal.kernel import MagicPredicate, pred_label  # noqa: E402

TIER = {"LEVELS": 6, "CONCEPTS": 12, "ROLES": 6, "EXISTENTIALS": 6}


def main() -> int:
    for name, value in TIER.items():
        setattr(workloads, name, value)
    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.ontology(Path(tmp), 0)
        sc = load_scenario(Path(tmp) / "rules.txt", Path(tmp) / "data", w.query, una_known=w.una)
    print("%d rules, %d base facts" % (len(sc.rules), len(sc.instance)))
    answers = {}
    unread = []
    underived = []
    for mode in MODES:
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        answers[mode] = set(rep.answers)
        print("%-5s %d answers, %d derived facts, %s magic rules, %d final rules"
              % (mode, len(rep.answers), rep.chase_stats.derived_facts,
                 rep.rule_counts.get("magic", "no"), rep.rule_counts["desg"]))
        if "magic" in rep.stages:
            rules = rep.stages["magic"].rules
            heads = {r.head.predicate for r in rules}
            underived += sorted({
                "%s %s" % (mode, pred_label(a.predicate)) for r in rules for a in r.body
                if isinstance(a.predicate, MagicPredicate) and a.predicate not in heads
            })
        for stage in STAGES[1:]:
            if stage in rep.stages:
                dump = dump_stage(rep, stage)
                if serialize_program(parse_program(dump)) != dump:
                    unread.append("%s %s" % (mode, stage))
    agree = len({frozenset(a) for a in answers.values()}) == 1
    print("four answer sets equal:", agree)
    print("dumps that do not read back:", ", ".join(unread) or "none")
    print("demand read in magic but never derived:", ", ".join(underived) or "none")
    return 0 if agree and not unread and not underived else 1


if __name__ == "__main__":
    sys.exit(main())
