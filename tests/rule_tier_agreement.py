"""Rule-tier agreement: the 397-rule ontology answered in all four modes.

    PYTHONPATH=src python3 tests/rule_tier_agreement.py

Builds the ontology workload of `bench/workloads.py` at the rule tier
(LEVELS=6, CONCEPTS=12, ROLES=6, EXISTENTIALS=6, structure seed unchanged:
397 rules), set on the imported module at run time, runs `run_pipeline` in
each mode and prints the derived facts, `magic` rules and final (`desg`)
rules per mode.  It also reads every stage dump from `sk` to `desg` back
with `parse_program` and serializes it again.  Then it appends rules over
fresh predicates that no query trace reaches (a diverging existential loop
and a 5-ary family of rules with 11 constants, each with a base fact) and
runs `rel` and `all` again.  Exits 1 unless the four answer sets are equal,
every dump reads back to its own text, every demand predicate in a body of
a `magic` stage is the head of some rule of that stage, and with the
unreachable rules every dump from `rel` on is byte-identical to the plain
run's and neither run retried relevance.  Takes a few seconds."""

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
from chasegoal.driver import MODE_STAGES, MODES, STAGES  # noqa: E402
from chasegoal.kernel import MagicPredicate, pred_label  # noqa: E402

TIER = {"LEVELS": 6, "CONCEPTS": 12, "ROLES": 6, "EXISTENTIALS": 6}
# Rules over predicates the tier does not use, and their base facts.
UNREACHABLE_RULES = "F(?x) -> G(?x,?y), F(?y)\n" + "".join(
    "P(?a,?b,?c,?d,?e) -> K(?a,c%d)\n" % i for i in range(1, 12)
)
UNREACHABLE_FACTS = {"F.csv": "f1\n", "P.csv": "p,p,p,p,p\n"}


def main() -> int:
    for name, value in TIER.items():
        setattr(workloads, name, value)
    with tempfile.TemporaryDirectory() as tmp:
        rules, data = Path(tmp) / "rules.txt", Path(tmp) / "data"
        w = workloads.ontology(Path(tmp), 0)
        sc = load_scenario(rules, data, w.query, una_known=w.una)
        with open(rules, "a", encoding="utf-8") as fh:
            fh.write(UNREACHABLE_RULES)
        for name, text in UNREACHABLE_FACTS.items():
            (data / name).write_text(text, encoding="utf-8")
        extended = load_scenario(rules, data, w.query, una_known=w.una)
    print("%d rules, %d base facts" % (len(sc.rules), len(sc.instance)))
    answers = {}
    reports = {}
    unread = []
    underived = []
    for mode in MODES:
        rep = reports[mode] = run_pipeline(sc, PipelineConfig(mode=mode))
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
    moved = []
    retried = []
    for mode in ("rel", "all"):
        rep = run_pipeline(extended, PipelineConfig(mode=mode))
        if rep.relevance_retried or reports[mode].relevance_retried:
            retried.append(mode)
        moved += [
            "%s %s" % (mode, stage) for stage in MODE_STAGES[mode][2:]
            if dump_stage(rep, stage) != dump_stage(reports[mode], stage)
        ]
    agree = len({frozenset(a) for a in answers.values()}) == 1
    print("four answer sets equal:", agree)
    print("dumps that do not read back:", ", ".join(unread) or "none")
    print("demand read in magic but never derived:", ", ".join(underived) or "none")
    print("dumps that unreachable rules change:", ", ".join(moved) or "none")
    print("relevance retried:", ", ".join(retried) or "none")
    return 0 if agree and not (unread or underived or moved or retried) else 1


if __name__ == "__main__":
    sys.exit(main())
