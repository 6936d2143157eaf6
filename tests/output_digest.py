"""Output digest: a short hash of every output of the pipeline, per cell.

    PYTHONPATH=src python3 tests/output_digest.py

A cell is one input, one mode and one chase seed (None or 3).  The inputs
are chain, campus and ontology from `bench/workloads.py` (workload seed 0),
chain-10000 (`helpers.running_example(10001)`) and the 397-rule ontology
tier (LEVELS=6, CONCEPTS=12, ROLES=6, EXISTENTIALS=6, as in
`tests/rule_tier_agreement.py`).  Each cell prints one line of 12-digit
hashes: the answers, `ChaseStats`, the rule counts, every `dump_stage`
text, the chased instance sorted and in iteration order, the term map `mu`
in order and `derived`, the facts the chase derived in the order it made
them, as `helpers.derivation_log` records them.  A last line hashes them
all (TOTAL).

Terms and atoms are written by this script's own `text`, not by `repr`, so
a change to how the program prints a term is not an output change; the
stage dumps are the program's own text, since they are an output.  Two
commits, or two hash seeds (`PYTHONHASHSEED`), whose runs print the same
lines computed the same outputs.  Takes about half a minute."""

import hashlib
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from helpers import derivation_log, running_example  # noqa: E402

from chasegoal import PipelineConfig, dump_stage, load_scenario, run_pipeline  # noqa: E402
from chasegoal.driver import MODES  # noqa: E402
from chasegoal.kernel import Atom, Constant, Functional, Variable, pred_label  # noqa: E402

TIER = {"LEVELS": 6, "CONCEPTS": 12, "ROLES": 6, "EXISTENTIALS": 6}
SEEDS = (None, 3)


def text(x) -> str:
    """A fixed text of a term or an atom."""
    if isinstance(x, Atom):
        return "%s(%s)" % (pred_label(x.predicate), ",".join(map(text, x.args)))
    if isinstance(x, Functional):
        return "%s(%s)" % (x.symbol, ",".join(map(text, x.args)))
    if isinstance(x, Constant):
        return "c:%s" % x.name
    assert isinstance(x, Variable)
    return "?%s" % x.name


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def inputs():
    """(name, scenario) for each input, in a fixed order."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("chain", "campus", "ontology"):
            w = workloads.WORKLOADS[name](Path(tmp) / name, 0)
            yield name, load_scenario(Path(tmp) / name / "rules.txt", Path(tmp) / name / "data",
                                      w.query, una_known=w.una)
    yield "chain-10000", running_example(10001)
    for name, value in TIER.items():
        setattr(workloads, name, value)
    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.ontology(Path(tmp), 0)
        yield "tier-397", load_scenario(Path(tmp) / "rules.txt", Path(tmp) / "data", w.query,
                                        una_known=w.una)


def fields(report, derived) -> "list[tuple[str, str]]":
    result = report.chase_result
    out = [
        ("answers", digest(",".join(a) for a in report.answers)),
        ("stats", digest(map(str, astuple(report.chase_stats)))),
        ("rules", digest("%s %d" % item for item in report.rule_counts.items())),
    ]
    out += [("dump." + name, digest([dump_stage(report, name)])) for name in report.stages]
    facts = [text(a) for a in result.instance]
    out += [
        ("sorted", digest(sorted(facts))),
        ("order", digest(facts)),
        ("mu", digest("%s %s" % (text(s), text(t)) for s, t in result.mu.items())),
        ("derived", digest(map(text, derived))),
    ]
    return out


def main() -> int:
    lines = []
    for name, scenario in inputs():
        for mode in MODES:
            for seed in SEEDS:
                with derivation_log() as derived:
                    report = run_pipeline(scenario, PipelineConfig(mode=mode, seed=seed))
                pairs = " ".join("%s=%s" % f for f in fields(report, derived))
                line = "%s %s %s %s" % (name, mode, seed, pairs)
                print(line, flush=True)
                lines.append(line)
    print("TOTAL", digest(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
