"""Pipeline orchestration: run the stages a mode asks for, time them, check
the equality-safety invariant between stages, and report answers and stats."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from .engine import ChaseResult, ChaseStats, Limits, chase, extract_answers
from .eqprep import check_eq_safety, singularize, skolemize
from .finalize import defunctionalize, desingularize
from .frontend import Scenario, serialize_program
from .kernel import Program
from .magicsets import magic
from .pruning import FIXPOINT_LIMITS, AbstractionFixpointDiverged, relevance

MODES = ("mat", "rel", "magic", "all")

# Stages in execution order; "mat" skips rel and magic, "rel" skips magic,
# "magic" skips rel.
STAGES = ("sg", "sk", "rel", "magic", "defun", "desg")


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        # A MemoryError usually carries no message; name its type instead.
        super().__init__("stage %s: %s" % (stage, str(cause) or type(cause).__name__))


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "all"
    una_known: Optional[bool] = None          # None: take the scenario's flag
    typed_critical: Optional[bool] = None     # None: typed iff a schema exists
    defun_abstraction: bool = False           # abstract functions before relevance
    limits: Limits = Limits()
    relevance_limits: Limits = FIXPOINT_LIMITS
    seed: Optional[int] = None


@dataclass
class RunReport:
    mode: str
    query: str
    answers: "tuple[tuple[str, ...], ...]"    # constant names, sorted
    rule_counts: "dict[str, int]"
    timings: "dict[str, float]"               # seconds per stage; `chasegoal run` adds "load"
    chase_stats: ChaseStats
    stages: "dict[str, object]"               # stage name -> rules at that point
    chase_result: ChaseResult
    relevance_retried: bool = False


def run_pipeline(scenario: Scenario, cfg: PipelineConfig = PipelineConfig()) -> RunReport:
    if cfg.mode not in MODES:
        raise ValueError("unknown mode %r" % (cfg.mode,))
    una = scenario.una_known if cfg.una_known is None else cfg.una_known
    typed = (scenario.schema is not None) if cfg.typed_critical is None else cfg.typed_critical

    timings: dict[str, float] = {}
    stages: dict[str, object] = {}
    retried = False

    def stage(name: str, fn, safety: bool = False):
        t0 = time.perf_counter()
        try:
            result = fn()
            if safety:
                violations = check_eq_safety(result)
                if violations:
                    _, atom, why = violations[0]
                    raise RuntimeError(
                        "equality safety lost after %s: %r (%s)" % (name, atom, why)
                    )
        except Exception as err:
            raise PipelineError(name, err) from err
        timings[name] = time.perf_counter() - t0
        stages[name] = result
        return result

    sg = stage("sg", lambda: singularize(scenario.rules, scenario.query), safety=True)
    current = stage("sk", lambda: skolemize(sg, scenario.query), safety=True)

    if cfg.mode in ("rel", "all"):

        def run_relevance():
            nonlocal retried
            # A diverging abstract fixpoint is retried once with function
            # symbols abstracted to constants.
            for abstract in (cfg.defun_abstraction, True):
                try:
                    return relevance(
                        current,
                        scenario.instance,
                        una_known=una,
                        typed=typed,
                        schema=scenario.schema,
                        abstract_functions=abstract,
                        fixpoint_limits=cfg.relevance_limits,
                    )
                except AbstractionFixpointDiverged:
                    if abstract:
                        raise
                    retried = True

        current = stage("rel", run_relevance, safety=True)

    if cfg.mode in ("magic", "all"):
        p = current
        current = stage("magic", lambda: magic(p), safety=True)

    p = current
    current = stage("defun", lambda: defunctionalize(p))
    p = current
    final = stage("desg", lambda: desingularize(p))

    result = stage("chase", lambda: chase(final, scenario.instance, cfg.limits, cfg.seed))
    answers = extract_answers(result, scenario.query)

    return RunReport(
        mode=cfg.mode,
        query=scenario.query.name,
        answers=tuple(sorted(tuple(c.name for c in t) for t in answers)),
        rule_counts={
            name: len(prog.rules if isinstance(prog, Program) else prog)
            for name, prog in stages.items()
            if name != "chase"
        },
        timings=timings,
        chase_stats=result.stats,
        stages={k: v for k, v in stages.items() if k != "chase"},
        chase_result=result,
        relevance_retried=retried,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def format_stats(report: RunReport) -> str:
    lines = [
        "mode: %s" % report.mode,
        "query: %s" % report.query,
        "answers: %d" % len(report.answers),
    ]
    for name in STAGES:
        if name in report.rule_counts:
            lines.append("rules after %s: %d" % (name, report.rule_counts[name]))
    for key, value in asdict(report.chase_stats).items():
        lines.append("chase %s: %d" % (key.replace("_", " "), value))
    for name in ("load", *STAGES, "chase"):
        if name in report.timings:
            lines.append("time %s: %.6fs" % (name, report.timings[name]))
    if report.relevance_retried:
        lines.append("relevance: retried with function abstraction")
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, out_dir, stats_json=None) -> None:
    """Write answers.csv and stats.txt into out_dir; optionally a JSON copy
    of the stats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "answers.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in report.answers:
            writer.writerow(row)
    (out / "stats.txt").write_text(format_stats(report), encoding="utf-8")
    if stats_json is not None:
        payload = {
            "mode": report.mode,
            "query": report.query,
            "answers": [list(a) for a in report.answers],
            "rule_counts": report.rule_counts,
            "timings": report.timings,
            "chase": asdict(report.chase_stats),
            "relevance_retried": report.relevance_retried,
        }
        Path(stats_json).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def dump_stage(report: RunReport, name: str) -> str:
    if name not in report.stages:
        raise KeyError("stage %s was not computed in mode %s" % (name, report.mode))
    return serialize_program(report.stages[name])
