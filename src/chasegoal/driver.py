"""Pipeline orchestration: run the stages a mode asks for, time them, check
the equality-safety invariant between stages, and report answers and stats."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import ClassVar, Optional

from .engine import ChaseResult, ChaseStats, Limits, chase, extract_answers
from .eqprep import check_eq_safety, singularize, skolemize
from .finalize import defunctionalize, desingularize
from .frontend import Scenario, serialize_program
from .kernel import Program
from .magicsets import magic
from .pruning import FIXPOINT_LIMITS, AbstractionFixpointDiverged, relevance

# The stages each mode runs, in execution order.
MODE_STAGES = {
    "mat": ("sg", "sk", "defun", "desg"),
    "rel": ("sg", "sk", "rel", "defun", "desg"),
    "magic": ("sg", "sk", "magic", "defun", "desg"),
    "all": ("sg", "sk", "rel", "magic", "defun", "desg"),
}
MODES = tuple(MODE_STAGES)
STAGES = MODE_STAGES["all"]
# The program must still be equality-safe after these.
_EQ_SAFE = ("sg", "sk", "rel", "magic")


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        # A MemoryError usually carries no message; name its type instead.
        message = "stage %s: %s" % (stage, str(cause) or type(cause).__name__)
        # A tripped guard names the rule it tripped in (`ChaseError.rule`).
        rule = getattr(cause, "rule", None)
        super().__init__(message if rule is None else "%s, applying %r" % (message, rule))


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "all"
    limits: Limits = Limits()
    seed: Optional[int] = None
    # Fixed, not options: bench/child.py's copy of the pipeline reads them.
    una_known: ClassVar[Optional[bool]] = None
    typed_critical: ClassVar[Optional[bool]] = None
    defun_abstraction: ClassVar[bool] = False
    relevance_limits: ClassVar[Limits] = FIXPOINT_LIMITS


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
    timings: dict[str, float] = {}
    stages: dict[str, object] = {}

    def stage(name: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            violations = check_eq_safety(result) if name in _EQ_SAFE else ()
            if violations:
                _, atom, why = violations[0]
                raise RuntimeError("equality safety lost after %s: %r (%s)" % (name, atom, why))
        except Exception as err:
            raise PipelineError(name, err) from err
        timings[name] = time.perf_counter() - t0
        if name in STAGES:
            stages[name] = result
        return result

    sg = stage("sg", singularize, scenario.rules, scenario.query)
    program = stage("sk", skolemize, sg, scenario.query)
    retried = False
    if "rel" in MODE_STAGES[cfg.mode]:
        rel = partial(relevance, program, scenario.instance, una_known=scenario.una_known,
                      typed=scenario.schema is not None, schema=scenario.schema)
        t0 = time.perf_counter()
        try:
            program = stage("rel", rel, abstract_functions=False)
        except PipelineError as err:
            # A diverging abstract fixpoint is retried once with function
            # symbols abstracted to constants; the time spans both attempts.
            if not isinstance(err.cause, AbstractionFixpointDiverged):
                raise
            retried = True
            program = stage("rel", rel, abstract_functions=True)
            timings["rel"] = time.perf_counter() - t0
    if "magic" in MODE_STAGES[cfg.mode]:
        program = stage("magic", magic, program)
    program = stage("defun", defunctionalize, program)
    program = stage("desg", desingularize, program)
    result = stage("chase", chase, program, scenario.instance, cfg.limits, cfg.seed)

    answers = extract_answers(result, scenario.query)
    return RunReport(
        mode=cfg.mode, query=scenario.query.name,
        answers=tuple(sorted(tuple(c.name for c in t) for t in answers)),
        rule_counts={k: len(p.rules if isinstance(p, Program) else p) for k, p in stages.items()},
        timings=timings, chase_stats=result.stats, stages=stages, chase_result=result,
        relevance_retried=retried,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _stats(report: RunReport) -> dict:
    """The run's statistics, as `--stats-json` writes them; `stats.txt`
    renders the same dict line by line."""
    return {
        "mode": report.mode,
        "query": report.query,
        "answers": [list(a) for a in report.answers],
        "rule_counts": report.rule_counts,
        "timings": report.timings,
        "chase": asdict(report.chase_stats),
        "relevance_retried": report.relevance_retried,
    }


def format_stats(report: RunReport) -> str:
    stats = _stats(report)
    lines = ["mode: %s" % stats["mode"], "query: %s" % stats["query"],
             "answers: %d" % len(stats["answers"])]
    lines += ["rules after %s: %d" % item for item in stats["rule_counts"].items()]
    lines += ["chase %s: %d" % (key.replace("_", " "), n) for key, n in stats["chase"].items()]
    lines += ["time %s: %.6fs" % item for item in stats["timings"].items()]
    if stats["relevance_retried"]:
        lines.append("relevance: retried with function abstraction")
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, out_dir, stats_json=None) -> None:
    """Write answers.csv and stats.txt into out_dir; optionally a JSON copy
    of the stats."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "answers.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(report.answers)
    (out / "stats.txt").write_text(format_stats(report), encoding="utf-8")
    if stats_json is not None:
        Path(stats_json).write_text(json.dumps(_stats(report), indent=2) + "\n", encoding="utf-8")


def dump_stage(report: RunReport, name: str) -> str:
    if name not in report.stages:
        raise KeyError("stage %s was not computed in mode %s" % (name, report.mode))
    return serialize_program(report.stages[name])
